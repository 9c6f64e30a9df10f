"""Property test of the command-line contract: whatever the input files and
counts, every subcommand exits 0, 2, 3 or 4, prints no traceback, emits no
``RuntimeWarning`` (numpy's overflow and invalid-value warnings), and
``main`` returns instead of raising."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurmaps.cli import main

COMMANDS = ("validate", "evolve", "decompose", "correct", "eraser", "bounds")
TOL_FIELDS = ["herm", "eig", "psd", "tr", "x"]
SPECIAL = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 10**400, 0.0, 1.0]

number = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(SPECIAL))
bad_dim = st.sampled_from(
    ["3.5", "2", "x", 2.0, 3.5, -1, 0, 4, float("inf"), float("nan"), 10**400, True, None, [2]]
)
junk = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | number | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["kind", "dim", "entries", "weights", "phases", "tr", "psd", "x"]),
        inner,
        max_size=4,
    ),
    max_leaves=8,
)


def _random_matrix(seed, d, kind):
    """A valid correlation matrix or state of size d, from a seed."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = g @ g.conj().T
    if kind == "state":
        return a / np.trace(a).real
    s = 1.0 / np.sqrt(np.diag(a).real)
    return s[:, None] * a * s[None, :]


def matrix_doc(draw, d, kind):
    """A valid matrix envelope of size d: random, identity-like or all-ones-like."""
    m = {
        "random": lambda: _random_matrix(draw(st.integers(0, 2**16)), d, kind),
        "identity": lambda: np.eye(d),
        "ones": lambda: np.ones((d, d)),
    }[draw(st.sampled_from(["random", "identity", "ones"]))]()
    if kind == "state":
        m = m / np.trace(m).real
    return {"kind": kind, "dim": d, "entries": [[z.real, z.imag] for z in m.reshape(-1)]}


def decomposition_doc(draw, d):
    """A valid decomposition file of dim d: random flat terms, or the clock family."""
    terms = draw(st.integers(1, 4))
    phases = [draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d)) for _ in range(terms)]
    if draw(st.booleans()):
        terms, phases = d, [[2 * np.pi * j * k / d for k in range(d)] for j in range(d)]
    return {"dim": d, "weights": [1.0 / terms] * terms, "phases": phases}


def break_doc(draw, doc, d):
    """``doc`` with one field broken: a bad or junk value, a lost key, the wrong size,
    or a matrix's kind swapped to the other role's."""
    doc = json.loads(json.dumps(doc))
    key = draw(st.sampled_from(sorted(doc)))
    how = draw(st.sampled_from(["junk", "item", "dim", "drop", "resize", "whole", "kind"]))
    if how == "whole":
        return draw(junk)
    if how == "kind":
        if "kind" in doc:
            doc["kind"] = {"correlation": "state", "state": "correlation"}[doc["kind"]]
    elif how == "junk":
        doc[key] = draw(junk)
    elif how == "item" and isinstance(doc[key], list) and doc[key]:
        i = draw(st.integers(0, len(doc[key]) - 1))
        doc[key][i] = draw(st.one_of(number, st.lists(number, max_size=4), junk))
    elif how == "dim":
        doc["dim"] = draw(bad_dim)
    elif how == "drop":
        del doc[key]
    else:  # a valid document of another size
        other = draw(st.sampled_from([e for e in (1, 2, 3) if e != d]))
        if "entries" in doc:
            return matrix_doc(draw, other, doc["kind"])
        return decomposition_doc(draw, other)
    return doc


@st.composite
def input_files(draw):
    """Valid xi, rho, decomposition and tolerance documents of one size d,
    with at most one of them broken (non-finite, huge or non-Hermitian
    entries, wrong kinds, dims or shapes, malformed envelopes)."""
    d = draw(st.integers(1, 3))
    files = {
        "xi": matrix_doc(draw, d, "correlation"),
        "rho": matrix_doc(draw, d, "state"),
        "dec": decomposition_doc(draw, d),
        "tol": draw(st.none() | st.dictionaries(st.sampled_from(TOL_FIELDS), st.floats(0, 1e-6))),
    }
    broken = draw(st.sampled_from(["xi", "rho", "dec", "tol", None]))
    if broken == "tol":
        files["tol"] = draw(st.dictionaries(st.sampled_from(TOL_FIELDS), number, min_size=1) | junk)
    elif broken is not None:
        files[broken] = break_doc(draw, files[broken], d)
    return files


def _write(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


def _argv(tmp, command, files, count, flags):
    """The command line for ``command`` over ``files`` written to ``tmp``."""
    xp, rp, dp, tp = (_write(os.path.join(tmp, f"{k}.json"), v) for k, v in files.items())
    argv = ["--out", os.path.join(tmp, "run"), "--seed", str(count % 3 - 1)]
    if files["tol"] is not None:
        argv += ["--tol", tp]
    if flags & 1:
        argv.append("--json")
    with_file = bool(flags & 2)
    return argv + {
        "validate": ["validate", xp],
        "evolve": ["evolve", xp, rp, str(count)],
        "decompose": ["decompose", xp],
        "correct": ["correct", xp, rp] + (["--dec", dp] if with_file else []),
        "eraser": ["eraser", "--d", str(count), "--samples", str(count + flags - 2)]
        + (["--state", rp] if with_file else []),
        "bounds": ["bounds", xp] + ([dp] if with_file else []),
    }[command]


VALID = {
    "xi": {"kind": "correlation", "dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
    "rho": {"kind": "state", "dim": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]},
    "dec": {"dim": 2, "weights": [0.5, 0.5], "phases": [[0, 0], [0, 3.141592653589793]]},
    "tol": None,
}


def _with(file, **fields):
    return dict(VALID, **{file: dict(VALID[file], **fields)})


@settings(max_examples=250, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    files=input_files(),
    count=st.integers(-2, 3),
    flags=st.integers(0, 3),
)
@example("validate", _with("xi", dim="3.5"), 2, 0)
@example("validate", _with("xi", dim=float("inf")), 2, 0)
@example("correct", _with("dec", dim=float("inf")), 2, 2)
@example("validate", _with("xi", dim=1, entries=[[0, 1e308]]), 2, 0)
@example("correct", _with("dec", phases=[[0, 0], [0, float("inf")]]), 2, 2)
@example("bounds", _with("dec", weights=[1e308, 0.5]), 2, 2)
def test_cli_exits_cleanly_on_any_input(command, files, count, flags):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(tmp, command, files, count, flags)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv, runtime)
