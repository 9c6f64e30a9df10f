"""JSON and CSV envelopes shared by the library and the CLI.

Matrix envelope: {"kind": "correlation"|"state", "dim": d, "entries":
[[re, im], ...]} with entries row-major. The kind names the role: a file is
read as a correlation matrix only if it says "correlation", and as a state
only if it says "state". Floats pass through Python's shortest-roundtrip
repr, so every file the library writes reads back bit-exactly.
"""

import json
import numbers

import numpy as np

from .channels import CorrelationMatrix, DensityMatrix, validate_correlation
from .decomposition import FlatDecomposition
from .errors import SerializationError
from .numerics import DEFAULT_TOL, ToleranceProfile, _numbers

__all__ = [
    "matrix_to_dict",
    "matrix_from_dict",
    "load_matrix",
    "save_json",
    "load_json",
    "density_from_dict",
    "correlation_from_dict",
    "decomposition_to_dict",
    "decomposition_from_dict",
    "write_csv",
]

MATRIX_KINDS = ("correlation", "state")


def matrix_to_dict(m, kind: str) -> dict:
    if kind not in MATRIX_KINDS:
        raise SerializationError(f"unknown matrix kind {kind!r}")
    mm = _numbers(m, complex, SerializationError)
    if mm.ndim != 2 or mm.shape[0] != mm.shape[1]:
        raise SerializationError(f"expected a square matrix, got shape {mm.shape}")
    entries = [[z.real, z.imag] for z in mm.reshape(-1)]
    return {"kind": kind, "dim": mm.shape[0], "entries": entries}


def _dim(value) -> int:
    """A ``dim`` field as an int: an integer, or a float with an integral value such as 2.0.

    A fractional, non-finite, boolean or string dim is a :class:`SerializationError`."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SerializationError(f"dim must be an integer, got {value!r}")
    return int(value)


def matrix_from_dict(obj) -> tuple[str, np.ndarray]:
    try:
        kind = obj["kind"]
        dim = _dim(obj["dim"])
        entries = list(obj["entries"])
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed matrix envelope: {exc}") from exc
    if kind not in MATRIX_KINDS:
        raise SerializationError(f"unknown matrix kind {kind!r}")
    if dim < 1 or len(entries) != dim * dim:
        raise SerializationError(
            f"entry count {len(entries)} does not match dim {dim}"
        )
    try:
        flat = np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SerializationError(f"bad matrix entry: {exc}") from exc
    return kind, flat.reshape(dim, dim)


def save_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
        f.write("\n")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc


def load_matrix(path) -> tuple[str, np.ndarray]:
    return matrix_from_dict(load_json(path))


def _matrix_of_kind(obj, kind: str) -> np.ndarray:
    found, m = matrix_from_dict(obj)
    if found != kind:
        raise SerializationError(f"expected a {kind!r} matrix, got kind {found!r}")
    return m


def density_from_dict(obj, tol: ToleranceProfile = DEFAULT_TOL) -> DensityMatrix:
    return DensityMatrix.from_matrix(_matrix_of_kind(obj, "state"), tol)


def correlation_from_dict(obj, tol: ToleranceProfile = DEFAULT_TOL) -> CorrelationMatrix:
    return validate_correlation(_matrix_of_kind(obj, "correlation"), tol)


def decomposition_to_dict(dec: FlatDecomposition) -> dict:
    return {
        "dim": dec.dim,
        "weights": [float(w) for w in dec.weights],
        "phases": [[float(t) for t in np.angle(u)] for u in dec.phase_vectors],
    }


def decomposition_from_dict(obj) -> FlatDecomposition:
    try:
        dim = _dim(obj["dim"])
        weights = np.asarray(obj["weights"], dtype=float)
        phases = np.asarray(obj["phases"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SerializationError(f"malformed decomposition: {exc}") from exc
    if weights.ndim != 1 or phases.shape != (weights.size, dim):
        raise SerializationError(
            f"phase array shape {phases.shape} does not match "
            f"weights of shape {weights.shape} and dim {dim}"
        )
    if not np.all(np.isfinite(phases)):
        raise SerializationError("phases must be finite angles")
    return FlatDecomposition(dim=dim, weights=weights, phase_vectors=np.exp(1j * phases))


def write_csv(path, header, rows) -> None:
    """A comma-separated table: the ``header`` names, then each row's numbers to 17
    significant digits (``%.17g``), enough to round-trip any double."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(line % tuple(row) for row in rows)
