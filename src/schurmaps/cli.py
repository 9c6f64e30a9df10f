"""Command-line front end.

Subcommands: validate, evolve, decompose, correct, eraser, bounds.
Exit codes: 0 success, 2 validation failure (including any failed
allocation, such as a size too large to allocate), 3 verification/recovery
failure (including an exhausted decomposition search), 4 I/O or parse
error. All randomness sits behind --seed (default 0), so identical
invocations produce identical files. Each subcommand imports the library
modules it calls when it runs, so a process loads only what its subcommand
needs.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import serialize
from .channels import DensityMatrix, SchurChannel, asymptotic_state, iterate
from .errors import (
    NoDecompositionFound,
    RecoveryFailure,
    SchurMapsError,
    SerializationError,
    VerificationFailure,
)
from .numerics import DEFAULT_TOL, ToleranceProfile

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNVERIFIED = 3
EXIT_IO = 4
DECAY_EVERY_N = 1000  # evolve's decay table has a row for every n up to this


def _load_tol(path) -> ToleranceProfile:
    if path is None:
        return DEFAULT_TOL
    try:
        return ToleranceProfile(**serialize.load_json(path))
    except TypeError as exc:
        raise SerializationError(f"bad tolerance profile: {exc}") from exc


def _emit(args, obj, table_lines):
    if args.json:
        print(json.dumps(obj, indent=1))
    else:
        for line in table_lines:
            print(line)


def cmd_validate(args, tol: ToleranceProfile) -> int:
    from .decomposition import extremality_test

    xi = serialize.correlation_from_dict(serialize.load_json(args.xi), tol)
    ch = SchurChannel(xi)
    ext = extremality_test(xi)
    obj = {
        "valid": True,
        "dim": xi.dim,
        "complete": ch.complete,
        "extremality": ext.verdict.value,
        "rank": ext.rank,
    }
    _emit(
        args,
        obj,
        [
            f"valid correlation matrix, d = {xi.dim}",
            f"complete decoherence: {'yes' if ch.complete else 'no'}",
            f"extremality: {ext.verdict.value} (rank {ext.rank})",
        ],
    )
    return EXIT_OK


def cmd_evolve(args, tol: ToleranceProfile) -> int:
    xi = serialize.correlation_from_dict(serialize.load_json(args.xi), tol)
    rho = serialize.density_from_dict(serialize.load_json(args.rho), tol)
    ch = SchurChannel(xi)
    prefix = args.out or "evolve"
    k, l = np.triu_indices(xi.dim, 1)
    final = iterate(ch, rho, args.n)  # rejects a negative n before any file is written
    serialize.save_json(prefix + "_state.json", serialize.matrix_to_dict(final.matrix, "state"))
    csv_path = prefix + "_decay.csv"
    # |rho_kl(n)| of the written entries, read from the products iterate validates,
    # without validating each state; abs per scalar, since numpy's array abs can
    # differ in the last bit
    xi_t, rho_kl = xi.matrix.T[k, l], rho.matrix[k, l]
    serialize.write_csv(
        csv_path,
        ["n"] + [f"abs_rho_{a}_{b}" for a, b in zip(k, l)],
        ([n] + [abs(z) for z in np.power(xi_t, n) * rho_kl] for n in _decay_counts(args.n)),
    )
    print(f"wrote {prefix}_state.json and {csv_path}")
    return EXIT_OK


def _decay_counts(count: int):
    """The n of evolve's decay table: every n up to ``DECAY_EVERY_N``, then
    ``DECAY_EVERY_N * 2**j`` (j >= 1) below ``count``, then ``count`` itself, so
    any count that fits in a double takes at most 2,016 rows."""
    yield from range(min(count, DECAY_EVERY_N) + 1)
    n = 2 * DECAY_EVERY_N
    while n < count:
        yield n
        n *= 2
    if count > DECAY_EVERY_N:
        yield count


def cmd_decompose(args, tol: ToleranceProfile) -> int:
    from .decomposition import decompose, verify_decomposition

    xi = serialize.correlation_from_dict(serialize.load_json(args.xi), tol)
    dec = decompose(xi, args.seed)
    report = verify_decomposition(xi, dec)
    obj = {
        "decomposition": serialize.decomposition_to_dict(dec),
        "verification": dataclasses.asdict(report),
    }
    if args.out:
        serialize.save_json(args.out + "_decomposition.json", obj["decomposition"])
        serialize.save_json(args.out + "_verification.json", obj["verification"])
    _emit(
        args,
        obj,
        [
            f"terms: {dec.terms}",
            f"residual: {report.residual:.3e}",
            f"H(p): {report.shannon_entropy_bits:.6f} bits (base 2)",
            f"orthogonal family: {report.orthogonal_family}",
        ],
    )
    return EXIT_OK if report.accepted else EXIT_UNVERIFIED


def cmd_correct(args, tol: ToleranceProfile) -> int:
    from .correction import run_correction
    from .decomposition import decompose

    xi = serialize.correlation_from_dict(serialize.load_json(args.xi), tol)
    rho = serialize.density_from_dict(serialize.load_json(args.rho), tol)
    ch = SchurChannel(xi)
    if args.dec:
        dec = serialize.decomposition_from_dict(serialize.load_json(args.dec))
    else:
        dec = decompose(xi, args.seed)
    records, recovered = run_correction(ch, dec, rho)
    # the recovered state has unit trace: its residual is against rho over its trace
    residual = float(np.linalg.norm(recovered.matrix - rho.matrix / rho.matrix.trace().real))
    obj = {
        "outcomes": [
            {
                "index": r.outcome_index,
                "probability": r.probability,
                "conditional": serialize.matrix_to_dict(r.conditional_state.matrix, "state"),
                "corrected": serialize.matrix_to_dict(r.corrected_state.matrix, "state"),
            }
            for r in records
        ],
        "recovered": serialize.matrix_to_dict(recovered.matrix, "state"),
        "recovery_residual": residual,
    }
    if args.out:
        serialize.save_json(args.out + "_records.json", obj)
    _emit(
        args,
        obj,
        [f"outcome {r.outcome_index}: p = {r.probability:.6f}" for r in records]
        + [f"recovery residual: {residual:.3e}"],
    )
    return EXIT_OK


def cmd_eraser(args, tol: ToleranceProfile) -> int:
    from .correction import eraser_scenario, run_eraser, screen_pattern
    from .infometrics import shannon_entropy

    scenario = eraser_scenario(args.d)
    if args.state:
        rho = serialize.density_from_dict(serialize.load_json(args.state), tol)
    else:
        rho = DensityMatrix.pure(np.ones(args.d))
    records, recovered = run_eraser(scenario, rho)
    screens = {"input": rho, "decohered": asymptotic_state(rho), "corrected": recovered}
    patterns = {name: screen_pattern(s, args.samples) for name, s in screens.items()}
    prefix = args.out or "eraser"
    for name, p in patterns.items():
        rows = zip(p.thetas, p.intensities)
        serialize.write_csv(f"{prefix}_{name}.csv", ["theta", "intensity"], rows)
    probs = [r.probability for r in records]
    ledger = {
        "d": args.d,
        "entropy_base": 2,
        "info_stored_bits": scenario.info_stored_bits,
        "info_extracted_bits": scenario.info_extracted_bits,
        "outcome_probabilities": probs,
        "outcome_entropy_bits": shannon_entropy(probs, tol),
        **{f"visibility_{name}": p.visibility for name, p in patterns.items()},
    }
    serialize.save_json(prefix + "_ledger.json", ledger)
    print(
        f"wrote {prefix}_input.csv, {prefix}_decohered.csv, "
        f"{prefix}_corrected.csv, {prefix}_ledger.json"
    )
    return EXIT_OK


def cmd_bounds(args, tol: ToleranceProfile) -> int:
    from .infometrics import bounds_report

    xi = serialize.correlation_from_dict(serialize.load_json(args.xi), tol)
    ch = SchurChannel(xi)
    dec = None
    if args.dec:
        dec = serialize.decomposition_from_dict(serialize.load_json(args.dec))
    report = bounds_report(ch, dec)
    obj = {
        "entropy_base": 2,
        "s_xi_over_d_bits": report.s_xi_over_d,
        "two_log_rank_bits": report.two_log_rank,
        "rank": report.rank,
        "rank_threshold": report.rank_threshold,
        "h_p_bits": report.h_p,
        "lower_bound_satisfied": report.lower_bound_satisfied,
        "upper_bound_satisfied": report.upper_bound_satisfied,
    }
    lines = [
        "all entropies in bits (base 2)",
        f"S(xi/d)         = {report.s_xi_over_d:.6f}",
        f"2 log2 rank(xi) = {report.two_log_rank:.6f}  (rank {report.rank})",
    ]
    if report.h_p is not None:
        lines += [
            f"H(p)            = {report.h_p:.6f}",
            f"lower bound satisfied: {report.lower_bound_satisfied}",
            f"upper bound satisfied: {report.upper_bound_satisfied}",
        ]
    _emit(args, obj, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schurmaps")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--tol", default=None, help="tolerance profile JSON")
    parser.add_argument("--out", default=None, help="output path prefix")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a correlation matrix file")
    p.add_argument("xi")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("evolve", help="iterate a channel on a state")
    p.add_argument("xi")
    p.add_argument("rho")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("decompose", help="random-unitary decomposition of a channel")
    p.add_argument("xi")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("correct", help="environment-assisted correction loop")
    p.add_argument("xi")
    p.add_argument("rho")
    p.add_argument("--dec", default=None, help="decomposition JSON (default: compute)")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("eraser", help="d-dimensional quantum eraser run")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--state", default=None, help="input state JSON (default: flat pure)")
    p.add_argument("--samples", type=int, default=360)
    p.set_defaults(func=cmd_eraser)

    p = sub.add_parser("bounds", help="information-flow bounds report")
    p.add_argument("xi")
    p.add_argument("dec", nargs="?", default=None)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_tol(args.tol))
    except (SerializationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (VerificationFailure, RecoveryFailure, NoDecompositionFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNVERIFIED
    except SchurMapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:  # any failed allocation: most often a size no machine holds
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
