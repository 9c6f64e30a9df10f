"""schurmaps benchmark: four seeded, closed-loop, single-client workloads.

Run from the repository root:

    python3 perfbench/run.py --workload eraser-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, with every time scaled by a
reference timed between jobs (``refclock.py``), ``--trace 1`` the per-layer
metrics from spans around the benchmark's calls into schurmaps (the spans
go to ``perfbench/out/``). ``--smoke`` runs every workload at tiny sizes,
traced and untraced, and exits non-zero if any check fails. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin BLAS threads before numpy loads; children inherit the setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import refclock  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("eraser-sweep", "search-mixed", "small-stream", "cli-cold")
SETUP_REPEATS = 7
REF_WINDOW = 10  # reference samples on each side of a stretch of jobs that give its factor
IMPORT_REPEATS = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "schurmaps", "__init__.py")):
        fail("run from the repository root: src/schurmaps is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tracing
    import workloads
    return tracing, workloads


def declared_metrics():
    """``{trace: {name: unit}}`` for the metrics that BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((False, "end_to_end"), (True, "per_layer"))}


def make_workload(wl, name, seed, tiny):
    if name == "eraser-sweep":
        return wl.EraserSweep(seed, tiny)
    if name == "search-mixed":
        return wl.SearchMixed(seed, tiny)
    if name == "small-stream":
        return wl.SmallStream(seed, tiny)
    workdir = os.path.join(OUT, f"cli-{os.getpid()}")
    return wl.CliCold(seed, workdir, SRC, tiny)


def tail(latencies_ms, pct):
    """(latency at percentile ``pct``, number of jobs beyond it)."""
    n = len(latencies_ms)
    if n == 1:
        return latencies_ms[0], 0
    cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive")
    return cuts[pct - 1], n * (100 - pct) // 100


def run_rounds(workload, tracing_mod, seconds, traced, clock=None):
    """Run whole rounds until ``seconds`` have passed.

    Untraced runs time every round. Traced runs alternate untraced and
    traced rounds (at least one of each), so the same process yields the
    tracing overhead. With a ``clock`` (see ``refclock``), its reference
    is timed before the first job, then before a job whenever
    ``clock.EVERY_S`` have passed since the last sample, and after the last
    job; ``marks`` lists ``(index of the next job, sample)``.
    """
    plain = tracing_mod.NoTrace()
    tracer = tracing_mod.Tracer() if traced else None
    sides = {False: {"rounds": 0, "jobs": 0, "busy": 0.0},
             True: {"rounds": 0, "jobs": 0, "busy": 0.0}}
    latencies, kinds, failures, marks, job_id = [], [], [], [], 0
    jobs = workload.round()
    start = last_mark = time.perf_counter()
    if clock:
        marks.append((0, clock.sample()))
    round_no = 0
    while True:
        use_trace = traced and round_no % 2 == 1
        tr = tracer if use_trace else plain
        for job in jobs:
            if clock and time.perf_counter() - last_mark >= clock.EVERY_S:
                marks.append((job_id, clock.sample()))
                last_mark = time.perf_counter()
            tr.job = job_id
            t0 = time.perf_counter()
            try:
                result = job.run(tr)
                raised = None
            except Exception as exc:  # an unexpected library error fails the job
                raised = exc
            t1 = time.perf_counter()
            ok = False
            if raised is None:
                try:
                    ok = bool(job.check(result, tr))
                except Exception as exc:
                    raised = exc
            if not ok:
                failures.append((job_id, job.kind, job.d, repr(raised) if raised else "check"))
            latencies.append((t1 - t0) * 1e3)
            kinds.append((job.kind, job.d))
            sides[use_trace]["jobs"] += 1
            sides[use_trace]["busy"] += t1 - t0
            job_id += 1
        sides[use_trace]["rounds"] += 1
        round_no += 1
        if time.perf_counter() - start >= seconds and (not traced or round_no >= 2):
            break
        jobs = workload.round()
    if clock:
        marks.append((job_id, clock.sample()))
    return latencies, kinds, failures, sides, tracer, marks


def reference_ms(latencies, marks, clock):
    """Each job's wall time scaled by the median of the reference samples
    within ``REF_WINDOW`` samples of the stretch of jobs it belongs to (half
    a second on each side for the kernel, the whole run for processes)."""
    samples = [sample for _, sample in marks]
    scaled = []
    for i, ((first, _), (last, _)) in enumerate(zip(marks, marks[1:])):
        window = samples[max(0, i - REF_WINDOW + 1):i + REF_WINDOW + 1]
        factor = clock.scale(window)
        scaled.extend(ms * factor for ms in latencies[first:last])
    return scaled


def setup_children(name, seed, tiny, clock):
    """Wall time from spawning a fresh benchmark process to its first job,
    with the reference process (``clock``) timed before each spawn and
    after the last."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    for _ in range(SETUP_REPEATS):
        clock.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            fail(f"set-up child for {name} failed")
        times.append(elapsed)
    clock.sample()
    return times


def import_probe_ms(wl, code):
    """Median wall time of fresh ``python3 -c <code>`` processes, in ms."""
    env = wl.child_env(SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT)
        times.append((time.perf_counter() - t0) * 1e3)
        if proc.returncode != 0:
            fail(f"probe {code!r} failed")
    return statistics.median(times)


def environment():
    import numpy as np

    commit = "unknown"  # a checkout without .git (an exported tree) has no commit
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT).stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "schurmaps", "*.py"))):
        with open(path, "rb") as f:
            digest.update(f.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def measure(name, seed, seconds, traced, tiny=False):
    """One benchmark run; returns its summary, metrics included."""
    tracing_mod, wl = import_library()
    units = declared_metrics()[traced]
    clock = setup_clock = None
    if not traced:
        setup_clock = refclock.ProcessClock(wl.child_env(SRC), ROOT)
        setup_wall = setup_children(name, seed, tiny, setup_clock)
        clock = (refclock.ProcessClock(wl.child_env(SRC), ROOT) if name == "cli-cold"
                 else refclock.KernelClock())
    workload = make_workload(wl, name, seed, tiny)
    try:
        latencies, kinds, failures, sides, tracer, marks = run_rounds(
            workload, tracing_mod, seconds, traced, clock)
        # cli-cold reports the peak of its job processes, the others their own
        rss_kb = getattr(workload, "peak_rss_kb", None) or resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    finally:
        if hasattr(workload, "close"):
            workload.close()
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "attempted": len(latencies), "failed": len(failures), "failures": failures[:20],
        "environment": environment(),
    }
    os.makedirs(OUT, exist_ok=True)
    if traced:
        plain, with_trace = sides[False], sides[True]
        overhead = 1.0 - (with_trace["jobs"] / with_trace["busy"]) / (plain["jobs"] / plain["busy"])
        values = {
            "cli.import_ms": import_probe_ms(wl, "import schurmaps"),
            "cli.python_floor_ms": import_probe_ms(wl, "import numpy"),
            "trace.overhead_frac": overhead,
        }
        values.update(tracing_mod.layer_metrics(
            [n for n in units if n not in values], tracer.spans, tracer.counts,
            with_trace["rounds"]))
        trace_path = os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl")
        tracer.dump(trace_path)
        summary["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        ref = reference_ms(latencies, marks, clock)
        pct = workload.TAIL_PCT
        tail_ms, beyond = tail(ref, pct)
        setup = [t * setup_clock.scale(setup_clock.samples) for t in setup_wall]
        values = {
            "setup_s": statistics.median(setup),
            "throughput_jobs_s": len(ref) / (sum(ref) / 1e3),
            "job_p50_ms": statistics.median(ref),
            "job_tail_ms": tail_ms,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        wall_tail_ms, _ = tail(latencies, pct)
        summary.update(
            setup_samples_s=setup, tail_percentile=pct, tail_jobs_beyond=beyond,
            failed_frac=len(failures) / len(latencies),
            # the machine's speed during the run, and what it did to the raw figures
            reference_median_s={"setup": statistics.median(setup_clock.samples),
                                "run": statistics.median(clock.samples)},
            wall={"setup_s": statistics.median(setup_wall),
                  "throughput_jobs_s": len(latencies) / (sum(latencies) / 1e3),
                  "job_p50_ms": statistics.median(latencies), "job_tail_ms": wall_tail_ms})
    summary["metrics"] = {k: {"value": v, "unit": units.get(k)} for k, v in values.items()}
    summary["jobs"] = [[kind, d, round(ms, 4)] for (kind, d), ms in zip(kinds, latencies)]
    with open(os.path.join(OUT, f"run-{name}-seed{seed}-trace{int(traced)}.json"), "w") as f:
        json.dump(summary, f)
    return summary


def print_result(summary):
    for key in ("workload", "seed", "attempted", "failed", "tail_percentile",
                "tail_jobs_beyond", "setup_samples_s", "reference_median_s", "wall",
                "trace_file", "environment"):
        if key in summary:
            print(f"# {key}: {summary[key]}")
    for name, m in summary["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    if "failed_frac" in summary:  # 0 on a correct library, so in the JSON as failed/attempted
        print(f"{'failed_frac':45s} {summary['failed_frac']:.6g} frac")
    if summary["failures"]:
        print(f"# first failures: {summary['failures']}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))


def smoke():
    """Every workload at tiny size, untraced and traced; non-zero exit on any failure."""
    declared = declared_metrics()
    bad = 0
    for name in WORKLOADS:
        for traced in (False, True):
            summary = measure(name, 0, 0.0, traced, tiny=True)
            missing = set(declared[traced]) ^ set(summary["metrics"])
            status = "ok" if summary["failed"] == 0 and not missing else "FAIL"
            bad += status != "ok"
            print(f"smoke {name:13s} trace={int(traced)} jobs={summary['attempted']:4d} "
                  f"failed={summary['failed']} metric-mismatch={sorted(missing)} {status}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.smoke:
        import_library()
        sys.exit(smoke())
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_only:
        _, wl = import_library()
        workload = make_workload(wl, args.workload, args.seed, args.tiny)
        workload.round()
        print("ready", flush=True)
        if hasattr(workload, "close"):
            workload.close()
        return
    summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(summary)


if __name__ == "__main__":
    main()
