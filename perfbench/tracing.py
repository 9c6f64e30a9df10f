"""Spans around the benchmark's calls into schurmaps, kept in memory.

A span is the tuple ``(name, start, end, job, d, terms, outcome)``: ``name``
is ``<layer>.<function>``, ``start``/``end`` come from ``time.perf_counter``,
``job`` is the id of the job that made the call, ``d`` the system dimension,
``terms`` the decomposition size where one is involved and ``outcome`` is
``"ok"`` or the name of the exception the call raised. Counts taken at the
same boundaries (outcome records, residuals, joint dimensions) are kept as
``(name, value, job, d)``. Nothing is written until :meth:`Tracer.dump`.
"""

import json
import statistics
import time


class NoTrace:
    """Calls straight through; used for the untraced (end-to-end) runs."""

    job = -1

    def call(self, name, fn, *args, d=0, terms=0):
        return fn(*args)

    def count(self, name, value, d=0):
        pass


class Tracer(NoTrace):
    def __init__(self):
        self.spans = []
        self.counts = []

    def call(self, name, fn, *args, d=0, terms=0):
        outcome = "ok"
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            outcome = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            if outcome == "ok":
                terms = getattr(result, "terms", terms)
            self.spans.append((name, start, end, self.job, d, terms, outcome))
        return result

    def count(self, name, value, d=0):
        self.counts.append((name, float(value), self.job, d))

    def dump(self, path):
        with open(path, "w") as f:
            for name, start, end, job, d, terms, outcome in self.spans:
                f.write(json.dumps({"span": name, "start": start, "end": end, "job": job,
                                    "d": d, "terms": terms, "outcome": outcome}) + "\n")
            for name, value, job, d in self.counts:
                f.write(json.dumps({"count": name, "value": value, "job": job, "d": d}) + "\n")


def _values(counts, name):
    return [v for n, v, _, _ in counts if n == name]


def layer_metrics(names, spans, counts, rounds):
    """Values of the per-layer metrics ``names``, derived from the trace of
    ``rounds`` traced rounds.

    ``<layer>.calls|busy_s|failed`` sum over every span of the layer,
    ``<layer>.<function>.busy_s`` over the spans of one function and
    ``cli.<sub>.p50_ms`` is the median of one subcommand's spans. Sums of
    spans and of work counts are per traced round, so a run that fits more
    rounds into its time does not report more work.
    """
    searches = [s for s in spans if s[0] == "decomposition.flat_search"]
    found = [s for s in searches if s[6] == "ok"]
    gaps = _values(counts, "decomposition.h_p_gap_bits")
    derived = {
        "dilation.joint_dim_sum": sum(_values(counts, "dilation.joint_dim")) / rounds,
        "correction.outcomes": sum(_values(counts, "correction.outcomes")) / rounds,
        "correction.max_recovery_residual": max(
            _values(counts, "correction.recovery_residual"), default=0.0),
        "decomposition.search_success_ratio": len(found) / len(searches) if searches else 0.0,
        "decomposition.terms_mean": statistics.fmean(s[5] for s in found) if found else 0.0,
        "decomposition.h_p_gap_bits_mean": statistics.fmean(gaps) if gaps else 0.0,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "p50_ms":
            lat = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == span]
            out[name] = statistics.median(lat) if lat else 0.0
            continue
        mine = [s for s in spans if s[0] == span or s[0].startswith(span + ".")]
        if stat == "calls":
            total = len(mine)
        elif stat == "busy_s":
            total = sum(s[2] - s[1] for s in mine)
        elif stat == "failed":
            total = sum(s[6] != "ok" for s in mine)
        else:
            raise ValueError(f"no rule derives per-layer metric {name!r} from the trace")
        out[name] = total / rounds
    return out
