"""Per-layer metrics from the spans and counters of the traced passes.

Counts and self times are per traced pass (totals divided by the number of
traced passes), so ``*.calls`` and the counters repeat exactly from run to
run.  Rates divide a total amount of work by the total inclusive time of the
spans that did it.  A layer a workload does not exercise reports 0.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import self_times

# layer of a span name: its first dotted component
LAYERS = ("bench", "cli", "bounds", "verify", "stein", "matcore", "lapack")

FUZZ_SUITES = ("pmvti", "emvti", "young_commuting", "operator_cs",
               "matrix_entropy_young", "conjecture")
KERNEL_SIZES = (32, 64, 128)
COUPLING_NS = (2, 3, 5, 8)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def per_layer(runner, tracer) -> tuple:
    """Return (metrics, problems) for the traced passes of ``runner``."""
    spans = tracer.spans
    counts = tracer.counts
    traced = [p for p in runner.passes if p["kind"] == "traced"]
    untraced = [p for p in runner.passes if p["kind"] == "untraced"]
    npass = len(traced)
    selfs, overlap = self_times(spans)

    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    by_name = defaultdict(list)
    for rec, own in zip(spans, selfs):
        name = rec[0]
        calls[name] += 1
        self_s[name] += own
        incl[name] += rec[2] - rec[1]
        by_name[name].append(rec)

    def per_pass(x: float) -> float:
        return x / npass

    def self_prefix(*prefixes) -> float:
        return per_pass(sum(v for k, v in self_s.items() if k.startswith(prefixes)))

    def attr_sum(name: str, key: str) -> float:
        return sum((rec[5] or {}).get(key) or 0 for rec in by_name[name])

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    # matcore and LAPACK
    for key in ("hermitian_init", "matrix_function", "eigh_canonical", "superop",
                "schatten_norm"):
        put(f"matcore.{key}.calls", per_pass(calls[f"matcore.{key}"]), "count")
        put(f"matcore.{key}.self_s", per_pass(self_s[f"matcore.{key}"]), "s")
    put("lapack.eig_calls", per_pass(calls["lapack.eig"]), "count")
    put("lapack.svd_calls", per_pass(calls["lapack.svd"]), "count")

    # verify: fuzz suites, exact checks, tails, replay
    for suite in FUZZ_SUITES:
        name = f"verify.fuzz.{suite}"
        put(f"{name}.trials_per_s", _rate(attr_sum(name, "trials"), incl[name]), "1/s")
    put("verify.fuzz.self_s", self_prefix("verify.fuzz."), "s")
    for short in ("poly_es", "exp_es", "kernel_poly"):
        name = f"verify.exact.{short}"
        put(f"{name}.us_per_outcome",
            1e6 * _rate(incl[name], attr_sum(name, "S")), "us")
    put("verify.tail.samples_per_s",
        _rate(attr_sum("verify.tail", "samples"), incl["verify.tail"]), "1/s")
    put("verify.tail.self_s", self_prefix("verify.tail"), "s")
    put("verify.replay.self_s", self_prefix("verify.replay"), "s")

    # stein
    for S in KERNEL_SIZES:
        recs = [r for r in by_name["stein.exact_kernel"]
                if r[5]["S"] == S and r[5]["model"].startswith("hypercube_sum")]
        put(f"stein.exact_kernel.s.S{S}",
            statistics.mean(r[2] - r[1] for r in recs) if recs else 0.0, "s")
    put("stein.exact_kernel.iterations",
        per_pass(counts["stein.exact_kernel.iterations"]), "count")
    put("stein.exact_kernel.table_mb",
        counts["stein.exact_kernel.table_bytes_max"] / 1e6, "MB")
    put("stein.outcomes_enumerated", per_pass(counts["stein.outcomes"]), "count")
    put("stein.H.calls", per_pass(counts["stein.H.calls"]), "count")
    put("stein.H.cache_hit_frac",
        _rate(counts["stein.H.hits"], counts["stein.H.calls"]), "frac")
    put("stein.variance_proxy.calls", per_pass(calls["stein.variance_proxy"]), "count")
    put("stein.variance_proxy.self_s", per_pass(self_s["stein.variance_proxy"]), "s")
    put("stein.conditional_variances.self_s",
        per_pass(self_s["stein.conditional_variances"]), "s")
    for n in COUPLING_NS:
        recs = [r for r in by_name["stein.coupling_times"] if r[5]["n"] == n]
        put(f"stein.coupling_times.runs_per_s.n{n}",
            _rate(sum(r[5]["runs"] for r in recs), sum(r[2] - r[1] for r in recs)),
            "1/s")
    put("stein.pathwise.self_s", per_pass(self_s["stein.pathwise"]), "s")
    put("stein.sample_X.samples_per_s",
        _rate(attr_sum("stein.sample_X", "count"), incl["stein.sample_X"]), "1/s")
    put("stein.mean.self_s", per_pass(self_s["stein.mean"]), "s")
    put("stein.estimated_kernel.self_s", per_pass(self_s["stein.estimated_kernel"]), "s")

    # cli and bounds
    put("cli.self_s", per_pass(self_s["cli.main"]), "s")
    report_bytes = sum(i.get("bytes", 0) for infos in runner.info.values()
                       for i in infos[-npass:])
    put("cli.report_bytes", per_pass(report_bytes), "bytes")
    fuzz_time = defaultdict(float)
    for p in traced:
        for job, t in p["times"].items():
            jobs_n = runner.job_meta.get(job, {}).get("jobs")
            if jobs_n:
                fuzz_time[jobs_n] += t
    put("cli.fuzz.jobs2_over_jobs1", _rate(fuzz_time[2], fuzz_time[1]), "ratio")
    put("bounds.curve_points_per_s",
        _rate(calls["bounds.curve_point"], incl["bounds.curve_point"]), "1/s")
    put("bounds.self_s", self_prefix("bounds."), "s")

    wall_t = statistics.median(p["wall_s"] for p in traced)
    wall_u = statistics.median(p["wall_s"] for p in untraced)
    put("trace.overhead_frac", wall_t / wall_u - 1.0, "frac")

    # Self times of all spans add up to the job (root) spans plus the time
    # worker threads overlapped; anything else means a lost or orphan span.
    problems = []
    roots = sum(r[2] - r[1] for r in spans if r[3] is None)
    total_wall = sum(p["raw_wall_s"] for p in traced)
    layer_self = {layer: per_pass(sum(v for k, v in self_s.items()
                                      if k.split(".")[0] == layer)) for layer in LAYERS}
    if any(r[3] is None and r[0] != "bench.job" for r in spans):
        problems.append("trace has spans outside any job")
    if abs(sum(selfs) - overlap - total_wall) > 1e-6 * max(total_wall, 1.0) or \
            abs(roots - total_wall) > 1e-6 * max(total_wall, 1.0):
        problems.append(f"layer self times {sum(selfs) - overlap!r} do not add up "
                        f"to the traced wall time {total_wall!r}")
    runner.info["_layers"] = [{"self_s_per_pass": layer_self,
                               "thread_overlap_s": per_pass(overlap),
                               "spans": len(spans)}]
    return m, problems
