"""Per-layer metrics from the spans of one traced pass.

Layers are the package modules.  Every ``*_s`` metric except
``setup.import_s`` and ``bench.*`` is a total over the pass of inclusive span
time (``read`` contains ``core.sequence``; ``certify`` contains the four
convexity legs); ``cli.self_s`` is the ``run_cli`` span minus the time its
direct children cover.  Counts are totals over the pass.
"""

from __future__ import annotations

import math
import statistics

from workloads import Job

GROWTH_KINDS = (
    "hull",
    "decompose",
    "epsilon",
    "check-subadd",
    "check-subadd-eps",
    "check-convex",
    "support",
    "spline",
    "spline-csv",
    "lagrange",
)

# metric name -> (unit, better)
PER_LAYER = {
    "setup.import_s": ("s", "lower"),
    "sequence_io.read_s": ("s", "lower"),
    "sequence_io.write_s": ("s", "lower"),
    "sequence_io.bytes_read": ("bytes", "lower"),
    "sequence_io.bytes_written": ("bytes", "lower"),
    "core.sequence_s": ("s", "lower"),
    "core.classify_s": ("s", "lower"),
    "convexity.certify_s": ("s", "lower"),
    "convexity.defining_s": ("s", "lower"),
    "convexity.slopes_s": ("s", "lower"),
    "convexity.support_sequence_s": ("s", "lower"),
    "convexity.verify_support_s": ("s", "lower"),
    "convexity.support_pairs": ("pairs-computed", "lower"),
    "convexity.disagreements": ("count", "lower"),
    "subadditivity.hull_s": ("s", "lower"),
    "subadditivity.epsilon_s": ("s", "lower"),
    "subadditivity.decompose_s": ("s", "lower"),
    "subadditivity.pairwise_s": ("s", "lower"),
    "subadditivity.hull_passes": ("calls/job", "lower"),
    "subadditivity.witness_parts": ("count", "lower"),
    "subadditivity.pairwise_violations": ("count", "lower"),
    "subadditivity.errors": ("count", "lower"),
    "interpolation.spline_s": ("s", "lower"),
    "interpolation.spline_calls": ("count", "lower"),
    "interpolation.lagrange_s": ("s", "lower"),
    "interpolation.poly_class_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    **{f"cli.bytes_growth_exp.{kind}": ("log-ratio", "lower") for kind in GROWTH_KINDS},
    "bench.trace_overhead_s": ("s", "lower"),
    "bench.span_residual_s": ("s", "lower"),
}

_TIMED_SPANS = {
    "sequence_io.read_s": ("sequence_io.read",),
    "sequence_io.write_s": ("sequence_io.write",),
    "core.sequence_s": ("core.sequence",),
    "core.classify_s": ("core.classify",),
    "convexity.certify_s": ("convexity.certify",),
    "convexity.defining_s": ("convexity.defining",),
    "convexity.slopes_s": ("convexity.slopes",),
    "convexity.support_sequence_s": ("convexity.support_sequence",),
    "convexity.verify_support_s": ("convexity.verify_support",),
    "subadditivity.hull_s": ("subadditivity.hull",),
    "subadditivity.epsilon_s": ("subadditivity.epsilon",),
    "subadditivity.decompose_s": ("subadditivity.decompose",),
    "subadditivity.pairwise_s": ("subadditivity.pairwise",),
    "interpolation.spline_s": ("interpolation.quadratic_piece", "interpolation.spline_eval"),
    "interpolation.lagrange_s": ("interpolation.lagrange",),
    "interpolation.poly_class_s": ("interpolation.poly_class",),
}

_HULL_CALLS = ("subadditivity.hull", "subadditivity.epsilon", "subadditivity.decompose")


def _self_time(spans: list, index: int) -> float:
    """Span duration minus the union of its direct children's intervals."""
    _, start, end, _, _ = spans[index]
    covered = 0.0
    cursor = start
    for child in sorted((s for s in spans if s[3] == index), key=lambda s: s[1]):
        lo, hi = max(child[1], cursor), min(child[2], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def growth_exponents(jobs: list[Job], stdout_bytes: list[int], usable: list[bool]) -> dict[str, float]:
    """Per job kind, log(bytes ratio) / log(N ratio) between its two largest input lengths.

    Sizes are compared within one family and output format: the group whose
    largest N is largest and, among those, whose report there is largest
    (the worst case).  For the large workloads that is log2(bytes at N=2000
    / bytes at N=1000).  A kind with no such pair in the workload reports 0.
    """
    groups: dict[tuple, dict[int, int]] = {}
    for job, size, ok in zip(jobs, stdout_bytes, usable):
        if ok and size > 0:
            groups.setdefault((job.kind, job.input.family, job.out_format), {})[job.n] = size
    out = {}
    for kind in GROWTH_KINDS:
        best = None
        for (k, _, _), by_n in groups.items():
            if k != kind or len(by_n) < 2:
                continue
            top = sorted(by_n)[-2:]
            rank = (top[1], by_n[top[1]])
            if best is None or rank > best[0]:
                best = (rank, top, by_n)
        if best is None:
            out[kind] = 0.0
        else:
            _, (lo, hi), by_n = best
            out[kind] = math.log(by_n[hi] / by_n[lo]) / math.log(hi / lo)
    return out


def per_layer(
    jobs: list[Job],
    traces: list[dict],
    walls: list[float],
    stdout_bytes: list[int],
    usable: list[bool],
    traced_wall: float,
    untraced_wall: float,
    interp_start: float,
) -> dict[str, float]:
    totals = {name: 0.0 for name in _TIMED_SPANS}
    counts = {
        "sequence_io.bytes_read": 0,
        "sequence_io.bytes_written": 0,
        "convexity.support_pairs": 0,
        "convexity.disagreements": 0,
        "subadditivity.witness_parts": 0,
        "subadditivity.pairwise_violations": 0,
        "subadditivity.errors": 0,
        "interpolation.spline_calls": 0,
    }
    imports, residuals, hull_calls = [], [], []
    cli_self = 0.0
    span_to_metric = {span: metric for metric, names in _TIMED_SPANS.items() for span in names}
    for trace, wall in zip(traces, walls):
        spans = trace["spans"]
        covered = 0.0
        calls = 0
        for index, (name, start, end, parent, extra) in enumerate(spans):
            extra = extra or {}
            if name in span_to_metric:
                totals[span_to_metric[name]] += end - start
            if name == "import":
                imports.append(end - start)
                covered += end - start
            elif name == "run_cli":
                covered += end - start
                cli_self += _self_time(spans, index)
            elif name == "sequence_io.read":
                counts["sequence_io.bytes_read"] += extra.get("bytes", 0)
            elif name == "sequence_io.write":
                counts["sequence_io.bytes_written"] += extra.get("bytes", 0)
            elif name == "convexity.verify_support":
                counts["convexity.support_pairs"] += extra.get("pairs", 0)
            elif name == "convexity.certify" and extra.get("error") == "RuntimeError":
                counts["convexity.disagreements"] += 1
            elif name == "subadditivity.pairwise":
                counts["subadditivity.pairwise_violations"] += extra.get("violations", 0)
            elif name in ("interpolation.quadratic_piece", "interpolation.spline_eval"):
                counts["interpolation.spline_calls"] += 1
            if name == "subadditivity.hull":
                counts["subadditivity.witness_parts"] += extra.get("witness_parts", 0)
            if name in _HULL_CALLS:
                calls += 1
            if name.startswith("subadditivity.") and "error" in extra:
                counts["subadditivity.errors"] += 1
        if calls:
            hull_calls.append(calls)
        residuals.append(wall - covered - interp_start)
    metrics = dict(totals)
    metrics.update(counts)
    metrics["setup.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["subadditivity.hull_passes"] = statistics.mean(hull_calls) if hull_calls else 0.0
    metrics["cli.self_s"] = cli_self
    metrics["cli.stdout_bytes"] = sum(stdout_bytes)
    for kind, value in growth_exponents(jobs, stdout_bytes, usable).items():
        metrics[f"cli.bytes_growth_exp.{kind}"] = value
    metrics["bench.trace_overhead_s"] = traced_wall - untraced_wall
    metrics["bench.span_residual_s"] = statistics.median(residuals) if residuals else 0.0
    return {name: metrics[name] for name in PER_LAYER}
