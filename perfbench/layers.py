"""Per-layer metrics from the traced run's spans and stage reports.

A layer's self time is its spans' duration minus the part of each
interval covered by its child spans, so the self times of one
invocation add up to its root span (``cli.main``), which is the
in-process wall time; the root's own self time is what no layer
claims.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench import stats

ROOT_SPAN = "cli.main"

#: ``repro`` stage-report rows behind each compile-stage metric.
STAGE_METRICS = {
    "lang.parse_ms": ("parse", "sema"),
    "ir.lower_ms": ("lower",),
    "opt.cfg_ms": ("opt-cfg",),
    "opt.meta_ms": ("opt-meta",),
    "core.convert_ms": ("convert",),
    "codegen.encode_ms": ("encode",),
    "codegen.plan_ms": ("plan",),
    "codegen.kernels_ms": ("kernels",),
    "codegen.native_ms": ("native",),
}

#: Size counters of the cold compile: metric -> (stage, counter).
SIZE_METRICS = {
    "core.meta_states": ("convert", "meta_states"),
    "codegen.cu_instructions": ("encode", "cu_instructions"),
    "codegen.kernel_bytes": ("kernels", "kernel_bytes"),
    "codegen.native_bytes": ("native", "native_bytes"),
}

#: Span self times, each the median over the traced warm invocations:
#: metric -> span name.
SPAN_METRICS = {
    "stages.cache_load_ms": "stages.cache_load",
    "stages.cache_store_ms": "stages.cache_store",
    "csi.schedule_ms": "csi.schedule",
    "hashenc.find_ms": "hashenc.find",
    "lazy.fetch_ms": "lazy.fetch",
    "codegen.kernel_compile_ms": "codegen.kernel_compile",
    "simd.run_ms": "simd.run",
    "simd.native_load_ms": "simd.native_load",
    "trace.unattributed_ms": ROOT_SPAN,
}

#: Call counts of spans, reported like :data:`SPAN_METRICS`.
CALL_METRICS = {
    "hashenc.find_calls": "hashenc.find",
    "lazy.fetches": "lazy.fetch",
}

#: Metrics also reported for the cold invocation, with a ``cold.``
#: prefix: the layers every workload's cold path goes through.
COLD_TOO = ("stages.cache_store_ms", "csi.schedule_ms", "hashenc.find_ms",
            "hashenc.find_calls", "simd.run_ms", "trace.unattributed_ms",
            "trace.wall_ms")

#: Every per-layer metric with its unit, in report order.
UNITS = {
    "startup.import_ms": "ms",
    "startup.numpy_ms": "ms",
    "startup.repro_ms": "ms",
    **{name: "ms" for name in STAGE_METRICS},
    **{name: "count" for name in SIZE_METRICS},
    "stages.cache_bytes": "bytes",
    "stages.cache_hits": "count",
    "stages.cache_misses": "count",
    "csi.cost_over_bound": "ratio",
    "lazy.discovered": "count",
    "lazy.materialized": "count",
    "simd.us_per_transition": "us",
    "simd.native_build_ms": "ms",
    "simd.native_builds": "count",
    "simd.fallbacks": "count",
    **{name: "ms" for name in SPAN_METRICS},
    **{name: "count" for name in CALL_METRICS},
    "simd.transitions": "count",
    "trace.wall_ms": "ms",
    "trace.untraced_wall_ms": "ms",
    "trace.overhead_ms": "ms",
}
UNITS.update({"cold." + name: UNITS[name] for name in COLD_TOO})


def self_times(spans: list) -> dict:
    """``span id -> self seconds``: each span's duration minus the union
    of its children's intervals (clipped to the span)."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered, reach = 0.0, lo
        for child in sorted(children[span["id"]], key=lambda s: s["start"]):
            start, end = max(child["start"], reach), min(child["end"], hi)
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = (hi - lo) - covered
    return out


def by_layer(spans: list) -> dict:
    """``span name -> (self seconds, calls)`` summed over the spans."""
    selfs = self_times(spans)
    totals: dict = defaultdict(lambda: [0.0, 0])
    for span in spans:
        totals[span["name"]][0] += selfs[span["id"]]
        totals[span["name"]][1] += 1
    return {name: (s, n) for name, (s, n) in totals.items()}


def invocation_metrics(profile: dict) -> dict:
    """The span and count metrics of one traced invocation."""
    layers = by_layer(profile["spans"])
    out = {metric: 1000.0 * layers.get(span, (0.0, 0))[0]
           for metric, span in SPAN_METRICS.items()}
    out.update({metric: layers.get(span, (0.0, 0))[1]
                for metric, span in CALL_METRICS.items()})
    out["simd.transitions"] = profile["counts"].get("transitions", 0)
    out["trace.wall_ms"] = 1000.0 * profile["wall_s"]
    return out


def stage_metrics(report: dict) -> dict:
    """Compile-stage times and sizes from a cold stage report."""
    rows = {row["name"]: row for row in report["stages"]}
    out = {metric: 1000.0 * sum(rows[name]["seconds"] for name in names
                                if name in rows)
           for metric, names in STAGE_METRICS.items()}
    for metric, (stage, counter) in SIZE_METRICS.items():
        out[metric] = rows.get(stage, {}).get("counters", {}).get(counter, 0)
    encode = rows.get("encode", {}).get("counters", {})
    bound = encode.get("csi_lower_bound", 0)
    out["csi.cost_over_bound"] = (encode["csi_cost"] / bound
                                  if bound else 0.0)
    return out


#: Why a metric reads 0 where its layer is not on a workload's path.
ABSENT = {
    "csi.cost_over_bound": "lazy compiles have no encode stage",
    "stages.cache_store_ms": "warm eager runs store nothing",
    "csi.schedule_ms": "warm eager runs compile nothing",
    "hashenc.find_ms": "warm eager runs compile nothing",
    "hashenc.find_calls": "warm eager runs compile nothing",
    "lazy.fetch_ms": "not a lazy run",
    "lazy.fetches": "not a lazy run",
    "lazy.discovered": "not a lazy run",
    "lazy.materialized": "not a lazy run",
    "codegen.kernel_compile_ms": "no whole-program kernel module runs",
    "simd.native_load_ms": "not a native run",
    "simd.native_build_ms": "not a native run",
    "simd.native_builds": "not a native run",
}


def absent_reasons(metrics: dict) -> dict:
    """``metric -> why it reads 0`` for the metrics of :data:`ABSENT`
    that do."""
    return {name: why for name, why in ABSENT.items() if not metrics[name]}


def trace_metrics(*, startup: dict, report: dict, cold: dict,
                  warm: list, untraced_s: list) -> dict:
    """Every per-layer metric in :data:`UNITS` from the traced run:
    ``startup`` (``startup.*`` values), the cold stage ``report``, the
    cold and warm traced profiles, and the untraced warm wall times."""
    out = dict(startup)
    out.update(stage_metrics(report))
    cold_m = invocation_metrics(cold)
    warm_m = [invocation_metrics(p) for p in warm]
    for name in (*SPAN_METRICS, *CALL_METRICS, "simd.transitions",
                 "trace.wall_ms"):
        out[name] = stats.median(m[name] for m in warm_m)
    for name in COLD_TOO:
        out["cold." + name] = cold_m[name]
    everything = [cold, *warm]
    counts = [p["counts"] for p in everything]
    out["stages.cache_hits"] = sum(c.get("cache_hits", 0) for c in counts)
    out["stages.cache_misses"] = sum(c.get("cache_misses", 0)
                                     for c in counts)
    out["stages.cache_bytes"] = max(c.get("cache_bytes", 0) for c in counts)
    lazy = warm[-1].get("lazy") or {}
    out["lazy.discovered"] = lazy.get("lazy_discovered", 0)
    out["lazy.materialized"] = lazy.get("lazy_materialized", 0)
    transitions = out["simd.transitions"]
    out["simd.us_per_transition"] = (1000.0 * out["simd.run_ms"]
                                     / transitions if transitions else 0.0)
    out["simd.native_build_ms"] = 1000.0 * by_layer(cold["spans"]).get(
        "simd.native_build", (0.0, 0))[0]
    out["simd.native_builds"] = sum(c.get("native_builds", 0)
                                    for c in counts)
    out["simd.fallbacks"] = sum(p["fallbacks"] for p in everything)
    out["trace.untraced_wall_ms"] = 1000.0 * stats.median(untraced_s)
    out["trace.overhead_ms"] = (out["trace.wall_ms"]
                                - out["trace.untraced_wall_ms"])
    return {name: out[name] for name in UNITS}


def breakdown(profile: dict) -> list:
    """``(span name, self ms, calls)`` rows of one invocation, largest
    first: the account of its in-process wall time."""
    rows = [(name, 1000.0 * s, n)
            for name, (s, n) in by_layer(profile["spans"]).items()]
    return sorted(rows, key=lambda row: -row[1])


def parse_importtime(stderr: str) -> dict:
    """Self time (ms) per top-level package from ``-X importtime``."""
    out: dict = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        out[package] += int(fields[0]) / 1000.0
    return dict(out)
