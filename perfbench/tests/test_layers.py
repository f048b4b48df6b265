import json
import subprocess
import sys

import pytest

from perfbench import layers
from perfbench.tests.conftest import ROOT


def span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end}


def test_self_time_subtracts_children():
    spans = [
        span(1, 0, "cli.main", 0.0, 10.0),
        span(2, 1, "simd.run", 1.0, 6.0),
        span(3, 2, "lazy.fetch", 2.0, 3.0),
        span(4, 3, "hashenc.find", 2.2, 2.7),
        span(5, 2, "lazy.fetch", 4.0, 4.5),
        span(6, 1, "stages.cache_store", 7.0, 8.0),
    ]
    selfs = layers.self_times(spans)
    assert selfs == pytest.approx({1: 4.0, 2: 3.5, 3: 0.5, 4: 0.5,
                                   5: 0.5, 6: 1.0})
    # Self times partition the root: together they are its duration.
    assert sum(selfs.values()) == pytest.approx(10.0)
    by = layers.by_layer(spans)
    assert by["lazy.fetch"] == (pytest.approx(1.0), 2)


def test_overlapping_children_are_covered_once():
    spans = [
        span(1, 0, "cli.main", 0.0, 10.0),
        span(2, 1, "a", 1.0, 4.0),
        span(3, 1, "b", 3.0, 6.0),     # overlaps a on [3, 4]
        span(4, 1, "c", 9.0, 12.0),    # runs past its parent's end
    ]
    assert layers.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_importtime_is_split_by_top_level_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core.multiarray",
        "import time:      2000 |       2100 | numpy",
        "import time:       300 |        300 |     repro.lang",
        "import time:       700 |       1000 |   repro",
        "something else",
    ])
    assert layers.parse_importtime(stderr) == pytest.approx(
        {"numpy": 2.1, "repro": 1.0})


def test_stage_metrics_come_from_the_report():
    report = {"stages": [
        {"name": "parse", "seconds": 0.010, "counters": {}},
        {"name": "sema", "seconds": 0.002, "counters": {}},
        {"name": "convert", "seconds": 0.5, "counters": {"meta_states": 7}},
        {"name": "encode", "seconds": 0.25,
         "counters": {"csi_cost": 110, "csi_lower_bound": 100,
                      "cu_instructions": 42}},
    ]}
    m = layers.stage_metrics(report)
    assert m["lang.parse_ms"] == pytest.approx(12.0)
    assert m["core.convert_ms"] == pytest.approx(500.0)
    assert m["codegen.plan_ms"] == 0.0
    assert m["core.meta_states"] == 7
    assert m["codegen.cu_instructions"] == 42
    assert m["csi.cost_over_bound"] == pytest.approx(1.1)


def test_traced_run_accounts_for_its_wall_time(tmp_path):
    src = tmp_path / "p.mimdc"
    src.write_text("main() { poly int x; x = procnum % 3;\n"
                   "  if (x) { x = x + 1; } else { x = x * 2; }\n"
                   "  return (x); }\n")
    out = tmp_path / "profile.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin",
           "REPRO_MSC_CACHE": str(tmp_path / "cache")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--out",
         str(out), "--", "run", str(src), "--npes", "16", "--cache-dir",
         str(tmp_path / "cache")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "backend: kernels" in proc.stdout
    profile = json.loads(out.read_text())
    names = {s["name"] for s in profile["spans"]}
    assert {"cli.main", "stages.cache_load", "stages.cache_store",
            "stage.encode", "csi.schedule", "hashenc.find",
            "simd.run"} <= names
    root = next(s for s in profile["spans"] if s["parent"] == 0)
    assert root["name"] == "cli.main"
    assert root["end"] - root["start"] == pytest.approx(profile["wall_s"],
                                                        rel=0.05)
    total = sum(s for s, _ in layers.by_layer(profile["spans"]).values())
    assert total == pytest.approx(root["end"] - root["start"])
    assert profile["counts"]["cache_misses"] == 1
    assert profile["counts"]["transitions"] > 0
    assert profile["fallbacks"] == 0


def profile(wall, run_end, fetches=0):
    spans = [span(1, 0, "cli.main", 0.0, wall),
             span(2, 1, "stages.cache_load", 0.0, 0.1),
             span(3, 1, "simd.run", 0.1, run_end)]
    for i in range(fetches):
        spans.append(span(4 + i, 3, "lazy.fetch", 0.2 + i, 0.7 + i))
    return {"wall_s": wall, "spans": spans, "fallbacks": 0,
            "counts": {"cache_hits": 1, "transitions": 10},
            "lazy": {"lazy_discovered": 5, "lazy_materialized": 3}}


def test_trace_metrics_report_every_layer_metric():
    report = {"stages": [{"name": "parse", "seconds": 0.01,
                          "counters": {}}]}
    metrics = layers.trace_metrics(
        startup={"startup.import_ms": 1.0, "startup.numpy_ms": 0.5,
                 "startup.repro_ms": 0.25},
        report=report, cold=profile(3.0, 2.5, fetches=2),
        warm=[profile(2.0, 1.9, fetches=1), profile(2.2, 2.0, fetches=1),
              profile(2.4, 2.3, fetches=1)],
        untraced_s=[1.9, 2.1, 2.0])
    assert list(metrics) == list(layers.UNITS)
    assert metrics["trace.wall_ms"] == pytest.approx(2200.0)
    assert metrics["trace.overhead_ms"] == pytest.approx(200.0)
    # simd.run self time excludes the lazy fetch inside it.
    assert metrics["simd.run_ms"] == pytest.approx(1400.0)
    assert metrics["cold.simd.run_ms"] == pytest.approx(1400.0)
    assert metrics["simd.us_per_transition"] == pytest.approx(140000.0)
    assert metrics["stages.cache_hits"] == 4
    assert metrics["lazy.discovered"] == 5
    assert metrics["lazy.fetches"] == 1
    assert metrics["cold.trace.wall_ms"] == pytest.approx(3000.0)
    assert layers.absent_reasons(metrics)["simd.native_load_ms"] == \
        "not a native run"
    assert "lazy.fetch_ms" not in layers.absent_reasons(metrics)
