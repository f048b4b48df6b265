import json
import sys

import pytest

from perfbench import invoke, layers, run
from perfbench.tests.conftest import ROOT
from perfbench.workloads import WORKLOADS

GOOD_LINES = {
    "returns": "[1. 2.]",
    "cycles": "10 (body 8, transitions 2)",
    "utilization": "50.0%",
    "meta transitions": "3",
    "backend": "kernels (shards 1)",
}


def fake_child(tmp_path, *, backend="kernels", exit_code=0, cache="miss",
               stderr=""):
    """argv of a child that prints ``repro run``-shaped output, writes a
    stage report, and exits with ``exit_code``."""
    script = tmp_path / f"fake{len(list(tmp_path.glob('fake*')))}.py"
    script.write_text(
        "import json, sys\n"
        "print('returns: [1. 2.]')\n"
        "print('cycles: 10 (body 8, transitions 2)')\n"
        "print('utilization: 50.0%; meta transitions: 3')\n"
        f"print('backend: {backend} (shards 1)')\n"
        f"sys.stderr.write({stderr!r})\n"
        f"json.dump({{'cache': {cache!r}}}, open(sys.argv[1], 'w'))\n"
        f"sys.exit({exit_code})\n")
    return [sys.executable, str(script)]


@pytest.fixture
def collatz_run(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    bench = run.Run(WORKLOADS["collatz-kernels"], 0, work)
    bench.reference = dict(GOOD_LINES)
    return bench


def timed(bench, argv, state="miss"):
    return bench.record(bench.invoke([*argv, str(bench.report)],
                                   bench.work / "cache", state))


def test_parse_run_output_splits_the_utilization_line():
    out = ("returns: [1. 2.]\ncycles: 10 (body 8, transitions 2)\n"
           "utilization: 50.0%; meta transitions: 3\n"
           "backend: native (shards 1)\ncheck: SIMD == MIMD reference\n")
    lines = invoke.parse_run_output(out)
    assert lines["utilization"] == "50.0%"
    assert lines["meta transitions"] == "3"
    assert invoke.backend_of(lines) == "native"
    assert invoke.cycles_of(lines) == 10
    assert lines["check"] == "SIMD == MIMD reference"


def test_failures_count_in_the_error_rate(collatz_run, tmp_path):
    bench = collatz_run
    good = timed(bench, fake_child(tmp_path))
    crashed = timed(bench, fake_child(tmp_path, exit_code=2))
    wrong_backend = timed(bench, fake_child(tmp_path, backend="plan"))
    fell_back = timed(bench, fake_child(
        tmp_path, stderr="x.py:1: RuntimeWarning: running 'plan'\n"))
    warm_miss = timed(bench, fake_child(tmp_path), state="hit")
    bench.finish()
    assert not good.failed
    assert crashed.errors == ["exit 2: "]
    assert any("backend 'plan'" in e for e in wrong_backend.errors)
    # The wrong backend line also differs from the checked output.
    assert any(e.startswith("backend:") for e in wrong_backend.errors)
    assert fell_back.errors == ["fallback RuntimeWarning on stderr"]
    assert warm_miss.errors == ["compile cache miss, expected hit"]
    result = run.end_to_end(bench, [good, crashed],
                            [wrong_backend, fell_back, warm_miss], [good])
    assert bench.counts() == (5, 4)
    assert result["metrics"]["success_rate"] == pytest.approx(1 / 5)
    assert result["metrics"]["sim_cycles"] == 10


def test_changed_output_fails_against_the_reference(collatz_run, tmp_path):
    bench = collatz_run
    bench.reference = dict(GOOD_LINES, cycles="11 (body 9, transitions 2)")
    inv = timed(bench, fake_child(tmp_path))
    bench.finish()
    assert [e.split(":")[0] for e in inv.errors] == ["cycles"]


def test_native_library_expectations():
    ok = invoke.Invocation(1.0, 1.0, 0,
                           "backend: native (shards 1)\n", "")
    report = ROOT / "nonexistent-report.json"
    invoke.check_invocation(ok, backend="native", cache_state="miss",
                            report_path=report, so_count=1, so_before={},
                            so_after={"a.so": 1})
    assert ok.errors[0].startswith("compile cache unreadable report")
    stale = invoke.Invocation(1.0, 1.0, 0, "backend: native (shards 1)\n",
                              "")
    invoke.check_invocation(stale, backend="native", cache_state="miss",
                            report_path=report, so_count=1,
                            so_before={"a.so": 1}, so_after={"a.so": 2})
    assert "native library rebuilt" in stale.errors
    missing = invoke.Invocation(1.0, 1.0, 0, "backend: native (shards 1)\n",
                                "")
    invoke.check_invocation(missing, backend="native", cache_state="miss",
                            report_path=report, so_count=1, so_before={},
                            so_after={})
    assert "0 native libraries, expected 1" in missing.errors


def test_child_env_pins_the_program_and_its_caches(monkeypatch, tmp_path):
    for name in invoke.DROPPED_ENV:
        monkeypatch.setenv(name, "1")
    env = invoke.child_env(ROOT, tmp_path)
    assert not set(invoke.DROPPED_ENV) - {"REPRO_MSC_CACHE"} & set(env)
    assert env["REPRO_MSC_CACHE"] == str(tmp_path)
    assert env["PYTHONPATH"].split(":")[0] == str(ROOT / "src")


def test_seed_picks_data_constants_only():
    for workload in WORKLOADS.values():
        assert workload.source(3) == workload.source(3)
    for name in ("sort-native", "walks-lazy"):
        sources = {WORKLOADS[name].source(seed) for seed in range(16)}
        assert len(sources) > 1
        assert len({len(s.splitlines()) for s in sources}) == 1


def test_sort_expectation_matches_the_program():
    from repro import convert_source, simulate_simd

    sort = WORKLOADS["sort-native"]
    result = convert_source(sort.source(5), None, cache=False)
    simd = simulate_simd(result, npes=sort.npes, backend="kernels")
    assert simd.returns.tolist() == sort.expected_returns(5)


def test_a_wrong_middle_return_value_fails():
    expected = WORKLOADS["sort-native"].expected_returns(5)
    good = invoke.Invocation(1.0, 1.0, 0, "", "")
    run.check_returns(good, list(expected), expected)
    assert not good.failed
    middle = len(expected) // 2
    bad = invoke.Invocation(1.0, 1.0, 0, "", "")
    run.check_returns(bad, [*expected[:middle], -1.0,
                            *expected[middle + 1:]], expected)
    assert bad.errors == [f"returns: 1 PEs differ from the expected values "
                          f"(PE {middle}: -1.0, expected "
                          f"{expected[middle]!r})"]
    short = invoke.Invocation(1.0, 1.0, 0, "", "")
    run.check_returns(short, expected[:-1], expected)
    assert short.failed


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "sort-native", "--seed", "1",
                     "--seconds", "1"]) == 2


def test_yardstick_checksum_must_repeat(collatz_run):
    first = collatz_run.yardstick()
    assert not first.failed
    assert collatz_run.yardstick_digest
    collatz_run.yardstick_digest = "0" * 16
    changed = collatz_run.yardstick()
    assert changed.errors == [
        f"yardstick checksum {first.lines['yardstick']!r}, expected "
        f"{'0' * 16!r}"]
