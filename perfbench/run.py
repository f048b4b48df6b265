"""The repository benchmark: wall time of ``python -m repro run``, cold
and warm, with a traced run that splits it by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sort-native --seed 1 \\
        --seconds 25 --trace 0

The unit of work is one ``python -m repro run`` child, timed from
outside. One benchmark process runs the children one at a time: a closed
loop with a single client. A run

1. writes the workload's source for ``--seed`` and imports the program
   once, untimed, so every child starts with compiled bytecode;
2. runs one untimed ``--check`` invocation, which must print
   ``check: SIMD == MIMD reference``, and takes its output as the
   reference; where the check runs at fewer PEs than measured, the
   reference is instead an untimed full-size in-process invocation
   whose every return value must equal the workload's expected ones;
3. with ``--trace 0``: for ``--seconds``, times cold invocations, each
   with an empty compile cache and an empty native-library cache
   (``setup_s`` is their median), and in turn with them the yardstick
   (``perfbench/yardstick.py``) and a warm invocation on the first
   one's caches (``run_vs_yardstick`` is the median over these pairs of
   the warm time over the yardstick's);
4. with ``--trace 1``: measures interpreter start-up and import, then
   runs ``repro`` in-process (``perfbench/tracer.py``) once cold with
   spans, then alternately warm with and without spans for
   ``--seconds``, and reports the per-layer metrics.

Every invocation is checked (see :mod:`perfbench.invoke`); the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:   # run as a script: python3 perfbench/run.py
    sys.path.insert(0, str(ROOT))

from perfbench import invoke, layers, stats  # noqa: E402

#: Fewest timed cold invocations, and fewest yardstick-and-warm pairs,
#: per ``--trace 0`` run, however short ``--seconds``.
MIN_TIMED = 5

#: Fewest traced (and untraced) warm in-process runs per traced run.
MIN_TRACED = 3

#: Interpreter start-up samples of each kind per traced run.
STARTUP_SAMPLES = 5

#: ``--max-steps`` of the oracle check: the MIMD reference counts one
#: step per PE per block, far past the default on the sort workload.
CHECK_MAX_STEPS = "100000000"

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_vs_yardstick": "ratio",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "success_rate": "ratio",
}


class Run:
    """One benchmark run of one workload: its files, its invocations,
    and the reference output they are checked against."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.prog = work / "prog.mimdc"
        self.prog.write_text(workload.source(seed))
        self.report = work / "report.json"
        self.invocations: list = []
        self.timed: list = []
        self.reference: dict | None = None
        self.yardstick_digest: str | None = None
        self._caches = 0

    def fresh_cache(self) -> Path:
        self._caches += 1
        return self.work / f"cache{self._caches}"

    def cli(self, cache_dir: Path, npes: int | None = None,
            extra: tuple = ()) -> list:
        return ["run", str(self.prog),
                "--npes", str(npes or self.workload.npes),
                *self.workload.flags, "--cache-dir", str(cache_dir),
                "--report-json", str(self.report), *extra]

    def invoke(self, argv: list, cache_dir: Path, cache_state: str):
        """Spawn ``argv`` with its caches in ``cache_dir`` and check it
        against the workload's expectations."""
        before = invoke.so_snapshot(cache_dir)
        self.report.unlink(missing_ok=True)
        inv = invoke.spawn(argv, invoke.child_env(ROOT, cache_dir),
                           self.work)
        invoke.check_invocation(
            inv, backend=self.workload.backend, cache_state=cache_state,
            report_path=self.report,
            so_count=int(self.workload.backend == "native"),
            so_before=before,
            so_after=invoke.so_snapshot(cache_dir))
        self.invocations.append(inv)
        return inv

    def repro(self, cache_dir: Path, cache_state: str, **cli):
        return self.invoke([sys.executable, "-m", "repro",
                            *self.cli(cache_dir, **cli)],
                           cache_dir, cache_state)

    def in_process(self, cache_dir: Path, cache_state: str, out: Path,
                   traced: bool):
        argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                "--out", str(out)]
        if not traced:
            argv.append("--no-trace")
        return self.invoke([*argv, "--", *self.cli(cache_dir)], cache_dir,
                           cache_state)

    def yardstick(self):
        """One run of the fixed host-speed task; its checksum must match
        the first one's."""
        inv = self.python(str(ROOT / "perfbench" / "yardstick.py"))
        digest = inv.lines.get("yardstick")
        if self.yardstick_digest is None:
            self.yardstick_digest = digest
        if inv.returncode == 0 and (digest is None or
                                    digest != self.yardstick_digest):
            inv.errors.append(f"yardstick checksum {digest!r}, expected "
                              f"{self.yardstick_digest!r}")
        return inv

    def python(self, *args: str):
        """A bare interpreter child (start-up measurements)."""
        inv = invoke.spawn([sys.executable, *args],
                           invoke.child_env(ROOT, self.work / "unused"),
                           self.work)
        if inv.returncode != 0:
            inv.errors.append(f"exit {inv.returncode}: {inv.stderr[-200:]}")
        self.invocations.append(inv)
        return inv

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Compile the program's bytecode, then check it against the
        MIMD oracle."""
        self.python("-c", "import repro.__main__")
        w = self.workload
        check = self.repro(self.fresh_cache(), "miss", npes=w.check_npes,
                           extra=("--check", "--max-steps", CHECK_MAX_STEPS))
        if check.returncode == 0 and \
                check.lines.get("check") != "SIMD == MIMD reference":
            check.errors.append("no 'check: SIMD == MIMD reference' line")
        if w.check_npes == w.npes:
            self.reference = check.lines
        else:
            self.reference = self.full_size_reference()

    def full_size_reference(self) -> dict:
        """The output lines of one untimed full-size invocation, run
        in-process so that every PE's return value can be compared with
        the workload's expected ones (the CLI prints only six of them
        above 1000 PEs)."""
        out = self.work / "reference.json"
        inv = self.in_process(self.fresh_cache(), "miss", out, traced=True)
        if inv.returncode == 0:
            got = json.loads(out.read_text())["returns"] or []
            check_returns(inv, got,
                          self.workload.expected_returns(self.seed))
        return inv.lines

    def record(self, inv):
        """Record a full-size invocation whose output must match the
        reference."""
        self.timed.append(inv)
        return inv

    def finish(self) -> None:
        for inv in self.timed:
            invoke.check_lines(inv, self.reference)

    def counts(self) -> tuple[int, int]:
        return (len(self.invocations),
                sum(1 for inv in self.invocations if inv.failed))


def check_returns(inv, got: list, expected: list) -> None:
    """Fail ``inv`` unless every PE returned its expected value."""
    if len(got) != len(expected):
        inv.errors.append(f"returns: {len(got)} values, expected "
                          f"{len(expected)}")
        return
    wrong = [pe for pe, (a, b) in enumerate(zip(got, expected)) if a != b]
    if wrong:
        pe = wrong[0]
        inv.errors.append(f"returns: {len(wrong)} PEs differ from the "
                          f"expected values (PE {pe}: {got[pe]!r}, "
                          f"expected {expected[pe]!r})")


def measure_end_to_end(run: Run, seconds: float) -> dict:
    """Cold invocations and pairs of the yardstick and a warm invocation
    in turn for ``seconds``, so that a slow spell of the host lands on
    all alike. The first cold one fills the caches every warm one
    reuses; each later cold one has its own. One untimed yardstick run
    comes first, to warm its imports and fix its checksum."""
    run.yardstick()
    warm_cache = run.fresh_cache()
    cold = [run.record(run.repro(warm_cache, "miss"))]
    warm, yardstick = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or \
            min(len(cold), len(warm)) < MIN_TIMED:
        if len(warm) < len(cold):
            yardstick.append(run.yardstick())
            warm.append(run.record(run.repro(warm_cache, "hit")))
        else:
            cold.append(run.record(run.repro(run.fresh_cache(), "miss")))
    run.finish()
    return end_to_end(run, cold, warm, yardstick)


def end_to_end(run: Run, cold: list, warm: list, yardstick: list) -> dict:
    """The end-to-end metrics of a finished run from its cold and warm
    invocations and the yardstick run timed just before each warm one.
    ``run_vs_yardstick`` is the median over those pairs of the warm
    time over the yardstick time: the host's speed, which drifts by up
    to 2x between spells of a few minutes on a shared machine, cancels
    out of it.
    ``success_rate`` is one minus the error rate: failed invocations
    over attempted ones, counting every child the run spawned."""
    attempted, failed = run.counts()
    try:
        cycles = invoke.cycles_of(run.reference)
    except (KeyError, ValueError, TypeError):
        cycles = 0
    samples = {"setup_s": [inv.seconds for inv in cold],
               "run_s": [inv.seconds for inv in warm],
               "yardstick_s": [inv.seconds for inv in yardstick]}
    samples["run_vs_yardstick"] = [
        w / y for w, y in zip(samples["run_s"], samples["yardstick_s"])]
    metrics = {
        "setup_s": stats.median(samples["setup_s"]),
        "run_vs_yardstick": stats.median(samples["run_vs_yardstick"]),
        "peak_rss_mb": max(inv.rss_mb for inv in run.timed),
        "sim_cycles": cycles,
        "success_rate": (attempted - failed) / attempted,
    }
    return {"metrics": metrics, "samples": samples, "units": END_TO_END_UNITS}


def measure_startup(run: Run) -> dict:
    """Import time of ``repro.__main__`` over a bare interpreter start,
    and its split by package from ``-X importtime``."""
    bare, loaded, numpy_ms, repro_ms = [], [], [], []
    for _ in range(STARTUP_SAMPLES):
        bare.append(run.python("-c", "pass").seconds)
        loaded.append(run.python("-c", "import repro.__main__").seconds)
        split = layers.parse_importtime(
            run.python("-X", "importtime", "-c",
                       "import repro.__main__").stderr)
        numpy_ms.append(split.get("numpy", 0.0))
        repro_ms.append(split.get("repro", 0.0))
    return {
        "startup.import_ms": 1000.0 * (stats.median(loaded)
                                       - stats.median(bare)),
        "startup.numpy_ms": stats.median(numpy_ms),
        "startup.repro_ms": stats.median(repro_ms),
    }


def measure_layers(run: Run, seconds: float) -> dict:
    """Start-up, then one traced cold in-process invocation, then
    untraced and traced warm ones in turn for ``seconds``."""
    startup = measure_startup(run)
    cache = run.fresh_cache()

    def profile(name: str, state: str, traced: bool) -> dict | None:
        out = run.work / f"{name}.json"
        inv = run.record(run.in_process(cache, state, out, traced))
        return json.loads(out.read_text()) if inv.returncode == 0 else None

    cold = profile("cold", "miss", True)
    report = json.loads(run.report.read_text()) if cold else None
    warm, untraced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(warm) < MIN_TRACED:
        plain = profile(f"plain{len(untraced)}", "hit", False)
        traced = profile(f"warm{len(warm)}", "hit", True)
        if plain is None or traced is None:
            break
        untraced.append(plain["wall_s"])
        warm.append(traced)
    run.finish()
    if cold is None or not warm:
        return {"metrics": {name: 0 for name in layers.UNITS},
                "units": layers.UNITS, "absent": {}, "accounts": []}
    metrics = layers.trace_metrics(startup=startup, report=report,
                                   cold=cold, warm=warm,
                                   untraced_s=untraced)
    return {
        "metrics": metrics,
        "units": layers.UNITS,
        "absent": layers.absent_reasons(metrics),
        "accounts": [("cold", cold), ("warm", warm[-1])],
    }


def print_summary(workload: str, seed: int, result: dict) -> None:
    """Every metric by name with its unit (and, for timings, the
    sample spread), before the JSON line."""
    print(f"# workload {workload}, seed {seed}")
    samples = result.get("samples", {})
    absent = result.get("absent", {})

    def spread(name: str) -> str:
        d = stats.describe(samples[name])
        text = (f"  n={d['n']} q1={d['q1']:.4f} q3={d['q3']:.4f} "
                f"iqr={100 * d['iqr_share']:.1f}%")
        if d["tail"]:
            text += f" p{d['tail'][0]:g}={d['tail'][1]:.4f}"
        return text

    for name, value in result["metrics"].items():
        unit = result["units"][name]
        line = f"{name:<34} {value:>14.6g} {unit}"
        if name in samples:
            line += spread(name)
        if name in absent:
            line += f"  (absent: {absent[name]})"
        print(line)
    for name in sorted(samples.keys() - result["metrics"].keys()):
        # Wall times behind a ratio: shown, not reported.
        value = stats.median(samples[name])
        print(f"# {name:<32} {value:>14.6g} s{spread(name)}")
    for kind, profile in result.get("accounts", []):
        wall = 1000.0 * profile["wall_s"]
        print(f"# {kind} in-process wall {wall:.1f} ms, by self time:")
        for name, self_ms, calls in layers.breakdown(profile):
            share = 100 * self_ms / wall
            print(f"#   {name:<26} {self_ms:10.2f} ms {share:5.1f}% "
                  f"({calls} calls)")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (have "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    # Terminated from outside: unwind, so the running child is stopped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_work" / (
        f"{workload.name}-{args.seed}-{os.getpid()}")
    work.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, work)
        run.prepare()
        if args.trace:
            result = measure_layers(run, args.seconds)
        else:
            result = measure_end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass    # another run is still using it
    attempted, failed = run.counts()
    for inv in run.invocations:
        for error in inv.errors:
            print(f"# failed invocation: {error}")
    print_summary(workload.name, args.seed, result)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
