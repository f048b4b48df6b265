"""Run one ``python -m repro run`` child, time it from outside, and
decide whether it counts as failed.

An invocation fails on a nonzero exit, a ``RuntimeWarning`` (every
backend fallback warns), a ``backend:`` line other than the one
requested, a compile-cache state other than the one expected (a cold
run that hits, a warm run that misses), a shared-library count other
than expected (a cold native run that finds an old ``.so``, a warm run
that rebuilds one), or output lines that differ from the oracle-checked
invocation's.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Variables that change what ``repro run`` executes; CI legs set them.
DROPPED_ENV = ("REPRO_OPT_LEVEL", "REPRO_LAZY", "REPRO_SHARDS",
               "REPRO_NATIVE_DISABLE", "REPRO_MT_MIN_LANES",
               "REPRO_MSC_CACHE", "PYTHONDONTWRITEBYTECODE",
               "PYTHONPROFILEIMPORTTIME")

#: A child still running after this many seconds is killed and fails.
CHILD_TIMEOUT_S = 60.0

#: The output lines every invocation of one workload must repeat.
COMPARED_LINES = ("returns", "cycles", "utilization", "meta transitions",
                  "backend")


def child_env(root: Path, cache_dir: Path) -> dict:
    """The pinned environment of a child: the program from ``root/src``
    and both caches (compile bundles and native ``.so`` files) under
    ``cache_dir``."""
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_MSC_CACHE"] = str(cache_dir)
    return env


@dataclass
class Invocation:
    """One finished child: wall time, peak RSS, output, and the reasons
    it failed (empty when it passed)."""

    seconds: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors)

    @property
    def lines(self) -> dict:
        return parse_run_output(self.stdout)


def spawn(argv: list, env: dict, workdir: Path) -> Invocation:
    """Run ``argv`` to completion and time it from outside. Output goes
    to files, so the child never blocks on a full pipe and the parent
    can reap it with ``os.wait4`` to read its peak RSS. A child that
    outlives :data:`CHILD_TIMEOUT_S` is killed."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (e.g. the benchmark was terminated): stop the
            # child and reap it before going on.
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(seconds=seconds, rss_mb=usage.ru_maxrss / 1024.0,
                      returncode=proc.returncode,
                      stdout=out_path.read_text(),
                      stderr=err_path.read_text())


def parse_run_output(stdout: str) -> dict:
    """The ``name: value`` lines of ``repro run`` output, keyed by name.
    ``utilization: X%; meta transitions: N`` yields two entries."""
    lines = {}
    for line in stdout.splitlines():
        if line.startswith("utilization: ") and "; meta transitions: " in line:
            util, trans = line.split("; meta transitions: ", 1)
            lines["utilization"] = util[len("utilization: "):]
            lines["meta transitions"] = trans
            continue
        name, sep, value = line.partition(": ")
        if sep and name in ("returns", "cycles", "backend", "check",
                            "lazy", "yardstick"):
            lines[name] = value
    return lines


def cycles_of(lines: dict) -> int:
    """Simulated SIMD cycles from a parsed ``cycles:`` line."""
    return int(lines["cycles"].split()[0])


def backend_of(lines: dict) -> str | None:
    value = lines.get("backend")
    return value.split()[0] if value else None


def so_snapshot(cache_dir: Path) -> dict:
    """``name -> mtime_ns`` of every built native library in the
    cache."""
    native = cache_dir / "native"
    if not native.is_dir():
        return {}
    return {p.name: p.stat().st_mtime_ns for p in native.glob("*.so")}


def check_invocation(inv: Invocation, *, backend: str, cache_state: str,
                     report_path: Path, so_count: int, so_before: dict,
                     so_after: dict) -> None:
    """Append to ``inv.errors`` every way ``inv`` broke the run's
    expectations: the ``backend:`` it must print, the ``cache`` field
    its stage report must show, and the native libraries it must leave
    behind (``so_count`` of them, with every one of ``so_before``, the
    libraries present before it ran, untouched)."""
    if inv.returncode != 0:
        tail = inv.stderr.strip().splitlines()[-1:] or [""]
        inv.errors.append(f"exit {inv.returncode}: {tail[0]}")
        return
    got = backend_of(inv.lines)
    if got != backend:
        inv.errors.append(f"backend {got!r}, expected {backend!r}")
    if "RuntimeWarning" in inv.stderr:
        inv.errors.append("fallback RuntimeWarning on stderr")
    try:
        state = json.loads(report_path.read_text())["cache"]
    except (OSError, ValueError, KeyError) as exc:
        state = f"unreadable report ({exc})"
    if state != cache_state:
        inv.errors.append(f"compile cache {state}, expected {cache_state}")
    if len(so_after) != so_count:
        inv.errors.append(f"{len(so_after)} native libraries, expected "
                          f"{so_count}")
    if any(so_after.get(name) != mtime for name, mtime in so_before.items()):
        inv.errors.append("native library rebuilt")


def check_lines(inv: Invocation, reference: dict) -> None:
    """Append an error for each compared line that differs from the
    oracle-checked ``reference`` lines."""
    if inv.returncode != 0:
        return
    lines = inv.lines
    for name in COMPARED_LINES:
        if lines.get(name) != reference.get(name):
            inv.errors.append(f"{name}: {lines.get(name)!r} differs from "
                              f"the checked {reference.get(name)!r}")
