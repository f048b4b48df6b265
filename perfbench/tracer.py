"""Run ``repro`` in this process, recording a span around each call into
a layer's public entry point.

Usage::

    python perfbench/tracer.py --out PROFILE.json [--no-trace] -- \\
        run prog.mimdc --npes 1024 ...

Everything after ``--`` is handed to ``repro.__main__.main``. The
modules that hold the entry points are imported (and, unless
``--no-trace``, patched) before the clock starts, so the reported
``wall_s`` is the in-process time of ``main`` alone, comparable between
a traced and an untraced run; interpreter start-up and imports are
measured separately. Spans are kept in memory and written to ``--out``
when ``main`` returns, with the counts recorded at the same
boundaries. ``main``'s output goes to stdout as usual, and every
warning it raised is repeated on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from collections import Counter


class Tracer:
    """In-memory span recorder for one run. A span is ``{name, id,
    parent, start, end}`` with times in seconds since the tracer was
    created; ``parent`` is the id of the span open when it started (0
    for the root)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []
        self._t0 = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        span = {"name": name, "id": len(self.spans) + 1,
                "parent": self._open[-1] if self._open else 0}
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter() - self._t0
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter() - self._t0
            self._open.pop()


def _patch(owner, attr: str, wrapper_factory) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))


def install(tracer: Tracer, captured: dict) -> None:
    """Wrap the layers' entry points. ``captured`` receives what is read
    once ``main`` returns: the lazy program, and every PE's return value
    from the last ``SimdMachine.run`` (the CLI prints only the first and
    last three of them above 1000 PEs)."""
    from repro.codegen import emit
    from repro.codegen.kernels import KernelProgram
    from repro.codegen.lazy import LazyProgram
    from repro.hashenc import incremental, search
    from repro.simd import nativert
    from repro.simd.machine import SimdMachine
    from repro.stages.cache import CompileCache
    from repro.stages.driver import Stage

    def cache_load(original):
        def load(cache, key):
            bundle = tracer.call("stages.cache_load", original, cache, key)
            tracer.counts["cache_misses" if bundle is None
                          else "cache_hits"] += 1
            return bundle
        return load

    def cache_store(original):
        def store(cache, key, payload):
            stored = tracer.call("stages.cache_store", original, cache, key,
                                 payload)
            if stored:
                tracer.counts["cache_bytes"] = \
                    cache.path_for(key).stat().st_size
            return stored
        return store

    def stage_execute(original):
        def execute(stage, ctx, report):
            return tracer.call(f"stage.{stage.name}", original, stage, ctx,
                               report)
        return execute

    def spanned(name):
        def wrap(original):
            def call(*args, **kwargs):
                return tracer.call(name, original, *args, **kwargs)
            return call
        return wrap

    def lazy_fetch(original):
        def fetch(program, *args, **kwargs):
            captured["lazy"] = program
            return tracer.call("lazy.fetch", original, program, *args,
                               **kwargs)
        return fetch

    def native_build(original):
        def build(nat):
            def body():
                so = (nativert.native_cache_dir()
                      / f"{nativert.artifact_key(nat)}.so")
                existed = so.exists()
                path = original(nat)
                if not existed:
                    tracer.counts["native_builds"] += 1
                return path
            return tracer.call("simd.native_build", body)
        return build

    def machine_run(original):
        def run(machine, *args, **kwargs):
            result = tracer.call("simd.run", original, machine, *args,
                                 **kwargs)
            tracer.counts["transitions"] += result.meta_transitions
            captured["returns"] = result.returns.tolist()
            return result
        return run

    # KernelProgram.fns compiles the generated kernel module on first
    # use, which is the bulk of a warm run's SimdMachine.run.
    fns = KernelProgram.fns.fget

    def kernel_fns(kern):
        if kern._fns is None:
            return tracer.call("codegen.kernel_compile", fns, kern)
        return fns(kern)

    KernelProgram.fns = property(kernel_fns, doc=KernelProgram.fns.__doc__)
    _patch(CompileCache, "load", cache_load)
    _patch(CompileCache, "store", cache_store)
    _patch(Stage, "execute", stage_execute)
    _patch(emit, "csi_schedule", spanned("csi.schedule"))
    _patch(search, "find_hash", spanned("hashenc.find"))
    _patch(incremental, "find_hash", spanned("hashenc.find"))
    _patch(LazyProgram, "fetch", lazy_fetch)
    _patch(nativert, "build_shared", native_build)
    _patch(nativert, "load_native", spanned("simd.native_load"))
    _patch(SimdMachine, "run", machine_run)


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True,
                        help="where to write the profile JSON")
    parser.add_argument("--no-trace", action="store_true",
                        help="time main() without recording spans")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- followed by the repro command line")
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    # Every module the patches touch, imported in both modes so the
    # traced and untraced clocks cover the same work.
    import repro.__main__ as repro_main
    import repro.codegen.lazy  # noqa: F401
    import repro.simd.nativert  # noqa: F401

    tracer = None if args.no_trace else Tracer()
    captured: dict = {}
    if tracer is not None:
        install(tracer, captured)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        if tracer is None:
            code = repro_main.main(cli)
        else:
            code = tracer.call("cli.main", repro_main.main, cli)
        wall = time.perf_counter() - t0
    sys.stdout.flush()
    for w in caught:
        print(warnings.formatwarning(w.message, w.category, w.filename,
                                     w.lineno), end="", file=sys.stderr)
    profile = {
        "wall_s": wall,
        "exit": code,
        "fallbacks": sum(1 for w in caught
                         if issubclass(w.category, RuntimeWarning)),
    }
    if tracer is not None:
        lazy = captured.get("lazy")
        profile.update(
            spans=tracer.spans,
            counts=dict(tracer.counts),
            lazy=lazy.stats() if lazy is not None else None,
            returns=captured.get("returns"),
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(profile, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
