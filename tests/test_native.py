"""The native C backend: differential identity, graceful fallback,
artifact caching, and the ``--emit c`` CLI surface.

The contract under test (docs/internals.md §16): ``backend=native``
produces bit-identical :class:`SimdResult`\\ s to every other backend;
when the toolchain is missing, the build fails, or a cached library
will not load even after a rebuild, the machine falls back to the
NumPy kernels with a :class:`RuntimeWarning` and records what actually
ran; and the shared library is content-addressed so warm runs never
re-invoke the compiler.
"""

import pickle
import subprocess
import warnings

import numpy as np
import pytest

from repro.codegen.native import NATIVE_VERSION, NativeProgram, compile_native
from repro.errors import MachineError
from repro.pipeline import ConversionOptions, convert_source
from repro.simd import nativert
from repro.simd.machine import SimdMachine
from repro.workloads import STANDARD

from tests.test_kernels import assert_identical, run_backends

requires_toolchain = pytest.mark.skipif(
    not nativert.native_available(),
    reason=nativert.unavailable_reason() or "")


def run_native(result, npes, backend="native", active=None):
    machine = SimdMachine(npes=npes, costs=result.options.costs,
                          backend=backend)
    return machine.run(result.simd_program(), active=active)


@requires_toolchain
class TestDifferential:
    """Acceptance: native bit-identical to kernels on all library
    workloads × compress on/off."""

    @pytest.mark.parametrize("name", sorted(STANDARD))
    @pytest.mark.parametrize("compress", (False, True))
    def test_workload_bit_identical(self, name, compress):
        src = STANDARD[name]()
        result = convert_source(src, ConversionOptions(compress=compress))
        for npes in (8, 33):
            active = npes // 2 if "spawn" in src else None
            ref = run_backends(result, npes, active=active,
                               backends=("kernels",))["kernels"]
            res = run_native(result, npes, active=active)
            assert res.backend_used == "native"
            assert_identical(res, ref, (name, compress, npes))

    def test_single_pe(self):
        result = convert_source(STANDARD["mandelbrot"]())
        a = run_native(result, 1)
        b = run_backends(result, 1, backends=("interp",))["interp"]
        assert_identical(a, b, "single_pe")


@requires_toolchain
class TestErrorReconstruction:
    def test_division_by_zero_exact_message(self):
        src = "main() { poly int x; x = 1 / (procnum - procnum); return (x); }"
        result = convert_source(src)
        msgs = {}
        for backend in ("kernels", "native"):
            with pytest.raises(MachineError) as exc:
                run_native(result, 4, backend=backend)
            msgs[backend] = str(exc.value)
        assert msgs["native"] == msgs["kernels"]
        assert "zero" in msgs["native"]


class TestFallbacks:
    """Satellite: compiler-missing and compile-failure paths must warn,
    record ``backend_used == "kernels"``, and stay bit-identical."""

    def _expect_fallback(self, result, match):
        ref = run_backends(result, 8, backends=("kernels",))["kernels"]
        with pytest.warns(RuntimeWarning, match=match):
            res = run_native(result, 8)
        assert res.backend_used == "kernels"
        assert_identical(res, ref, ("fallback", match))
        return res

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        result = convert_source(STANDARD["divergent_loops"]())
        self._expect_fallback(result, "REPRO_NATIVE_DISABLE")

    def test_no_compiler_on_path(self, monkeypatch):
        monkeypatch.setattr(nativert, "_find_cc", lambda: None)
        result = convert_source(STANDARD["divergent_loops"]())
        self._expect_fallback(result, "no C compiler")

    def test_cffi_missing(self, monkeypatch):
        import builtins

        real_import = builtins.__import__

        def fake_import(name, *args, **kwargs):
            if name == "cffi":
                raise ImportError("No module named 'cffi'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", fake_import)
        result = convert_source(STANDARD["divergent_loops"]())
        self._expect_fallback(result, "cffi is not importable")

    def test_compile_failure(self, monkeypatch):
        def failing_run(cmd, **kwargs):
            return subprocess.CompletedProcess(
                cmd, returncode=1, stdout="", stderr="synthetic ICE")

        monkeypatch.setattr(nativert.subprocess, "run", failing_run)
        monkeypatch.setattr(nativert, "compiler_id", lambda: "fake-cc 0")
        # A unique program: nothing in the in-process dlopen cache or
        # the (hermetic) artifact cache may satisfy the load.
        src = "main() { poly int x; x = procnum + 41; return (x); }"
        result = convert_source(src)
        self._expect_fallback(result, "build failed")

    @pytest.mark.parametrize("case,match", (
        ("cache-is-a-file", "Not a directory"),
        ("cc-not-executable", "Permission denied"),
        ("cc-exits-nonzero", "synthetic ICE"),
        ("cc-hangs", "did not finish within 0.5 s"),
    ))
    def test_build_failure_falls_back(self, case, match, tmp_path,
                                      monkeypatch):
        pytest.importorskip("cffi")
        cc = tmp_path / "cc"
        cc.write_text({
            "cc-exits-nonzero": "#!/bin/sh\necho synthetic ICE >&2\n"
                                "exit 1\n",
            # exec: the timeout kills the process holding the pipes.
            "cc-hangs": "#!/bin/sh\nexec sleep 60\n",
        }.get(case, "#!/bin/sh\nexit 0\n"))
        if case != "cc-not-executable":
            cc.chmod(0o755)
        monkeypatch.setattr(nativert, "_find_cc", lambda: str(cc))
        monkeypatch.setattr(nativert, "compiler_id", lambda: "fake-cc 0")
        # Nothing in the in-process dlopen cache may satisfy the load.
        monkeypatch.setattr(nativert, "_loaded", {})
        if case == "cache-is-a-file":
            blocker = tmp_path / "not-a-dir"
            blocker.write_text("")
            monkeypatch.setenv("REPRO_MSC_CACHE", str(blocker))
        monkeypatch.setattr(nativert, "BUILD_TIMEOUT_S", 0.5)
        src = "main() { poly int x; x = procnum + 43; return (x); }"
        self._expect_fallback(convert_source(src),
                              f"(?s)build failed: .*{match}")

    @requires_toolchain
    def test_lazy_mode_documented_fallback(self):
        from repro.pipeline import simulate_simd

        result = convert_source(STANDARD["divergent_loops"](),
                                ConversionOptions(lazy=True))
        with pytest.warns(RuntimeWarning, match="lazy conversion"):
            res = simulate_simd(result, npes=8, backend="native")
        assert res.backend_used == "kernels"

    def test_foreign_cost_model_cascades_to_interp(self):
        from dataclasses import replace

        from repro.ir.instr import DEFAULT_COSTS

        result = convert_source(STANDARD["divergent_loops"]())
        prog = result.simd_program()
        other = replace(DEFAULT_COSTS, globalor_cost=99)
        machine = SimdMachine(npes=8, costs=other, backend="native")
        with pytest.warns(RuntimeWarning, match="cost model"):
            res = machine.run(prog)
        # native refuses (foreign costs), then kernels refuses for the
        # same reason: the interpretive executor runs under the
        # machine's model.
        assert res.backend_used == "interp"


@requires_toolchain
class TestArtifactCache:
    def test_shared_library_content_addressed(self):
        src = "main() { poly int x; x = procnum * 3; return (x); }"
        nat = convert_source(src).simd_program().native()
        so = nativert.build_shared(nat)
        assert so.exists()
        assert so.name == f"{nativert.artifact_key(nat)}.so"
        # The .c source is kept beside the artifact for debugging.
        assert so.with_suffix(".c").read_text() == nat.c_source

    def test_warm_load_skips_compiler(self, monkeypatch):
        src = "main() { poly int x; x = procnum * 5; return (x); }"
        nat = convert_source(src).simd_program().native()
        nativert.build_shared(nat)
        nativert._loaded.pop(nat.digest(), None)

        def boom(*args, **kwargs):
            raise AssertionError("compiler invoked on a warm artifact")

        # compiler_id() is memoized by the build above, so the only
        # subprocess a warm load could spawn is the compile itself.
        monkeypatch.setattr(nativert.subprocess, "run", boom)
        fns = nativert.load_native(nat)
        assert set(fns) == set(nat.entry_names)

    def test_key_includes_compiler_identity(self, monkeypatch):
        nat = convert_source(STANDARD["divergent_loops"]()) \
            .simd_program().native()
        a = nativert.artifact_key(nat)
        monkeypatch.setattr(nativert, "compiler_id", lambda: "other-cc 9")
        assert nativert.artifact_key(nat) != a


@requires_toolchain
class TestCorruptArtifact:
    """A cached ``.so`` that will not ``dlopen`` is evicted and rebuilt
    once; a rebuild that still will not load counts as a build failure
    (warned fallback to ``kernels``), never as a crash."""

    SRC = "main() { poly int x; x = procnum * 7 - 3; return (x); }"

    def _fresh(self, monkeypatch):
        # Nothing dlopen'd earlier in this process may satisfy the load.
        monkeypatch.setattr(nativert, "_loaded", {})
        result = convert_source(self.SRC)
        ref = run_backends(result, 8, backends=("kernels",))["kernels"]
        return result, ref

    def test_corrupt_library_is_rebuilt(self, monkeypatch):
        result, ref = self._fresh(monkeypatch)
        so = nativert.build_shared(result.simd_program().native())
        so.write_bytes(b"not a shared library")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_native(result, 8)
        assert res.backend_used == "native"
        assert_identical(res, ref, "rebuilt")
        assert so.read_bytes()[:4] == b"\x7fELF"

    def test_garbage_rebuild_falls_back(self, monkeypatch):
        result, ref = self._fresh(monkeypatch)
        build = nativert.build_shared
        builds = []

        def garbage_build(nat):
            so = build(nat)
            so.write_bytes(b"garbage")
            builds.append(so)
            return so

        monkeypatch.setattr(nativert, "build_shared", garbage_build)
        with pytest.warns(RuntimeWarning, match="does not load"):
            res = run_native(result, 8)
        assert res.backend_used == "kernels"
        assert_identical(res, ref, "garbage")
        assert len(builds) == 2  # the first try and one rebuild
        assert not builds[-1].exists()


class TestNativeProgram:
    def test_generated_and_cached_on_program(self):
        prog = convert_source(STANDARD["divergent_loops"]()).simd_program()
        nat = prog.native()
        assert isinstance(nat, NativeProgram)
        assert prog.native() is nat

    def test_one_entry_per_node(self):
        prog = convert_source(STANDARD["odd_even_sort"]()).simd_program()
        nat = prog.native()
        assert set(nat.entry_names) == set(prog.nodes)
        assert nat.stats()["native_nodes"] == prog.node_count()
        for fname in nat.entry_names.values():
            assert f"i64 {fname}(" in nat.c_source

    def test_digest_deterministic(self):
        src = STANDARD["barrier_phases"]()
        a = compile_native(convert_source(src).simd_program())
        b = compile_native(convert_source(src).simd_program())
        assert a.digest() == b.digest()
        assert a.c_source == b.c_source

    def test_version_stamped(self):
        nat = convert_source(STANDARD["divergent_loops"]()) \
            .simd_program().native()
        assert nat.version == NATIVE_VERSION
        assert nat.stats()["native_version"] == NATIVE_VERSION

    def test_program_pickle_carries_native(self):
        prog = convert_source(STANDARD["mandelbrot"]()).simd_program()
        nat = prog.native()
        clone = pickle.loads(pickle.dumps(prog))
        assert clone._native != "unbuilt"
        assert clone.native().digest() == nat.digest()

    def test_warm_compile_cache_carries_c_source(self, tmp_path):
        src = STANDARD["divergent_loops"]()
        cold = convert_source(src, cache=str(tmp_path))
        assert cold.report.cache == "miss"
        cold_nat = cold.simd_program().native()
        warm = convert_source(src, cache=str(tmp_path))
        assert warm.report.cache == "hit"
        assert warm.simd_program()._native != "unbuilt"
        assert warm.simd_program().native().c_source == cold_nat.c_source

    def test_native_stage_reported(self):
        r = convert_source(STANDARD["divergent_loops"]())
        rec = r.report.stage("native")
        assert rec.counters["native_nodes"] == r.simd_program().node_count()
        assert rec.counters["native_bytes"] > 0


class TestEmitC:
    def test_emit_c_prints_source(self, tmp_path, capsys):
        from repro.__main__ import main

        f = tmp_path / "p.mimdc"
        f.write_text(STANDARD["divergent_loops"]())
        assert main(["compile", str(f), "--emit", "c"]) == 0
        out = capsys.readouterr().out
        assert "int64_t" in out
        assert "#include <stdint.h>" in out
