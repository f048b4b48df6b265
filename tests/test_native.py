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
from repro.errors import ConversionError, MachineError
from repro.hashenc.search import BranchEncoding, HashFn, key_of_members
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

    @pytest.mark.parametrize("name", sorted(STANDARD))
    @pytest.mark.parametrize("compress", (False, True))
    def test_single_pe_every_workload(self, name, compress):
        result = convert_source(STANDARD[name](),
                                ConversionOptions(compress=compress))
        runs = {}
        for backend in ("native", "interp"):
            try:
                runs[backend] = run_native(result, 1, backend=backend)
            except MachineError as err:  # a spawn with no idle PE
                runs[backend] = str(err)
        if isinstance(runs["interp"], str):
            assert runs["native"] == runs["interp"]
        else:
            assert runs["native"].backend_used == "native"
            assert_identical(runs["native"], runs["interp"],
                             (name, compress))


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


@requires_toolchain
class TestControlUnit:
    """``msc_run`` walks the automaton in C: one foreign call per run,
    with the steps and transitions it cannot do handed back to the
    Python step code, bit-identically."""

    @staticmethod
    def _count_entries(monkeypatch) -> list:
        entries = []
        run = nativert.ControlUnit.run

        def counted(unit, current, *args):
            entries.append(current)
            return run(unit, current, *args)

        monkeypatch.setattr(nativert.ControlUnit, "run", counted)
        return entries

    def test_one_entry_per_run(self, monkeypatch):
        result = convert_source(STANDARD["odd_even_sort"]())
        ref = run_backends(result, 1024, backends=("kernels",))["kernels"]
        entries = self._count_entries(monkeypatch)
        res = run_native(result, 1024)
        assert res.backend_used == "native"
        assert_identical(res, ref, "sort@1024")
        assert res.meta_transitions > 1000
        assert len(entries) == 1

    def test_wide_program_dispatches_in_python(self, monkeypatch):
        from repro.workloads import barrier_phases

        result = convert_source(barrier_phases(6, n_phases=22))
        assert result.simd_program().plan().n_bids > 63
        ref = run_backends(result, 8, backends=("interp",))["interp"]
        entries = self._count_entries(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_native(result, 8)
        assert res.backend_used == "native"
        assert_identical(res, ref, "wide")
        # every hash dispatch came back to Python, then re-entered C
        assert len(entries) > 1

    #: PEs leave the loop at different steps and park at the barrier:
    #: compressed, the run takes a node's all-at-barrier edge.
    BARRIER_LOOP = """
    main() {
        poly int x; poly int i;
        x = procnum;
        i = 0;
        while (i < procnum % 4) { x = x * 3 + 1; i = i + 1; }
        wait;
        x = x + 1;
        return (x);
    }
    """

    def test_barrier_target_checked_in_c(self, monkeypatch):
        result = convert_source(self.BARRIER_LOOP,
                                ConversionOptions(compress=True))
        prog = result.simd_program()
        assert any(node.barrier_target is not None
                   for node in prog.nodes.values())
        aggregates = []
        globalor = SimdMachine._globalor

        def recorded(machine, pc, plan=None):
            aggregates.append(globalor(machine, pc, plan))
            return aggregates[-1]

        monkeypatch.setattr(SimdMachine, "_globalor", recorded)
        ref = run_backends(result, 8, backends=("interp",))["interp"]
        mask = key_of_members(prog.barrier_ids)
        assert any(apc and not apc & ~mask for apc in aggregates)
        entries = self._count_entries(monkeypatch)
        res = run_native(result, 8)
        assert res.backend_used == "native"
        assert_identical(res, ref, "barrier loop")
        assert len(entries) == 1

    @staticmethod
    def _hash_of_kind(kind: str, keys: list) -> HashFn:
        """An injective hash of ``kind`` over ``keys``."""
        if kind == "mod":
            candidates = (HashFn(kind="mod", mod=m)
                          for m in range(len(keys), 64 * len(keys)))
        else:
            candidates = (HashFn(kind=kind, s=sh, mask=(1 << b) - 1)
                          for b in range(1, 9) for sh in range(64))
        for fn in candidates:
            if len({fn.apply(k) for k in keys}) == len(keys):
                return fn
        raise AssertionError(f"no injective {kind} hash")

    @pytest.mark.parametrize("kind", ("mask", "notmask", "xor", "add",
                                      "mod"))
    def test_every_hash_kind_dispatches_in_c(self, kind, monkeypatch):
        # Uncompressed, the barrier loop dispatches on aggregates with
        # some PEs parked at the barrier, so the masking matters too.
        result = convert_source(self.BARRIER_LOOP,
                                ConversionOptions(compress=False))
        prog = result.simd_program()
        for node in prog.nodes.values():
            if node.encoding is None:
                continue
            cases = node.encoding.cases
            fn = self._hash_of_kind(kind, sorted(cases))
            table = [None] * fn.table_size
            for key, target in cases.items():
                table[fn.apply(key)] = target
            monkeypatch.setattr(node, "encoding",
                                BranchEncoding(fn=fn, table=table,
                                               cases=cases))
        monkeypatch.setattr(prog, "_native", "unbuilt")
        ref = run_backends(result, 8, backends=("interp",))["interp"]
        entries = self._count_entries(monkeypatch)
        res = run_native(result, 8)
        assert res.backend_used == "native"
        assert_identical(res, ref, kind)
        assert len(entries) == 1

    def test_step_limit_boundary(self):
        result = convert_source(STANDARD["odd_even_sort"]())
        prog = result.simd_program()
        machines = {backend: SimdMachine(npes=64, costs=result.options.costs,
                                         backend=backend)
                    for backend in ("native", "kernels")}
        full = machines["native"].run(prog)
        # The last step ends in its body, before its transition, so a
        # run takes one step more than it makes transitions.
        limit = full.meta_transitions + 1
        at_limit = machines["native"].run(prog, max_steps=limit)
        assert at_limit.backend_used == "native"
        assert_identical(at_limit, full, "at the step limit")
        errs = {}
        for backend, machine in machines.items():
            with pytest.raises(MachineError) as exc:
                machine.run(prog, max_steps=limit - 1)
            errs[backend] = str(exc.value)
        assert errs["native"] == errs["kernels"] == \
            f"SIMD run exceeded {limit - 1} meta steps"

    def test_unused_slot_raises_the_lookup_error(self, monkeypatch):
        result = convert_source(STANDARD["divergent_loops"]())
        prog = result.simd_program()
        ref = run_backends(result, 16, backends=("interp",))["interp"]
        visited = [node for node in prog.nodes.values()
                   if node.encoding is not None
                   and ref.node_visits.get(node.entry_members)]
        enc = visited[0].encoding
        monkeypatch.setattr(enc, "table", [None] * len(enc.table))
        monkeypatch.setattr(prog, "_native", "unbuilt")
        errs = {}
        for backend in ("native", "kernels"):
            with pytest.raises(ConversionError) as exc:
                run_native(result, 16, backend=backend)
            errs[backend] = str(exc.value)
        assert errs["native"] == errs["kernels"]
        assert "unencoded transition" in errs["native"]


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
        library = nativert.load_native(nat)
        assert library.keys == nat.node_keys

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
