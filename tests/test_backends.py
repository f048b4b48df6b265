"""Backend selection and fallback reporting.

The machine has three executors (:data:`repro.simd.machine.BACKENDS`)
with bit-identical results. Every downgrade the machine makes (trace
on, missing kernels, foreign cost model) emits a
:class:`RuntimeWarning` and is recorded on ``SimdResult.backend_used``;
a node a generator skipped runs on the interpretive segment executor
without changing the backend; a run that fails raises the same
:class:`MachineError` on every backend.
"""

import warnings
from dataclasses import replace

import pytest

from repro.codegen.kernels import KernelUnsupported
from repro.codegen.native import _CGenerator
from repro.errors import MachineError
from repro.ir.instr import DEFAULT_COSTS
from repro.pipeline import convert_source
from repro.simd import nativert
from repro.simd.machine import BACKENDS, SimdMachine, resolve_backend
from repro.workloads import STANDARD

from tests.test_kernels import assert_identical


def run(result, backend, npes, active=None, max_steps=1_000_000):
    machine = SimdMachine(npes=npes, costs=result.options.costs,
                          backend=backend)
    return machine.run(result.simd_program(), active=active,
                       max_steps=max_steps)


class TestResolveBackend:
    def test_three_backends_fastest_first(self):
        assert BACKENDS == ("native", "kernels", "interp")

    def test_resolver_is_shared(self):
        assert resolve_backend(None) == "kernels"
        assert SimdMachine(npes=4).backend == "kernels"
        for gone in ("jit", "plan"):
            with pytest.raises(MachineError, match="unknown backend"):
                resolve_backend(gone)
        with pytest.raises(MachineError, match="unknown backend"):
            SimdMachine(npes=4, backend="threads")


class TestBackendFallbacks:
    def test_trace_fallback_warns_and_is_recorded(self):
        result = convert_source(STANDARD["divergent_loops"]())
        machine = SimdMachine(npes=8, costs=result.options.costs,
                              backend="kernels", trace=True)
        with pytest.warns(RuntimeWarning, match="no per-PE trace"):
            res = machine.run(result.simd_program())
        assert res.backend_used == "interp"
        ref = SimdMachine(npes=8, costs=result.options.costs,
                          backend="interp", trace=True).run(
                              result.simd_program())
        assert res.trace is not None
        assert res.trace == ref.trace

    @pytest.mark.parametrize("backend,fallback", (("kernels", "interp"),))
    def test_foreign_cost_model_warns(self, backend, fallback):
        result = convert_source(STANDARD["divergent_loops"]())
        costs = replace(DEFAULT_COSTS,
                        globalor_cost=DEFAULT_COSTS.globalor_cost + 3)
        machine = SimdMachine(npes=8, costs=costs, backend=backend)
        with pytest.warns(RuntimeWarning, match="cost model"):
            res = machine.run(result.simd_program())
        assert res.backend_used == fallback

    def test_serial_backends_report_themselves(self):
        result = convert_source(STANDARD["divergent_loops"]())
        for backend in ("kernels", "interp"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = run(result, backend, 8)
            assert res.backend_used == backend


class TestKernelLessNode:
    """A node the code generators skipped (``KernelUnsupported``) runs
    on the interpretive segment executor between compiled nodes — the
    only per-node mix of executors the machine makes."""

    @staticmethod
    def _hot_divergent_node(prog, ref):
        """The most-visited node with a multi-member segment."""
        divergent = {node.entry_members: key
                     for key, node in prog.nodes.items()
                     if any(len(seg.members) > 1 for seg in node.segments)}
        members = max(divergent, key=lambda m: ref.node_visits.get(m, 0))
        assert ref.node_visits.get(members, 0) > 1
        return divergent[members]

    @pytest.mark.parametrize("backend", ("native", "kernels"))
    def test_dropped_node_matches_interp(self, backend, monkeypatch):
        if backend == "native" and not nativert.native_available():
            pytest.skip(nativert.unavailable_reason())
        result = convert_source(STANDARD["divergent_loops"]())
        prog = result.simd_program()
        ref = run(result, "interp", 16)
        dropped = self._hot_divergent_node(prog, ref)
        if backend == "kernels":
            kern = prog.kernels()
            fns = dict(kern.fns)
            del fns[dropped]
            monkeypatch.setattr(kern, "_fns", fns)
        else:
            # The C generator skips the node, so msc_run hands each of
            # its steps back to the Python step code.
            emit_node = _CGenerator._emit_node

            def emit_without(gen, idx, name, key):
                if key == dropped:
                    raise KernelUnsupported("dropped by the test")
                return emit_node(gen, idx, name, key)

            monkeypatch.setattr(_CGenerator, "_emit_node", emit_without)
            monkeypatch.setattr(prog, "_native", "unbuilt")
            assert dropped not in prog.native().entry_names
        segment_runs = []
        exec_segment = SimdMachine._exec_segment

        def counted(self, seg, *args):
            segment_runs.append(seg)
            return exec_segment(self, seg, *args)

        monkeypatch.setattr(SimdMachine, "_exec_segment", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(result, backend, 16)
        assert res.backend_used == backend
        assert_identical(res, ref, ("dropped node", backend))
        # Only the dropped node left the compiled path, on every visit.
        n_segs = len(prog.nodes[dropped].segments)
        visits = ref.node_visits[prog.nodes[dropped].entry_members]
        assert len(segment_runs) == n_segs * visits


class TestErrorParity:
    def test_error_identical_across_backends(self):
        # The failing PE (procnum == 5) sits mid-axis.
        src = """
        main() {
            poly int x;
            x = procnum - 5;
            x = 10 / x;
            return (x);
        }
        """
        result = convert_source(src)
        errs = {}
        for backend in BACKENDS:
            with warnings.catch_warnings():
                # native without a toolchain falls back to kernels
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(MachineError) as exc:
                    run(result, backend, 16)
            errs[backend] = str(exc.value)
        assert errs["kernels"] == errs["interp"]
        assert len(set(errs.values())) == 1, errs

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_steps_exhaustion(self, backend):
        result = convert_source(STANDARD["divergent_loops"]())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(MachineError) as exc:
                run(result, backend, 8, max_steps=3)
        assert str(exc.value) == "SIMD run exceeded 3 meta steps"


class TestCli:
    def test_run_prints_backend_name(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "prog.mimdc"
        path.write_text(STANDARD["divergent_loops"]())
        assert main(["run", str(path), "--npes", "8",
                     "--backend", "interp"]) == 0
        assert "backend: interp\n" in capsys.readouterr().out

    def test_plan_backend_rejected(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "prog.mimdc"
        path.write_text(STANDARD["divergent_loops"]())
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--backend", "plan"])
        assert exc.value.code == 2
        assert "invalid choice: 'plan'" in capsys.readouterr().err
