"""Backend selection and fallback reporting.

The machine has four executors (:data:`repro.simd.machine.BACKENDS`)
with bit-identical results. Every downgrade the machine makes (trace
on, missing kernels, foreign cost model) emits a
:class:`RuntimeWarning` and is recorded on ``SimdResult.backend_used``;
a run that fails raises the same :class:`MachineError` on every
backend.
"""

import warnings
from dataclasses import replace

import pytest

from repro.errors import MachineError
from repro.ir.instr import DEFAULT_COSTS
from repro.pipeline import convert_source
from repro.simd.machine import BACKENDS, SimdMachine, resolve_backend
from repro.workloads import STANDARD


def run(result, backend, npes, active=None, max_steps=1_000_000):
    machine = SimdMachine(npes=npes, costs=result.options.costs,
                          backend=backend)
    return machine.run(result.simd_program(), active=active,
                       max_steps=max_steps)


class TestResolveBackend:
    def test_four_backends_fastest_first(self):
        assert BACKENDS == ("native", "kernels", "plan", "interp")

    def test_resolver_is_shared(self):
        assert resolve_backend(None) == "kernels"
        assert SimdMachine(npes=4).backend == "kernels"
        with pytest.raises(MachineError, match="unknown backend"):
            resolve_backend("jit")
        with pytest.raises(MachineError, match="unknown backend"):
            SimdMachine(npes=4, backend="threads")


class TestBackendFallbacks:
    def test_trace_fallback_warns_and_is_recorded(self):
        result = convert_source(STANDARD["divergent_loops"]())
        machine = SimdMachine(npes=8, costs=result.options.costs,
                              backend="kernels", trace=True)
        with pytest.warns(RuntimeWarning, match="no per-PE trace"):
            res = machine.run(result.simd_program())
        assert res.backend_used == "plan"
        assert res.trace is not None

    @pytest.mark.parametrize("backend,fallback", (("kernels", "plan"),))
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
        for backend in ("kernels", "plan", "interp"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = run(result, backend, 8)
            assert res.backend_used == backend


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
        assert errs["kernels"] == errs["plan"]
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
                     "--backend", "plan"]) == 0
        assert "backend: plan\n" in capsys.readouterr().out
