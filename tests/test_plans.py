"""The plan IR (:mod:`repro.codegen.plan`): structure, and its one
run-time role.

The plan tables are what the kernel generators compile from; no
executor interprets them. At run time the compiled backends read only
the plan's bit-weight table, for ``globalor``. ``TestDifferential``
isolates that role: with every generated kernel removed, the
``kernels`` backend runs each node on the interpretive segment executor
(the per-node fall-through path) yet still dispatches through the
plan's bit weights, and must stay bit-identical to ``interp``, which
computes ``globalor`` without the table. Differential identity of the
generated code itself lives in ``tests/test_kernels.py`` and
``tests/test_native.py``.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.codegen.kernels import KernelProgram
from repro.codegen.plan import compile_plan
from repro.pipeline import ConversionOptions, convert_source
from repro.simd.machine import SimdMachine
from repro.workloads import STANDARD

from tests.test_kernels import assert_identical


def run_plan_only(result, npes, active=None):
    """Run ``result`` on ``kernels`` with no generated kernel at all,
    next to the ``interp`` oracle."""
    prog = result.simd_program()
    empty = KernelProgram(source="", entry_names={},
                          costs=prog.kernels().costs)
    runs = {}
    for backend, program in (("kernels", replace(prog, _kernels=empty)),
                             ("interp", prog)):
        machine = SimdMachine(npes=npes, costs=result.options.costs,
                              backend=backend)
        runs[backend] = machine.run(program, active=active)
    assert runs["kernels"].backend_used == "kernels"
    return runs["kernels"], runs["interp"]


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(STANDARD))
    @pytest.mark.parametrize("compress", (False, True))
    def test_workload_bit_identical(self, name, compress):
        src = STANDARD[name]()
        result = convert_source(src, ConversionOptions(compress=compress))
        for npes in (8, 33):
            # Spawning workloads need idle PEs in the free pool.
            active = npes // 2 if "spawn" in src else None
            a, b = run_plan_only(result, npes, active=active)
            assert_identical(a, b, (name, compress, npes))

    def test_traces_match(self):
        # Only interp records traces, so the traced oracle is checked
        # against the untraced plan-dispatched run: recording must not
        # perturb the cost model, and the meta states the trace shows,
        # step by step, must be the nodes the plan-dispatched run visited.
        result = convert_source(STANDARD["divergent_loops"]())
        a, _ = run_plan_only(result, 8)
        traced = SimdMachine(npes=8, costs=result.options.costs,
                             trace=True, backend="interp").run(
                                 result.simd_program())
        assert_identical(a, traced, "traced")
        by_step: dict = {}
        for entries in traced.trace.values():
            for bid, step in entries:
                by_step.setdefault(step, set()).add(bid)
        assert sorted(by_step) == list(range(1, len(by_step) + 1))
        assert Counter(frozenset(s) for s in by_step.values()) \
            == Counter(a.node_visits)

    def test_single_pe(self):
        result = convert_source(STANDARD["mandelbrot"]())
        a, b = run_plan_only(result, 1)
        assert_identical(a, b, "single_pe")


class TestPlanStructure:
    def test_plan_is_cached_on_program(self):
        result = convert_source(STANDARD["divergent_loops"]())
        prog = result.simd_program()
        assert prog.plan() is prog.plan()

    def test_bit_weights_match_key_encoding(self):
        result = convert_source(STANDARD["barrier_phases"]())
        plan = result.simd_program().plan()
        for bid in range(plan.n_bids):
            assert int(plan.bit_weights[bid]) == 1 << bid

    def test_wide_programs_use_exact_weights(self):
        from repro.workloads import barrier_phases

        result = convert_source(barrier_phases(6, n_phases=22))
        plan = result.simd_program().plan()
        assert plan.n_bids > 64
        assert plan.bit_weights.dtype == object
        top = plan.n_bids - 1
        assert int(plan.bit_weights[top]) == 1 << top
        a, b = (SimdMachine(npes=8, costs=result.options.costs,
                            backend=backend).run(result.simd_program())
                for backend in ("kernels", "interp"))
        assert a.backend_used == "kernels"
        assert_identical(a, b, "wide")

    def test_segment_plans_align_with_segments(self):
        result = convert_source(STANDARD["odd_even_sort"]())
        prog = result.simd_program()
        plan = compile_plan(prog)
        assert set(plan.nodes) == set(prog.nodes)
        for key, node in prog.nodes.items():
            nplan = plan.nodes[key]
            assert len(nplan.segments) == len(node.segments)
            for seg, sp in zip(node.segments, nplan.segments):
                assert sp.member_bids == tuple(sorted(seg.members))
                assert len(sp.instrs) == len(seg.schedule.entries)
