"""The meta-state SIMD machine.

"Once a program has been converted into the form of a meta-state
automaton, it is no longer necessary for each PE to fetch and decode
instructions, nor is it necessary that each PE have a copy of the
program in local memory. Only the SIMD control unit needs to have a
copy of the meta-state automaton; PEs merely hold data." (section 1.3)

The machine therefore pays *no* fetch/decode cost. Per emitted node it
executes the CSI-scheduled guarded body (enable mask = "my pc bit is in
the guard"), applies each member's terminator under its own guard, and
dispatches on the hash-encoded ``globalor`` aggregate (sections
3.2.2-3.2.4). Spawn/halt follow section 3.2.5. PE state is vectorized
with numpy across the PE axis.

``pc`` values: a block id while live, ``PC_DONE`` after ``Ret``,
``PC_IDLE`` when in the free pool. Only live pcs contribute to the
aggregate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.codegen.emit import SimdProgram
from repro.codegen import plan as planmod
from repro.errors import MachineError
from repro.hashenc.search import key_of_members
from repro.ir.block import CondBr, Fall, Halt, Return, SpawnT
from repro.ir.instr import DEFAULT_COSTS, CostModel
from repro.simd import vecops

PC_DONE = -2
PC_IDLE = -1


def _downgrade(reason: str, fallback: str) -> str:
    """Warn that the requested backend cannot run (``reason``) and
    return the ``fallback`` that will — the one shape every downgrade
    takes, so each is visible and recorded in ``backend_used``."""
    warnings.warn(f"{reason}; running {fallback!r} instead",
                  RuntimeWarning, stacklevel=4)
    return fallback


@dataclass
class SimdResult:
    """Outcome + accounting of a meta-state SIMD run.

    ``cycles`` is control-unit time; ``body_cycles`` of it executed
    user operations, ``transition_cycles`` paid for ``globalor`` +
    hash dispatch (the only control overhead MSC retains).
    ``enabled_pe_cycles / (npes * cycles)`` is PE utilization;
    ``meta_transitions`` counts automaton steps, and ``node_visits``
    the per-node execution counts.

    ``backend_used`` names the executor that actually ran: it equals
    the requested backend unless the machine had to fall back (native
    build unavailable, trace enabled, no compiled kernels, or a foreign
    cost model — each downgrade also emits a :class:`RuntimeWarning`).
    """

    npes: int
    poly: np.ndarray
    mono: np.ndarray
    returns: np.ndarray
    pc: np.ndarray
    cycles: int
    body_cycles: int
    transition_cycles: int
    enabled_pe_cycles: int
    meta_transitions: int
    node_visits: dict[frozenset, int]
    backend_used: str = "interp"
    trace: dict | None = None  # per-PE [(block id, meta step)] when enabled

    @property
    def utilization(self) -> float:
        if self.cycles <= 0 or self.npes == 0:
            return 1.0
        return self.enabled_pe_cycles / (self.npes * self.cycles)

    @property
    def overhead_fraction(self) -> float:
        """Share of control-unit time spent on meta-state transitions."""
        if self.cycles <= 0:
            return 0.0
        return self.transition_cycles / self.cycles


#: The selectable node-body executors, fastest first — all three
#: produce bit-identical :class:`SimdResult`\s. Each has one role:
#: ``native`` is the fastest (cffi-compiled C kernels,
#: :mod:`repro.codegen.native`); ``kernels`` runs where there is no C
#: toolchain and under lazy conversion; ``interp`` is the spec oracle,
#: records per-PE traces, and runs whatever the generated code cannot.
#: Both code generators compile from the same plan tables
#: (:mod:`repro.codegen.plan`), which no executor interprets.
BACKENDS = ("native", "kernels", "interp")


def resolve_backend(backend: str | None = None) -> str:
    """Normalize the executor choice: ``None`` means ``"kernels"``;
    a name outside :data:`BACKENDS` raises :class:`MachineError`."""
    if backend is None:
        backend = "kernels"
    if backend not in BACKENDS:
        raise MachineError(
            f"unknown backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    return backend


class SimdMachine:
    """A MasPar-like SIMD machine executing a
    :class:`~repro.codegen.emit.SimdProgram`.

    Parameters
    ----------
    npes:
        Number of processing elements.
    costs:
        Cycle-cost model (``globalor_cost`` and ``dispatch_cost`` price
        the transitions).
    stack_depth / rstack_depth:
        Operand and return-selector stack sizes per PE.
    backend:
        Which executor runs the node bodies — all three produce
        bit-identical :class:`SimdResult`\\ s:

        - ``"native"``: per-node C functions and a C control unit
          generated by :mod:`repro.codegen.native`, compiled once per
          program via cffi into a content-addressed shared library
          (:mod:`repro.simd.nativert`) — one foreign call runs the
          whole automaton, with no Python per meta step. Falls back
          to ``"kernels"`` with a :class:`RuntimeWarning` when
          unavailable (no C compiler or cffi,
          ``REPRO_NATIVE_DISABLE=1``, build failure, lazy conversion,
          unresolvable static depths, or a foreign cost model); the
          fallback cascades through the ``"kernels"``
          checks below, and :attr:`SimdResult.backend_used` records
          what actually ran.
        - ``"kernels"`` (default): fused per-node functions generated by
          :mod:`repro.codegen.kernels` — one compiled kernel executes a
          whole node. Falls back to ``"interp"`` with a
          :class:`RuntimeWarning` when the kernels are unusable
          (tracing on, cost model differs from the one the program was
          emitted with, or unresolvable static depths); the run's
          :attr:`SimdResult.backend_used` records what actually ran.
          A single node the generator skipped runs on the interpretive
          path while the rest stay compiled.
        - ``"interp"``: the interpretive executor — the differential
          oracle, and the only one that records per-PE traces.
    """

    BACKENDS = BACKENDS

    def __init__(self, npes: int, costs: CostModel = DEFAULT_COSTS,
                 stack_depth: int = 64, rstack_depth: int = 256,
                 trace: bool = False, backend: str | None = None):
        if npes < 1:
            raise MachineError("need at least one PE")
        self.npes = npes
        self.costs = costs
        self.stack_depth = stack_depth
        self.rstack_depth = rstack_depth
        self.trace_enabled = trace
        self.backend = resolve_backend(backend)
        self._native = None  # loaded native library, set per run

    # ------------------------------------------------------------------
    def run(self, prog: SimdProgram, active: int | None = None,
            max_steps: int = 1_000_000,
            plan: "planmod.ProgramPlan | None" = None,
            miss_handler=None) -> SimdResult:
        """Run ``prog`` with ``active`` PEs starting in the start meta
        state (default: all) and the rest idle in the free pool.

        ``plan`` supplies a precompiled
        :class:`~repro.codegen.plan.ProgramPlan` for ``prog`` (e.g. the
        one the stage pipeline produced and cached); the compiled
        backends read its bit-weight table for ``globalor``. When
        omitted and the backend is not ``interp``, the program's own
        cached plan is used — either way nothing is rebuilt per run.

        ``miss_handler`` enables lazy conversion: a
        :class:`~repro.codegen.lazy.LazyProgram` whose ``fetch(state,
        want_kernel)`` is called before every meta step to expand,
        compile, and register the state into ``prog.nodes`` /
        ``plan.nodes`` / its kernel dict in place (and to enforce the
        resident-node bound). ``prog`` and ``plan`` must then be the
        handler's own partial ``program`` and incremental plan."""
        if active is None:
            active = self.npes
        if not (1 <= active <= self.npes):
            raise MachineError(f"active={active} out of range 1..{self.npes}")

        backend_used = self._effective_backend(prog, miss_handler)
        if backend_used == "native":
            from repro.simd import nativert

            try:
                return self._run_serial(prog, active, max_steps, plan,
                                        backend_used, miss_handler)
            except nativert.NativeKernelError as err:
                # A C kernel reported a failing lane by code; the exact
                # MachineError (message, in-order position) comes from
                # replaying on the NumPy kernels: the run is
                # deterministic and a failing run discards machine
                # state, so the replay raises exactly the error the
                # kernels backend would have.
                self._run_serial(prog, active, max_steps, plan, "kernels",
                                 miss_handler)
                raise MachineError(str(err))  # replay passed
        return self._run_serial(prog, active, max_steps, plan, backend_used,
                                miss_handler)

    def _effective_backend(self, prog: SimdProgram,
                           miss_handler=None) -> str:
        """Resolve the backend that will actually run ``prog`` —
        warning on every downgrade so a run is never mislabeled."""
        backend = self.backend
        self._native = None
        if self.trace_enabled and backend != "interp":
            return _downgrade(f"backend {backend!r} records no per-PE "
                              f"trace", "interp")
        if backend == "native":
            reason = self._native_unusable(prog, miss_handler)
            if reason is None:
                return backend
            backend = _downgrade(reason, "kernels")  # cascade below
        if backend == "kernels":
            # Lazy mode JIT-compiles kernels per node in the handler,
            # so only its global feasibility is checked up front.
            if miss_handler is not None:
                supported = miss_handler.supports_kernels
                costs = miss_handler.costs
            else:
                kern = prog.kernels()
                supported = kern is not None
                costs = kern.costs if supported else None
            if not supported:
                return _downgrade("program has no compiled kernels (static "
                                  "stack depths unresolvable)", "interp")
            if costs != self.costs:
                return _downgrade("kernels fold a different cost model "
                                  "into their constants than this "
                                  "machine's", "interp")
        return backend

    def _native_unusable(self, prog: SimdProgram,
                         miss_handler=None) -> str | None:
        """Why the native kernels cannot run ``prog`` here, or ``None``
        after loading them into ``self._native``."""
        from repro.simd import nativert

        if miss_handler is not None:
            # Documented per-node fallback: lazy conversion discovers
            # nodes mid-run, and invoking the C compiler per discovered
            # node would cost far more than it saves, so lazy runs use
            # the NumPy kernel JIT.
            return ("lazy conversion compiles nodes as they are "
                    "discovered, which the native backend does not "
                    "support")
        reason = nativert.unavailable_reason()
        if reason is not None:
            return reason
        nat = prog.native()
        if nat is None:
            return ("program has no native kernels (static stack depths "
                    "unresolvable)")
        if nat.costs != self.costs:
            return ("native kernels fold a different cost model into "
                    "their constants than this machine's")
        try:
            self._native = nativert.load_native(nat)
        except nativert.NativeBuildError as err:
            return f"native kernel build failed: {err}"
        return None

    def _initial_state(self, prog: SimdProgram,
                       active: int) -> tuple[vecops.PeState, np.ndarray]:
        st = vecops.PeState(self.npes, prog.n_poly, prog.n_mono,
                            self.stack_depth, self.rstack_depth)
        pc = np.full(self.npes, PC_IDLE, dtype=np.int64)
        (start_bid,) = prog.start if len(prog.start) == 1 else (None,)
        if start_bid is None:
            raise MachineError("start meta state must be a singleton (SPMD)")
        pc[:active] = start_bid
        return st, pc

    def _result(self, prog: SimdProgram, st: vecops.PeState,
                pc: np.ndarray, cycles: int, body_cycles: int,
                transition_cycles: int, enabled_pe_cycles: int,
                transitions: int, visits: dict, trace: dict | None,
                backend_used: str) -> SimdResult:
        returns = np.full(self.npes, np.nan)
        if prog.ret_slot is not None:
            done = pc == PC_DONE
            returns[done] = st.poly[prog.ret_slot, done]
        return SimdResult(
            npes=self.npes,
            poly=st.poly,
            mono=st.mono,
            returns=returns,
            pc=pc,
            cycles=cycles,
            body_cycles=body_cycles,
            transition_cycles=transition_cycles,
            enabled_pe_cycles=enabled_pe_cycles,
            meta_transitions=transitions,
            node_visits=visits,
            backend_used=backend_used,
            trace=trace,
        )

    def _run_serial(self, prog: SimdProgram, active: int, max_steps: int,
                    plan: "planmod.ProgramPlan | None", backend: str,
                    miss_handler=None) -> SimdResult:
        st, pc = self._initial_state(prog, active)

        cycles = 0
        body_cycles = 0
        transition_cycles = 0
        enabled_pe_cycles = 0
        transitions = 0
        visits: dict = {}
        trace: dict = {p: [] for p in range(self.npes)} if self.trace_enabled else None
        barrier_mask = key_of_members(prog.barrier_ids)
        if backend == "interp":
            plan = None
        elif plan is None:
            plan = prog.plan()

        # Fused kernels: one generated function per node (availability
        # and cost-model compatibility were resolved — with warnings —
        # by _effective_backend). Lazy mode reads the handler's live
        # kernel dict, which fetch() fills per discovered node. Nodes a
        # generator skipped fall through to the interpretive segment
        # executor lane-identically.
        kfns = None
        if backend == "kernels":
            kfns = (miss_handler.kfns if miss_handler is not None
                    else prog.kernels().fns)
        # Native: the C control unit runs whole stretches of the
        # automaton per call and hands back single steps (a node with
        # no C function, the step limit) or transitions (a dispatch it
        # cannot do in a 64-bit word) to the Python step below.
        unit = None
        if backend == "native":
            from repro.codegen.native import MSC_DISPATCH, MSC_DONE
            from repro.simd.nativert import ControlUnit

            unit = ControlUnit(self._native, pc, st)

        current = prog.start
        steps = 0
        # Set when C ran this step's body and left its transition.
        at_dispatch = False
        while True:
            if unit is not None:
                status, current, counts = unit.run(
                    current, max_steps,
                    (steps, cycles, body_cycles, transition_cycles,
                     enabled_pe_cycles, transitions))
                (steps, cycles, body_cycles, transition_cycles,
                 enabled_pe_cycles, transitions) = counts
                if status == MSC_DONE:
                    break
                at_dispatch = status == MSC_DISPATCH
            if at_dispatch:
                node = prog.nodes[current]
                at_dispatch = False
            else:
                steps += 1
                if steps > max_steps:
                    raise MachineError(
                        f"SIMD run exceeded {max_steps} meta steps")
                if miss_handler is not None:
                    miss_handler.fetch(current, want_kernel=kfns is not None)
                node = prog.nodes[current]
                visits[node.entry_members] = \
                    visits.get(node.entry_members, 0) + 1

                kfn = kfns.get(current) if kfns is not None else None
                if kfn is not None:
                    b, t, e, exited = kfn(pc, st)
                    cycles += b + t
                    body_cycles += b
                    transition_cycles += t
                    enabled_pe_cycles += e
                    if exited:
                        break
                else:
                    exited = False
                    for seg in node.segments:
                        c, e = self._exec_segment(seg, pc, st, trace, steps)
                        cycles += c
                        body_cycles += c
                        enabled_pe_cycles += e
                        if seg.can_exit:
                            cycles += self.costs.globalor_cost
                            transition_cycles += self.costs.globalor_cost
                            if not np.any(pc >= 0):
                                exited = True
                                break
                    if exited:
                        break

                transitions += 1
            if node.barrier_target is not None:
                # Compressed graphs: the all-at-barrier entry is a
                # runtime check on the aggregate (section 3.2.4).
                apc = self._globalor(pc, plan)
                cycles += self.costs.globalor_cost
                transition_cycles += self.costs.globalor_cost
                if apc == 0:
                    break
                if apc & ~barrier_mask == 0:
                    current = node.barrier_target
                    continue
            if node.encoding is not None:
                apc = self._globalor(pc, plan)
                cost = self.costs.globalor_cost + self.costs.dispatch_cost
                cycles += cost
                transition_cycles += cost
                if apc == 0:
                    break
                # Section 3.2.4: unless everyone is at a barrier, the
                # parked barrier bits are masked out of the aggregate.
                if apc & ~barrier_mask:
                    key = apc & ~barrier_mask
                else:
                    key = apc
                current = node.encoding.lookup(key)
            elif node.single_target is not None:
                cycles += self.costs.branch_cost
                transition_cycles += self.costs.branch_cost
                current = node.single_target
            else:
                # Terminal node: everyone returned.
                break

        if unit is not None:
            for key, n in unit.node_visits().items():
                members = prog.nodes[key].entry_members
                visits[members] = visits.get(members, 0) + n
        return self._result(prog, st, pc, cycles, body_cycles,
                            transition_cycles, enabled_pe_cycles,
                            transitions, visits, trace, backend)

    # ------------------------------------------------------------------
    def _globalor(self, pc: np.ndarray, plan=None) -> int:
        """The hardware ``globalor``: OR of ``1 << pc`` over live PEs.

        With a compiled plan this is one gather through the
        precomputed bit-weight table plus a ``bitwise_or`` reduction;
        the ``interp`` backend keeps the table-free loop as the
        reference."""
        live = pc[pc >= 0]
        if live.size == 0:
            return 0
        if plan is not None:
            return int(np.bitwise_or.reduce(plan.bit_weights[live]))
        apc = 0
        for bid in np.unique(live):
            apc |= 1 << int(bid)
        return apc

    def _exec_segment(self, seg, pc: np.ndarray, st: vecops.PeState,
                      trace: dict | None = None,
                      step: int = 0) -> tuple[int, int]:
        """Execute one segment: guarded body then guarded terminators.
        Returns (control-unit cycles, enabled-PE cycles)."""
        cycles = 0
        enabled = 0
        member_list = sorted(seg.members)
        if trace is not None:
            for bid in member_list:
                for pe in np.flatnonzero(pc == bid):
                    trace[int(pe)].append((bid, step))
        # Body: each schedule entry runs once, on the PEs whose pc bit
        # is in its guard.
        for entry in seg.schedule.entries:
            mask = np.isin(pc, list(entry.guards))
            idxs = np.flatnonzero(mask)
            c = self.costs.cost(entry.instr)
            cycles += c
            enabled += c * idxs.size
            vecops.exec_instr(entry.instr, idxs, st)

        # Terminators, one guarded group per member.
        new_pc = pc.copy()
        spawn_requests: list[tuple[np.ndarray, int]] = []
        for bid in member_list:
            term, is_barrier = seg.terminators[bid]
            idxs = np.flatnonzero(pc == bid)
            c = self.costs.branch_cost
            cycles += c
            enabled += c * idxs.size
            if idxs.size == 0:
                continue
            if is_barrier:
                # Executing the barrier state itself = everyone arrived;
                # proceed through its single exit.
                assert isinstance(term, Fall)
                new_pc[idxs] = term.target
            elif isinstance(term, Fall):
                new_pc[idxs] = term.target
            elif isinstance(term, CondBr):
                if np.any(st.sp[idxs] < 1):
                    raise MachineError("branch on empty stack")
                cond = st.stack[st.sp[idxs] - 1, idxs]
                st.sp[idxs] -= 1
                new_pc[idxs] = np.where(cond != 0, term.on_true, term.on_false)
            elif isinstance(term, Return):
                new_pc[idxs] = PC_DONE
            elif isinstance(term, Halt):
                new_pc[idxs] = PC_IDLE
                st.reset_pes(idxs)
            elif isinstance(term, SpawnT):
                spawn_requests.append((idxs, term.child))
                new_pc[idxs] = term.cont
            else:
                raise AssertionError(f"unknown terminator {term!r}")

        # Spawns activate idle PEs after all pc updates are staged, so a
        # child cannot be re-claimed within the same segment.
        for idxs, child in spawn_requests:
            free = np.flatnonzero(new_pc == PC_IDLE)
            if free.size < idxs.size:
                raise MachineError(
                    "spawn: not enough free PEs (section 3.2.5 requires "
                    "spawns not to exceed the number of processors)"
                )
            children = free[: idxs.size]
            st.poly[:, children] = st.poly[:, idxs]
            st.reset_pes(children)
            new_pc[children] = child
        pc[:] = new_pc
        return cycles, enabled
