"""Fused per-node execution kernels: generate-and-compile specialized
NumPy code for each meta-state automaton node.

The paper's argument against interpretation — "only the SIMD control
unit needs to have a copy of the meta-state automaton; PEs merely hold
data" (section 1.3) — applies to the *host* simulator too: the
interpretive executor (``SimdMachine._exec_segment``) walks an
instruction list through the ~30-way opcode dispatch of
:func:`repro.simd.vecops.exec_instr`, re-enters an ``np.errstate``
context per instruction, reads the per-PE stack pointers, and looks
costs up per entry. This module removes that layer of interpretation:
for every
:class:`~repro.codegen.plan.NodePlan` it emits one Python function that
executes the whole node, then ``compile()``\\ s the module once per
program. In the generated code

- **stack rows are literals** — the program-level depth dataflow of
  :func:`repro.codegen.plan._entry_depth_dataflow` makes every
  operand-stack depth a compile-time constant, so ``stack[3, lanes]``
  replaces depth arithmetic (mixed-depth CSI entries gather through a
  precomputed per-bid table);
- **stack traffic mostly disappears** — within a guarded group the
  generator executes the stack machine *symbolically*: pushed
  constants become scalar operands numpy broadcasts for free,
  intermediate results stay in temporaries, and only the rows still
  live at the end of the group are written back. A loop body like
  ``x = x * 3 + 1`` compiles to one gather, two vector ops, and one
  scatter; its branch condition flows straight into the terminator's
  ``np.where`` without ever touching the stack;
- **checks are hoisted** — operand-stack overflow checks collapse to a
  single static ``if MAX_ROWS > stack.shape[0]`` guard per segment
  (the slow path replays the checklist via
  :func:`repro.simd.kernelrt.overflow_scan`), and statically-impossible
  underflows vanish;
- **one errstate scope** wraps the whole node instead of one per
  instruction;
- **lanes flow forward** — the first segment buckets PEs with one
  ``np.flatnonzero(pc == bid)`` per member, and interior segments reuse
  the terminator outputs of the previous segment (fall-through arrays,
  conditional splits, spawn children) instead of re-scanning ``pc``;
  only barrier-wait members re-scan, because previously parked PEs may
  rejoin there;
- **accounting is closed-form** — control-unit cycles are a constant
  per segment and enabled-PE cycles a precomputed integer coefficient
  per member times its lane count.

The kernels change *nothing* about results or the simulated cost
model: ``SimdMachine`` produces bit-identical :class:`SimdResult`\\ s
across the ``native`` / ``kernels`` / ``interp`` backends. One documented
divergence exists on *failing* runs only: which of several possible
:class:`~repro.errors.MachineError`\\ s surfaces first. Overflow checks
are hoisted to the segment top (a segment that would raise both a
data-dependent error and a stack overflow reports the overflow first,
before earlier entries' side effects), and per-member re-serialization
reorders lane-private work between disjoint members (a division by
zero in member A may be reported before or after one in member B). The
error type is the same either way and machine state is discarded on
error, so no passing behavior can differ.

A :class:`KernelProgram` stores only the generated *source* (plus the
node-key -> function-name table); the compiled functions are rebuilt
lazily and dropped on pickling, which is what lets the kernels travel
inside the content-addressed compile cache — a warm hit loads the
source and compiles it, regenerating nothing.

Generated kernels are **width-agnostic**: a kernel never indexes the
PE axis with absolute ids of its own making — lane sets come from
``np.flatnonzero`` over the ``pc`` array it was handed, widths from
``pc.shape[0]``, and PE ids from ``st.pids``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.codegen import plan as planmod
from repro.ir.instr import BINARY_OPS, UNARY_OPS, Instr, Op

#: Bump when the generated-code contract with the machine changes.
#: v2: kernels are width-agnostic (see module docstring).
KERNEL_VERSION = 2

#: Ops that push one value and therefore carry an overflow check in
#: :func:`repro.simd.vecops.exec_instr` (``_over(1)``).
_PUSHING_OPS = frozenset({Op.PUSH, Op.DUP, Op.LD, Op.LDM, Op.PROCNUM,
                          Op.NPROC, Op.RPOP})

#: Cross-lane ops (mono writes, router reads/writes) — the one
#: canonical set lives on the plan layer. Their presence pins a
#: segment to the schedule-order execution; everything else is lane-private, so
#: disjoint members can be re-serialized (see
#: :meth:`_Generator._emit_body`).
_CROSSLANE_OPS = planmod.CROSSLANE_OPS

#: Binary opcodes that are a single result expression over the operand
#: gathers ``a`` (next-to-top) and ``b`` (top). Div/IDiv/Mod need their
#: zero checks and are emitted specially.
_BINEXPR = {
    Op.ADD: "a + b",
    Op.SUB: "a - b",
    Op.MUL: "a * b",
    Op.LT: "(a < b).astype(np.float64)",
    Op.LE: "(a <= b).astype(np.float64)",
    Op.GT: "(a > b).astype(np.float64)",
    Op.GE: "(a >= b).astype(np.float64)",
    Op.EQ: "(a == b).astype(np.float64)",
    Op.NE: "(a != b).astype(np.float64)",
    Op.BAND: "(a.astype(np.int64) & b.astype(np.int64)).astype(np.float64)",
    Op.BOR: "(a.astype(np.int64) | b.astype(np.int64)).astype(np.float64)",
    Op.BXOR: "(a.astype(np.int64) ^ b.astype(np.int64)).astype(np.float64)",
    Op.SHL: "(a.astype(np.int64) << (b.astype(np.int64) & 63))"
            ".astype(np.float64)",
    Op.SHR: "(a.astype(np.int64) >> (b.astype(np.int64) & 63))"
            ".astype(np.float64)",
    Op.LAND: "((a != 0) & (b != 0)).astype(np.float64)",
    Op.LOR: "((a != 0) | (b != 0)).astype(np.float64)",
}

_UNEXPR = {
    Op.NEG: "-{x}",
    Op.NOT: "({x} == 0).astype(np.float64)",
    Op.BNOT: "(~{x}.astype(np.int64)).astype(np.float64)",
    Op.TRUNC: "np.trunc({x})",
    Op.BOOL: "({x} != 0).astype(np.float64)",
}

_MODULE_HEADER = '''\
"""Fused meta-state kernels generated by repro.codegen.kernels (v{version}).

One function per automaton node, signature ``node(pc, st) ->
(body_cycles, transition_cycles, enabled_pe_cycles, exited)``. Derived
from the program plan; regenerated whenever the program changes. Do
not edit.
"""
import numpy as np

from repro.errors import MachineError
from repro.simd import kernelrt as rt

_E = rt.EMPTY
'''


class KernelUnsupported(Exception):
    """Raised internally when one node cannot be kernelized; the node
    simply runs on the machine's interpretive segment executor."""


@dataclass
class KernelProgram:
    """The generated kernel module of one program.

    ``source`` is a self-contained Python module (all constants are
    literals); ``entry_names`` maps each node's entry meta state to its
    function name. Compiled functions are built lazily from the source
    and dropped on pickling — only text travels through the compile
    cache.
    """

    source: str
    entry_names: dict
    costs: object
    version: int = KERNEL_VERSION
    _fns: dict | None = field(default=None, repr=False, compare=False)

    def digest(self) -> str:
        """Content address of the generated source."""
        return hashlib.sha256(self.source.encode()).hexdigest()

    @property
    def fns(self) -> dict:
        """``entry meta state -> compiled kernel function``, compiling
        the stored source on first use."""
        if self._fns is None:
            namespace: dict = {}
            code = compile(self.source,
                           f"<msc-kernels-{self.digest()[:12]}>", "exec")
            exec(code, namespace)
            self._fns = {key: namespace[name]
                         for key, name in self.entry_names.items()}
        return self._fns

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_fns"] = None
        return state

    def stats(self) -> dict:
        """Counters for the stage report."""
        return {
            "kernel_nodes": len(self.entry_names),
            "kernel_bytes": len(self.source),
            "kernel_version": self.version,
        }


def compile_kernels(prog) -> KernelProgram | None:
    """Generate the fused kernel module for ``prog`` (a
    :class:`~repro.codegen.emit.SimdProgram`), or ``None`` when the
    program's static stack depths are unresolvable (hand-built graphs
    with inconsistent paths) — the machine then runs the ``interp``
    backend."""
    plan = prog.plan()
    if plan.static_depths is None:
        return None
    gen = _Generator(prog, plan)
    return gen.build()


def compile_node_kernel(prog, plan, key, idx: int):
    """JIT the fused kernel of a single node — the per-node twin of
    :func:`compile_kernels` that lazy compilation calls as the runtime
    discovers nodes.

    ``prog.nodes[key]`` and ``plan.nodes[key]`` must already be
    materialized (with static depths attached — see
    :func:`repro.codegen.plan.compile_node_plan`); ``idx`` only names
    the generated function and its constants, so any unique small
    integer works. Returns ``(fn, source)`` where ``source`` is a
    self-contained module compiling to exactly ``fn`` (what a resumed
    or cache-loaded manager re-execs instead of regenerating), or
    ``None`` when this node cannot be kernelized — the machine then
    runs it on the interpretive segment executor, exactly like an eager
    program whose :class:`KernelProgram` skipped the node."""
    if plan.static_depths is None:
        return None
    gen = _Generator(prog, plan)
    name = f"node_{idx}"
    try:
        chunk = gen._emit_node(idx, name, key)
    except KernelUnsupported:
        return None
    source = "\n".join(
        [_MODULE_HEADER.format(version=KERNEL_VERSION), chunk])
    namespace: dict = {}
    exec(compile(source, f"<msc-jit-{name}>", "exec"), namespace)
    return namespace[name], source


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
class _Writer:
    """Tiny indented-source accumulator."""

    def __init__(self):
        self.lines: list[str] = []
        self.indent = 0

    def put(self, text: str = "") -> None:
        if not text:
            self.lines.append("")
        else:
            self.lines.append("    " * self.indent + text)

    def close_block(self, mark: int) -> None:
        """Keep a just-closed suite syntactically valid: emit ``pass``
        if everything since ``mark`` was comments (a group can reduce
        to nothing when its only values are forwarded scalars)."""
        if all(line.lstrip().startswith("#") or not line.strip()
               for line in self.lines[mark:]):
            self.put("pass")

    def text(self) -> str:
        return "\n".join(self.lines)


#: Symbolic value kinds. A value is ``(kind, expr)``: ``_ARRAY`` exprs
#: are temporary variables holding an array aligned to the group's lane
#: set; ``_SCALAR`` exprs are lane-independent (pushed constants,
#: ``mono`` reads, ``float(npes)``, or pure-scalar arithmetic) and rely
#: on numpy broadcasting wherever they are consumed.
_SCALAR = "s"
_ARRAY = "a"


def _npf(v: tuple) -> str:
    """The value's expression, wrapped in ``np.float64`` when it is a
    bare scalar — the templates call numpy methods (`astype`, bitwise
    ops) the Python float type lacks."""
    return v[1] if v[0] is _ARRAY else f"np.float64({v[1]})"


def _kind2(*vals: tuple) -> str:
    return _ARRAY if any(v[0] is _ARRAY for v in vals) else _SCALAR


def _literal(v: tuple) -> float | None:
    """The compile-time float value of a scalar literal operand (pushed
    constants), or ``None``. Temp names and ``float(npes)`` don't
    parse — exactly the non-constant cases."""
    if v[0] is not _SCALAR:
        return None
    try:
        return float(v[1])
    except ValueError:
        return None


class _Sym:
    """Symbolic state of one guarded same-depth entry group.

    ``rows`` maps operand-stack row -> value; ``written`` records the
    rows whose mapping differs from the stack array (deferred writes —
    flushed by the caller for rows still live at group end). ``poly`` /
    ``mono`` cache slot reads and eagerly-performed writes so a store
    followed by a load never re-gathers; router and indexed stores
    invalidate them.
    """

    def __init__(self, gen, w, lv: str, size_expr: str):
        self.gen = gen
        self.w = w
        self.lv = lv
        self.size_expr = size_expr
        self.rows: dict[int, tuple] = {}
        self.written: set[int] = set()
        self.poly: dict[int, tuple] = {}
        self.mono: dict[int, tuple] = {}
        self.pids: tuple | None = None

    def newt(self, expr: str, kind: str) -> tuple:
        name = self.gen._tmp()
        self.w.put(f"{name} = {expr}")
        return (kind, name)

    def val(self, row: int) -> tuple:
        v = self.rows.get(row)
        if v is None:
            v = self.newt(f"stack[{row}, {self.lv}]", _ARRAY)
            self.rows[row] = v
        return v

    def set(self, row: int, v: tuple) -> None:
        self.rows[row] = v
        self.written.add(row)

    def as_array(self, v: tuple) -> str:
        """Materialize a scalar as a full lane-width array — needed only
        where broadcasting cannot reproduce the per-lane semantics
        (router store targets)."""
        if v[0] is _ARRAY:
            return v[1]
        return self.newt(f"np.full({self.size_expr}, {v[1]})", _ARRAY)[1]


class _Generator:
    def __init__(self, prog, plan):
        self.prog = prog
        self.plan = plan
        self.costs = prog.costs

    def build(self) -> KernelProgram:
        chunks = [_MODULE_HEADER.format(version=KERNEL_VERSION)]
        entry_names: dict = {}
        keys = sorted(self.prog.nodes, key=lambda k: tuple(sorted(k)))
        for i, key in enumerate(keys):
            name = f"node_{i}"
            try:
                chunks.append(self._emit_node(i, name, key))
            except KernelUnsupported:
                continue
            entry_names[key] = name
        source = "\n".join(chunks)
        # Fail generation loudly (at compile time, not first run) on any
        # template bug producing invalid syntax.
        compile(source, "<msc-kernels>", "exec")
        return KernelProgram(source=source, entry_names=entry_names,
                             costs=self.costs)

    # ------------------------------------------------------------------
    def _tmp(self) -> str:
        self.tmpn += 1
        return f"t{self.tmpn}"

    def _emit_node(self, idx: int, name: str, key) -> str:
        node = self.prog.nodes[key]
        nplan = self.plan.nodes[key]
        self.consts: list[str] = []
        self.node_idx = idx
        self.tmpn = -1
        w = _Writer()
        w.put(f"def {name}(pc, st):")
        w.indent += 1
        w.put(f'"""{node.name}"""')
        w.put("stack = st.stack; sp = st.sp")
        w.put("rstack = st.rstack; rsp = st.rsp")
        w.put("poly = st.poly; mono = st.mono; npes = st.npes")
        w.put("body = 0; tcost = 0; enabled = 0")
        w.put('with np.errstate(over="ignore", invalid="ignore"):')
        w.indent += 1

        n_segs = len(nplan.segments)
        incoming: dict[int, list[str]] | None = None  # bid -> source vars
        for s in range(n_segs):
            sp = nplan.segments[s]
            seg = node.segments[s]
            members = sp.member_bids
            lanes = [f"m{s}_{j}" for j in range(len(members))]
            sizes = [f"n{s}_{j}" for j in range(len(members))]
            w.put(f"# -- segment {s}: members {members} --")

            # A. lane establishment --------------------------------------
            for j, bid in enumerate(members):
                if incoming is None or bid in self.prog.barrier_ids:
                    # First segment, or a barrier-wait member where
                    # previously parked PEs may rejoin: scan pc.
                    w.put(f"{lanes[j]} = np.flatnonzero(pc == {bid})")
                else:
                    srcs = incoming.get(bid, [])
                    if not srcs:
                        w.put(f"{lanes[j]} = _E")
                    elif len(srcs) == 1:
                        w.put(f"{lanes[j]} = {srcs[0]}")
                    else:
                        w.put(f"{lanes[j]} = rt.union(pc.shape[0], "
                              f"{', '.join(srcs)})")
            for j in range(len(members)):
                w.put(f"{sizes[j]} = {lanes[j]}.size")

            # B. closed-form accounting ----------------------------------
            body_const = (sum(self.costs.cost(i) for i in sp.instrs)
                          + self.costs.branch_cost * len(members))
            if body_const:
                w.put(f"body += {body_const}")
            coeffs = [self.costs.branch_cost] * len(members)
            for e, instr in enumerate(sp.instrs):
                c = self.costs.cost(instr)
                for j in sp.guard_members[e]:
                    coeffs[j] += c
            terms = [f"{coeffs[j]} * {sizes[j]}"
                     for j in range(len(members)) if coeffs[j]]
            if terms:
                w.put(f"enabled += {' + '.join(terms)}")

            # C. hoisted overflow scan -----------------------------------
            self._emit_overflow_guard(w, s, sp, sizes)

            # D. guarded body groups -------------------------------------
            cond_fwd = self._emit_body(w, s, sp, lanes, sizes)

            # E/G. terminators + forwarding to the next segment ----------
            if s + 1 < n_segs:
                next_members = nplan.segments[s + 1].member_bids
            else:
                next_members = None
            incoming = self._emit_terminators(w, s, sp, lanes, sizes,
                                              next_members, cond_fwd)

            # F. mid-chain exit check ------------------------------------
            if seg.can_exit:
                goc = self.costs.globalor_cost
                if goc:
                    w.put(f"tcost += {goc}")
                w.put("if not np.any(pc >= 0):")
                w.put("    return body, tcost, enabled, True")

        w.put("return body, tcost, enabled, False")
        parts = self.consts + [w.text(), ""]
        return "\n".join(parts)

    # ------------------------------------------------------------------
    def _const(self, suffix: str, literal: str) -> str:
        name = f"_K{self.node_idx}_{suffix}"
        self.consts.append(f"{name} = {literal}")
        return name

    def _emit_overflow_guard(self, w, s, sp, sizes) -> None:
        """One static guard per segment covering every pushing entry's
        overflow check (see module docstring on error-order)."""
        entries = []
        max_rows = 0
        for e, instr in enumerate(sp.instrs):
            if instr.op not in _PUSHING_OPS:
                continue
            reqs = []
            for k, j in enumerate(sp.guard_members[e]):
                rows = sp.entry_depths[j] + sp.rel_depths[e][k] + 1
                reqs.append((j, rows))
                max_rows = max(max_rows, rows)
            entries.append((instr.op.value, tuple(reqs)))
        if not entries:
            return
        cname = self._const(f"OVF{s}", repr(tuple(entries)))
        size_tuple = ", ".join(sizes) + ("," if len(sizes) == 1 else "")
        w.put(f"if {max_rows} > stack.shape[0]:")
        w.put(f"    rt.overflow_scan(stack.shape[0], {cname}, "
              f"({size_tuple}))")

    # ------------------------------------------------------------------
    def _emit_body(self, w, s, sp, lanes, sizes) -> dict:
        """The segment body. Returns the branch-condition forwarding
        map for the terminators: ``member index -> value`` when the
        member's final stack top never needs to touch the stack.

        Preferred shape: **per-member re-serialization**. Member lane
        sets are disjoint, so when every entry's depth is a static
        scalar and no cross-lane op (mono store, router) appears, each
        member's slice of the schedule can run as one straight-line
        symbolic chain — no guard-set unions, no stack round-trips at
        CSI guard alternations, and every branch condition forwards.
        The simulated cost accounting is closed-form over lane counts,
        so re-serialization cannot change it; only which of several
        *errors* surfaces first on a failing run can differ (see the
        module docstring). Segments that don't qualify fall back to
        schedule-order groups — consecutive entries sharing a guard run
        under one ``if``, symbolically when depths allow, else via
        direct per-entry emission."""
        if self._can_serialize(sp):
            return self._emit_body_serial(w, sp, lanes, sizes)
        return self._emit_body_grouped(w, s, sp, lanes, sizes)

    def _can_serialize(self, sp) -> bool:
        return all(
            sp.depth_scalars[e] is not None
            and sp.depth_scalars[e] >= sp.instrs[e].pops()
            and sp.instrs[e].op not in _CROSSLANE_OPS
            for e in range(len(sp.instrs)))

    def _emit_body_serial(self, w, sp, lanes, sizes) -> dict:
        cond_fwd: dict[int, tuple] = {}
        for j in range(len(sp.member_bids)):
            chain = [e for e in range(len(sp.instrs))
                     if j in sp.guard_members[e]]
            live = [e for e in chain if not self._entry_is_noop(sp, e)]
            if not live:
                continue
            w.put(f"if {sizes[j]}:")
            w.indent += 1
            mark = len(w.lines)
            fwd = self._emit_group_symbolic(w, sp, chain, live, lanes[j],
                                            sizes[j], j)
            if fwd is not None:
                cond_fwd[j] = fwd
            w.close_block(mark)
            w.indent -= 1
        return cond_fwd

    def _emit_body_grouped(self, w, s, sp, lanes, sizes) -> dict:
        groups: list[tuple[tuple, list[int]]] = []
        e = 0
        n_entries = len(sp.instrs)
        while e < n_entries:
            gm = sp.guard_members[e]
            end = e
            while end + 1 < n_entries and sp.guard_members[end + 1] == gm:
                end += 1
            groups.append((gm, list(range(e, end + 1))))
            e = end + 1
        last_group: dict[int, int] = {}
        for gi, (gm, _) in enumerate(groups):
            for j in gm:
                last_group[j] = gi

        cond_fwd: dict[int, tuple] = {}
        union_vars: dict[tuple, str] = {}
        for gi, (gm, span) in enumerate(groups):
            live = [ei for ei in span if not self._entry_is_noop(sp, ei)]
            if not live:
                continue
            cond = " or ".join(sizes[j] for j in gm)
            w.put(f"if {cond}:")
            w.indent += 1
            mark = len(w.lines)
            if len(gm) == 1:
                lv = lanes[gm[0]]
                size_expr = sizes[gm[0]]
            else:
                # Lanes are stable for the whole body (pc moves in the
                # terminators), so one union per guard set suffices.
                lv = union_vars.get(gm)
                if lv is None:
                    lv = f"u{s}_{gi}"
                    w.put(f"{lv} = rt.union(pc.shape[0], "
                          f"{', '.join(lanes[j] for j in gm)})")
                    union_vars[gm] = lv
                size_expr = f"{lv}.size"
            symbolic = all(
                sp.depth_scalars[ei] is not None
                and sp.depth_scalars[ei] >= sp.instrs[ei].pops()
                for ei in span)
            if symbolic:
                # Forward the final stack top to the terminator only
                # from the member's *last* group, and only when the
                # group's lanes are exactly the member's lanes.
                fwd_member = (gm[0] if len(gm) == 1
                              and last_group[gm[0]] == gi else None)
                fwd = self._emit_group_symbolic(w, sp, span, live, lv,
                                                size_expr, fwd_member)
                if fwd is not None:
                    cond_fwd[gm[0]] = fwd
            else:
                for ei in live:
                    self._emit_entry(w, s, sp, ei, lv, sizes)
            w.close_block(mark)
            w.indent -= 1
        return cond_fwd

    # ------------------------------------------------------------------
    # symbolic group execution
    # ------------------------------------------------------------------
    def _emit_group_symbolic(self, w, sp, span, live, lv, size_expr,
                             fwd_member) -> tuple | None:
        """Execute one same-guard run of entries symbolically: stack
        rows live in a mapping from row number to value (a temporary
        array variable or a broadcastable scalar expression), poly and
        mono accesses are cached per slot, and only the rows still below
        the group's final depth are written back to the stack at the
        end. ``fwd_member``'s final stack top (the branch condition) is
        handed to the terminator instead of being materialized — the
        conditional pop makes that row dead."""
        sym = _Sym(self, w, lv, size_expr)
        for ei in live:
            d = sp.depth_scalars[ei]
            instr = sp.instrs[ei]
            depths = "/".join(
                str(sp.entry_depths[j] + sp.rel_depths[ei][k])
                for k, j in enumerate(sp.guard_members[ei]))
            w.put(f"# {instr} @{depths}")
            self._sym_op(w, sym, instr, d)
        d_end = sp.depth_scalars[span[-1]] + sp.instrs[span[-1]].stack_delta()

        fwd = None
        skip_row = None
        if fwd_member is not None and sp.kinds[fwd_member] == planmod.K_COND:
            fin = (sp.entry_depths[fwd_member]
                   + sp.total_delta[fwd_member])
            if fin >= 1 and d_end == fin:
                fwd = sym.rows.get(fin - 1)
                if fwd is not None and fin - 1 in sym.written:
                    skip_row = fin - 1
        for r in sorted(sym.written):
            if r >= d_end or r == skip_row:
                continue
            w.put(f"stack[{r}, {lv}] = {sym.rows[r][1]}")
        return fwd

    def _sym_op(self, w, sym, instr: Instr, d: int) -> None:
        """One instruction against the symbolic stack at static depth
        ``d`` — same semantics and check order as :meth:`_emit_op`,
        minus the stack traffic."""
        op = instr.op
        val, newt, npf = sym.val, sym.newt, _npf

        if op in BINARY_OPS:
            b = val(d - 1)
            if op is Op.DIV:
                if _literal(b) in (None, 0.0):
                    w.put(f"if np.any({npf(b)} == 0):")
                    w.put('    raise MachineError('
                          '"float division by zero")')
                a = val(d - 2)
                sym.set(d - 2, newt(f"{a[1]} / {b[1]}", _kind2(a, b)))
            elif op in (Op.IDIV, Op.MOD):
                a = val(d - 2)
                lit = _literal(b)
                ilit = (int(lit) if lit is not None
                        and lit == int(lit) and 0 < abs(lit) < 2 ** 62
                        else None)
                if ilit is not None:
                    # Constant divisor: the zero check, |divisor| and
                    # its sign fold away at generation time.
                    w.put(f"ia = {npf(a)}.astype(np.int64)")
                    w.put(f"q = np.abs(ia) // {abs(ilit)}")
                    flip = "ia < 0" if ilit > 0 else "ia >= 0"
                    w.put(f"q = np.where({flip}, -q, q)")
                    src = "q" if op is Op.IDIV else f"(ia - q * {ilit})"
                else:
                    w.put(f"ib = {npf(b)}.astype(np.int64)")
                    w.put("if np.any(ib == 0):")
                    w.put('    raise MachineError('
                          '"integer division or remainder by zero")')
                    w.put(f"ia = {npf(a)}.astype(np.int64)")
                    w.put("q = np.abs(ia) // np.abs(ib)")
                    w.put("q = np.where((ia < 0) != (ib < 0), -q, q)")
                    src = "q" if op is Op.IDIV else "(ia - q * ib)"
                sym.set(d - 2, newt(f"{src}.astype(np.float64)",
                                    _kind2(a, b)))
            else:
                a = val(d - 2)
                if op in (Op.ADD, Op.SUB, Op.MUL):
                    sign = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*"}[op]
                    expr = f"{a[1]} {sign} {b[1]}"
                else:
                    expr = (_BINEXPR[op].replace("a", npf(a), 1)
                            .replace("b", npf(b), 1))
                sym.set(d - 2, newt(expr, _kind2(a, b)))
            return
        if op in UNARY_OPS:
            x = val(d - 1)
            if op is Op.NEG:
                expr = f"-({x[1]})"
            elif op is Op.TRUNC:
                expr = f"np.trunc({x[1]})"
            else:
                expr = _UNEXPR[op].format(x=npf(x))
            sym.set(d - 1, newt(expr, x[0]))
            return
        if op is Op.PUSH:
            sym.set(d, (_SCALAR, repr(float(instr.arg))))
            return
        if op is Op.POP:
            return
        if op is Op.SWAP:
            b, a = val(d - 1), val(d - 2)
            sym.set(d - 1, a)
            sym.set(d - 2, b)
            return
        if op is Op.DUP:
            sym.set(d, val(d - 1))
            return
        if op is Op.LD:
            slot = int(instr.arg)
            v = sym.poly.get(slot)
            if v is None:
                v = newt(f"poly[{slot}, {sym.lv}]", _ARRAY)
                sym.poly[slot] = v
            sym.set(d, v)
            return
        if op is Op.ST:
            slot = int(instr.arg)
            v = val(d - 1)
            w.put(f"poly[{slot}, {sym.lv}] = {v[1]}")
            sym.poly[slot] = v
            return
        if op is Op.LDM:
            slot = int(instr.arg)
            v = sym.mono.get(slot)
            if v is None:
                v = newt(f"mono[{slot}]", _SCALAR)
                sym.mono[slot] = v
            sym.set(d, v)
            return
        if op is Op.STM:
            slot = int(instr.arg)
            v = val(d - 1)
            if v[0] is _SCALAR:
                w.put(f"mono[{slot}] = {v[1]}")
                sym.mono[slot] = v
            else:
                # Broadcast: the highest-indexed enabled writer wins.
                w.put(f"mono[{slot}] = {v[1]}[-1]")
                sym.mono[slot] = (_SCALAR, f"{v[1]}[-1]")
            return
        if op is Op.LDR:
            t = newt(f"{npf(val(d - 1))}.astype(np.int64)", val(d - 1)[0])
            w.put(f"if np.any(({t[1]} < 0) | ({t[1]} >= npes)):")
            w.put('    raise MachineError('
                  '"parallel read from out-of-range PE")')
            sym.set(d - 1, newt(f"poly[{int(instr.arg)}, {t[1]}]", t[0]))
            return
        if op is Op.STR:
            t = sym.as_array(val(d - 1))
            v = val(d - 2)
            w.put(f"ri = {t}.astype(np.int64)")
            w.put("if np.any((ri < 0) | (ri >= npes)):")
            w.put('    raise MachineError('
                  '"parallel write to out-of-range PE")')
            w.put(f"poly[{int(instr.arg)}, ri] = {v[1]}")
            sym.poly.pop(int(instr.arg), None)
            return
        if op in (Op.LDI, Op.LDMI):
            ei = self._sym_index_check(w, sym, instr, d)
            base = int(instr.arg)
            if op is Op.LDI:
                sym.set(d - 1, newt(f"poly[{base} + {ei[1]}, {sym.lv}]",
                                    _ARRAY))
            else:
                sym.set(d - 1, newt(f"mono[{base} + {ei[1]}]", ei[0]))
            return
        if op in (Op.STI, Op.STMI):
            ei = self._sym_index_check(w, sym, instr, d)
            v = val(d - 2)
            base = int(instr.arg)
            if op is Op.STI:
                w.put(f"poly[{base} + {ei[1]}, {sym.lv}] = {v[1]}")
                sym.poly.clear()
            else:
                # Broadcast store; colliding elements resolve to the
                # highest-indexed writer (fancy-assignment order).
                w.put(f"mono[{base} + {ei[1]}] = {v[1]}")
                sym.mono.clear()
            return
        if op is Op.PROCNUM:
            if sym.pids is None:
                sym.pids = newt(f"st.pids[{sym.lv}]", _ARRAY)
            sym.set(d, sym.pids)
            return
        if op is Op.NPROC:
            sym.set(d, (_SCALAR, "float(npes)"))
            return
        if op is Op.SEL:
            b, a, c = val(d - 1), val(d - 2), val(d - 3)
            kind = _ARRAY if _ARRAY in (a[0], b[0], c[0]) else _SCALAR
            sym.set(d - 3, newt(
                f"np.where({npf(c)} != 0, {a[1]}, {b[1]})", kind))
            return
        if op is Op.RPUSH:
            w.put(f"r = rsp[{sym.lv}]")
            w.put("if int(r.max()) >= rstack.shape[0]:")
            w.put('    raise MachineError('
                  '"return-selector stack overflow")')
            w.put(f"rstack[r, {sym.lv}] = {float(instr.arg)!r}")
            w.put(f"rsp[{sym.lv}] = r + 1")
            return
        if op is Op.RPOP:
            w.put(f"r = rsp[{sym.lv}] - 1")
            w.put("if int(r.min()) < 0:")
            w.put('    raise MachineError('
                  '"return-selector stack underflow")')
            w.put(f"rsp[{sym.lv}] = r")
            sym.set(d, newt(f"rstack[r, {sym.lv}]", _ARRAY))
            return
        raise KernelUnsupported(f"unhandled opcode {op}")

    def _sym_index_check(self, w, sym, instr: Instr, d: int) -> tuple:
        size = int(instr.arg2)
        msg = f"array index out of range 0..{size - 1} in {instr}"
        v = sym.val(d - 1)
        ei = sym.newt(f"{_npf(v)}.astype(np.int64)", v[0])
        w.put(f"if np.any(({ei[1]} < 0) | ({ei[1]} >= {size})):")
        w.put(f"    raise MachineError({msg!r})")
        return ei

    def _entry_is_noop(self, sp, e) -> bool:
        """``Pop`` moves the (statically tracked) depth only — unless it
        statically underflows, it generates no code at all."""
        instr = sp.instrs[e]
        if instr.op is not Op.POP:
            return False
        gm = sp.guard_members[e]
        rel = sp.rel_depths[e]
        return all(sp.entry_depths[j] + rel[k] >= instr.pops()
                   for k, j in enumerate(gm))

    def _emit_entry(self, w, s, sp, e, lv, sizes) -> None:
        instr = sp.instrs[e]
        gm = sp.guard_members[e]
        rel = sp.rel_depths[e]
        depths = [sp.entry_depths[j] + rel[k] for k, j in enumerate(gm)]
        # Statically-known underflow (hand-built programs only —
        # verified CFGs cannot reach here): raise exactly when a shallow
        # member has live lanes, in schedule position.
        shallow = [j for j, d in zip(gm, depths) if d < instr.pops()]
        if shallow:
            cond = " or ".join(sizes[j] for j in shallow)
            w.put(f"if {cond}:")
            w.put(f'    raise MachineError('
                  f'"operand stack underflow executing {instr.op.value}")')
            if len(shallow) == len(gm):
                return  # unreachable past the raise
        w.put(f"# {instr} @{'/'.join(str(d) for d in depths)}")
        if sp.depth_scalars[e] is not None:
            self._emit_op(w, instr, lv, sp.depth_scalars[e])
        else:
            table = sp.depth_tables[e]
            cname = self._const(
                f"D{s}_{e}",
                f"np.array({list(map(int, table))!r}, dtype=np.int64)")
            w.put(f"dv = {cname}[pc[{lv}]]")
            self._emit_op(w, instr, lv, None)

    # ------------------------------------------------------------------
    def _emit_op(self, w, instr: Instr, lv: str, depth: int | None) -> None:
        """Inline the semantics of one instruction for lanes ``lv`` at
        static ``depth`` (or the per-lane vector ``dv`` when ``None``),
        mirroring :func:`repro.simd.vecops.exec_instr` expression for
        expression."""
        op = instr.op

        if depth is None:
            # Mixed-depth entry: bind the needed row vectors once.
            need = _rows_needed(instr)
            names = {}
            for off in need:
                rname = f"r{-off}" if off < 0 else "r0"
                w.put(f"{rname} = dv - {-off}" if off < 0
                      else f"{rname} = dv")
                names[off] = rname
            row = lambda off: names[off]  # noqa: E731
        else:
            row = lambda off: str(depth + off)  # noqa: E731

        if op in BINARY_OPS:
            if op is Op.DIV:
                w.put(f"b = stack[{row(-1)}, {lv}]")
                w.put("if np.any(b == 0):")
                w.put('    raise MachineError("float division by zero")')
                w.put(f"a = stack[{row(-2)}, {lv}]")
                w.put(f"stack[{row(-2)}, {lv}] = a / b")
            elif op in (Op.IDIV, Op.MOD):
                w.put(f"b = stack[{row(-1)}, {lv}]")
                w.put(f"a = stack[{row(-2)}, {lv}]")
                w.put("ib = b.astype(np.int64)")
                w.put("if np.any(ib == 0):")
                w.put('    raise MachineError('
                      '"integer division or remainder by zero")')
                w.put("ia = a.astype(np.int64)")
                w.put("q = np.abs(ia) // np.abs(ib)")
                w.put("q = np.where((ia < 0) != (ib < 0), -q, q)")
                if op is Op.IDIV:
                    w.put(f"stack[{row(-2)}, {lv}] = q.astype(np.float64)")
                else:
                    w.put(f"stack[{row(-2)}, {lv}] = "
                          f"(ia - q * ib).astype(np.float64)")
            else:
                w.put(f"b = stack[{row(-1)}, {lv}]")
                w.put(f"a = stack[{row(-2)}, {lv}]")
                w.put(f"stack[{row(-2)}, {lv}] = {_BINEXPR[op]}")
            return
        if op in UNARY_OPS:
            x = f"stack[{row(-1)}, {lv}]"
            w.put(f"{x} = {_UNEXPR[op].format(x=x)}")
            return
        if op is Op.PUSH:
            w.put(f"stack[{row(0)}, {lv}] = {float(instr.arg)!r}")
            return
        if op is Op.POP:
            return  # depth change is static; underflow checked above
        if op is Op.SWAP:
            w.put(f"a = stack[{row(-1)}, {lv}]")
            w.put(f"stack[{row(-1)}, {lv}] = stack[{row(-2)}, {lv}]")
            w.put(f"stack[{row(-2)}, {lv}] = a")
            return
        if op is Op.DUP:
            w.put(f"stack[{row(0)}, {lv}] = stack[{row(-1)}, {lv}]")
            return
        if op is Op.LD:
            w.put(f"stack[{row(0)}, {lv}] = poly[{int(instr.arg)}, {lv}]")
            return
        if op is Op.ST:
            w.put(f"poly[{int(instr.arg)}, {lv}] = stack[{row(-1)}, {lv}]")
            return
        if op is Op.LDM:
            w.put(f"stack[{row(0)}, {lv}] = mono[{int(instr.arg)}]")
            return
        if op is Op.STM:
            # Broadcast: the highest-indexed enabled writer wins.
            w.put(f"mono[{int(instr.arg)}] = stack[{row(-1)}, {lv}][-1]")
            return
        if op is Op.LDR:
            w.put(f"t = stack[{row(-1)}, {lv}].astype(np.int64)")
            w.put("if np.any((t < 0) | (t >= npes)):")
            w.put('    raise MachineError('
                  '"parallel read from out-of-range PE")')
            w.put(f"stack[{row(-1)}, {lv}] = poly[{int(instr.arg)}, t]")
            return
        if op is Op.STR:
            w.put(f"t = stack[{row(-1)}, {lv}].astype(np.int64)")
            w.put(f"v = stack[{row(-2)}, {lv}]")
            w.put("if np.any((t < 0) | (t >= npes)):")
            w.put('    raise MachineError('
                  '"parallel write to out-of-range PE")')
            w.put(f"poly[{int(instr.arg)}, t] = v")
            return
        if op in (Op.LDI, Op.LDMI):
            self._emit_index_check(w, instr, lv, row)
            base = int(instr.arg)
            if op is Op.LDI:
                w.put(f"stack[{row(-1)}, {lv}] = poly[{base} + ei, {lv}]")
            else:
                w.put(f"stack[{row(-1)}, {lv}] = mono[{base} + ei]")
            return
        if op in (Op.STI, Op.STMI):
            self._emit_index_check(w, instr, lv, row)
            w.put(f"v = stack[{row(-2)}, {lv}]")
            base = int(instr.arg)
            if op is Op.STI:
                w.put(f"poly[{base} + ei, {lv}] = v")
            else:
                # Broadcast store; colliding elements resolve to the
                # highest-indexed writer (fancy-assignment order).
                w.put(f"mono[{base} + ei] = v")
            return
        if op is Op.PROCNUM:
            w.put(f"stack[{row(0)}, {lv}] = st.pids[{lv}]")
            return
        if op is Op.NPROC:
            w.put(f"stack[{row(0)}, {lv}] = float(npes)")
            return
        if op is Op.SEL:
            w.put(f"b = stack[{row(-1)}, {lv}]")
            w.put(f"a = stack[{row(-2)}, {lv}]")
            w.put(f"c = stack[{row(-3)}, {lv}]")
            w.put(f"stack[{row(-3)}, {lv}] = np.where(c != 0, a, b)")
            return
        if op is Op.RPUSH:
            w.put(f"r = rsp[{lv}]")
            w.put("if int(r.max()) >= rstack.shape[0]:")
            w.put('    raise MachineError('
                  '"return-selector stack overflow")')
            w.put(f"rstack[r, {lv}] = {float(instr.arg)!r}")
            w.put(f"rsp[{lv}] = r + 1")
            return
        if op is Op.RPOP:
            w.put(f"r = rsp[{lv}] - 1")
            w.put("if int(r.min()) < 0:")
            w.put('    raise MachineError('
                  '"return-selector stack underflow")')
            w.put(f"rsp[{lv}] = r")
            w.put(f"stack[{row(0)}, {lv}] = rstack[r, {lv}]")
            return
        raise KernelUnsupported(f"unhandled opcode {op}")

    def _emit_index_check(self, w, instr: Instr, lv: str, row) -> None:
        size = int(instr.arg2)
        msg = f"array index out of range 0..{size - 1} in {instr}"
        w.put(f"ei = stack[{row(-1)}, {lv}].astype(np.int64)")
        w.put(f"if np.any((ei < 0) | (ei >= {size})):")
        w.put(f"    raise MachineError({msg!r})")

    # ------------------------------------------------------------------
    def _emit_terminators(self, w, s, sp, lanes, sizes,
                          next_members, cond_fwd) -> dict | None:
        """Per-member guarded terminators, spawn fills last (matching
        the staged-update order of the table executor). Returns the
        lane-forwarding map for the next segment, or ``None`` after the
        last one."""
        members = sp.member_bids
        # Which lane variables feed which next-segment members.
        produced: list[tuple[int, str]] = []
        split_needed: set[int] = set()
        spawns: list[int] = []
        for j in range(len(members)):
            kind = sp.kinds[j]
            if kind == planmod.K_FALL:
                produced.append((sp.on_true[j], lanes[j]))
            elif kind == planmod.K_COND:
                if sp.on_true[j] == sp.on_false[j]:
                    produced.append((sp.on_true[j], lanes[j]))
                else:
                    produced.append((sp.on_true[j], f"{lanes[j]}t"))
                    produced.append((sp.on_false[j], f"{lanes[j]}f"))
            elif kind == planmod.K_SPAWN:
                spawns.append(j)
                produced.append((sp.on_true[j], f"{lanes[j]}c"))
                produced.append((sp.on_false[j], lanes[j]))

        incoming: dict[int, list[str]] = {}
        if next_members is not None:
            for bid in next_members:
                if bid in self.prog.barrier_ids:
                    continue  # re-scanned: parked PEs may rejoin
                srcs = [var for (t, var) in produced if t == bid]
                incoming[bid] = srcs
                for j in range(len(members)):
                    if f"{lanes[j]}t" in srcs or f"{lanes[j]}f" in srcs:
                        split_needed.add(j)

        for j, bid in enumerate(members):
            kind = sp.kinds[j]
            fin = sp.entry_depths[j] + sp.total_delta[j]
            lv = lanes[j]
            w.put(f"# terminator of block {bid}")
            if kind == planmod.K_COND and j in split_needed:
                w.put(f"{lv}t = {lv}f = _E")
            w.put(f"if {sizes[j]}:")
            w.indent += 1
            if kind == planmod.K_FALL:
                w.put(f"pc[{lv}] = {sp.on_true[j]}")
                if sp.total_delta[j]:
                    w.put(f"sp[{lv}] = {fin}")
            elif kind == planmod.K_COND:
                if fin < 1:
                    w.put('raise MachineError("branch on empty stack")')
                else:
                    fwd = cond_fwd.get(j)
                    if fwd is None:
                        cexpr = f"stack[{fin - 1}, {lv}]"
                    elif fwd[0] is _ARRAY or j not in split_needed:
                        cexpr = fwd[1]
                    else:
                        # Scalar condition but the successors need the
                        # split lane sets: widen it once.
                        w.put(f"cond = np.full({sizes[j]}, {fwd[1]})")
                        cexpr = "cond"
                    w.put(f"sp[{lv}] = {fin - 1}")
                    if j in split_needed:
                        w.put(f"tk = {cexpr} != 0")
                        w.put(f"pc[{lv}] = np.where(tk, "
                              f"{sp.on_true[j]}, {sp.on_false[j]})")
                        w.put(f"{lv}t = {lv}[tk]")
                        w.put(f"{lv}f = {lv}[~tk]")
                    else:
                        w.put(f"pc[{lv}] = np.where({cexpr} != 0, "
                              f"{sp.on_true[j]}, {sp.on_false[j]})")
            elif kind == planmod.K_RET:
                w.put(f"pc[{lv}] = -2")
            elif kind == planmod.K_HALT:
                w.put(f"pc[{lv}] = -1")
                w.put(f"sp[{lv}] = 0")
                w.put(f"rsp[{lv}] = 0")
            elif kind == planmod.K_SPAWN:
                w.put(f"pc[{lv}] = {sp.on_false[j]}")
                if sp.total_delta[j]:
                    w.put(f"sp[{lv}] = {fin}")
            else:
                raise KernelUnsupported(f"unknown terminator kind {kind}")
            w.indent -= 1

        # Spawn fills: idle PEs are claimed only after every member's pc
        # update above, re-scanning the free pool per request.
        for j in spawns:
            lv = lanes[j]
            w.put(f"# spawn fill for block {members[j]}")
            w.put(f"{lv}c = _E")
            w.put(f"if {sizes[j]}:")
            w.indent += 1
            w.put("free = np.flatnonzero(pc == -1)")
            w.put(f"if free.size < {sizes[j]}:")
            w.put("    raise MachineError(")
            w.put('        "spawn: not enough free PEs (section 3.2.5 '
                  'requires "')
            w.put('        "spawns not to exceed the number of processors)"')
            w.put("    )")
            w.put(f"{lv}c = free[:{sizes[j]}]")
            w.put(f"poly[:, {lv}c] = poly[:, {lv}]")
            w.put(f"sp[{lv}c] = 0")
            w.put(f"rsp[{lv}c] = 0")
            w.put(f"pc[{lv}c] = {sp.on_true[j]}")
            w.indent -= 1

        return incoming if next_members is not None else None


def _rows_needed(instr: Instr) -> tuple[int, ...]:
    """Stack-row offsets (relative to the pre-instruction depth) that
    :meth:`_Generator._emit_op` addresses for ``instr`` — used to bind
    row vectors once in the mixed-depth case."""
    op = instr.op
    if op in BINARY_OPS:
        return (-1, -2)
    if op in UNARY_OPS:
        return (-1,)
    if op in (Op.PUSH, Op.LD, Op.LDM, Op.PROCNUM, Op.NPROC, Op.RPOP):
        return (0,)
    if op is Op.DUP:
        return (0, -1)
    if op in (Op.ST, Op.STM, Op.LDR, Op.LDI, Op.LDMI):
        return (-1,)
    if op in (Op.SWAP, Op.STR, Op.STI, Op.STMI):
        return (-1, -2)
    if op is Op.SEL:
        return (-1, -2, -3)
    return ()
