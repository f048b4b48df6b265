"""Native C emission of the fused per-node kernels.

This is the second emission target of the kernel layer: where
:mod:`repro.codegen.kernels` generates one *Python* function per
automaton node (NumPy whole-lane-set operations), this module generates
one *C* function per node — fixed-width ``int64`` lane loops over the
same state arrays, with the same structural tricks:

- **stack rows are compile-time constants** — the static depth dataflow
  of :mod:`repro.codegen.plan` makes every operand-stack row a literal
  in the generated source (mixed-depth CSI entries index a ``static
  const`` per-bid table);
- **deferred materialization** — a serializable member's whole schedule
  chain runs per lane in C locals; only the rows still live at the
  member's final depth are stored back, and a branch condition flows
  straight into the fused terminator without touching the stack;
- **checks are hoisted** — operand-stack overflow collapses to one
  static ``if (MAX_ROWS > s_rows)`` guard per segment, replaying the
  per-entry checklist (the exact raise predicate of
  :func:`repro.simd.kernelrt.overflow_scan`) only when it trips;
- **accounting is closed-form** — control-unit cycles are a constant
  per segment and enabled-PE cycles a precomputed coefficient per
  member times its lane count, exactly as in the NumPy kernels.

One structural difference from the NumPy kernels: lane sets are never
materialized as index arrays. Each segment snapshots ``pc`` into a
caller-provided scratch buffer (``pc0``) and every membership test —
body guards, terminator loops, spawn parents, lane counts — reads the
snapshot while terminators write ``pc``. Scanning the snapshot yields
exactly the sets the NumPy kernels forward between segments (terminator
targets land in the next segment's members, and barrier members are
re-scanned in both designs), so counts and results are identical.

Error handling is by *code, not message*: a failing lane makes the
function return a nonzero :data:`NATIVE_ERROR_MESSAGES` code
immediately (partial writes are fine — the machine discards state on
error). The machine then replays the run on the ``kernels`` backend to
reconstruct the exact :class:`~repro.errors.MachineError`; simulation
is deterministic, so the predicate — *whether* a run fails — matches
the NumPy kernels exactly, only which of several errors surfaces first
may differ (the same documented divergence the NumPy kernels have
against the interpretive executor).

Generated functions are width-agnostic like the NumPy kernels: lane
indices are always relative to the ``pc`` pointer the function was
handed, widths come from ``n``, PE ids from ``pids``, and row strides
are passed explicitly.

The control unit is C too: ``msc_run`` (the one exported entry point)
walks the automaton itself — it calls the node functions through a
``static`` function-pointer table indexed by node number, keeps the
cycle, transition and visit accounting, computes ``globalor`` as the OR
of ``1 << pc`` over live lanes, applies the section 3.2.4 barrier
masking, evaluates each node's Listing-5 hash (:meth:`HashFn.c_expr
<repro.hashenc.search.HashFn.c_expr>`) and jumps through a ``static
const`` jump table. A native run is therefore one foreign call, not
one per meta transition. ``msc_run`` returns a status and the node it
stopped at, and resumes from any node; it hands a step back to the
machine's Python step code (:data:`MSC_STEP`) when the node has no C
function or the step limit is reached, and a transition
(:data:`MSC_DISPATCH`) when the dispatch cannot be done in a 64-bit
word: block ids past 63, a hash of another width or shape, or an
unused jump-table slot (so the Python lookup raises its exact
:class:`~repro.errors.ConversionError`). The node functions stay
non-``static`` so the compiler does not inline them into the loop,
which keeps the cold build time of a many-node program flat.

A :class:`NativeProgram` stores only the generated *source* (plus the
node numbering); compiling it to a shared library and loading it
through cffi is the runtime's job (:mod:`repro.simd.nativert`), which
is what lets the artifact travel inside the content-addressed compile
cache as text and be rebuilt — or dlopen'd from the native cache — on
any host.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.codegen import plan as planmod
from repro.codegen.kernels import _PUSHING_OPS, KernelUnsupported
from repro.hashenc.search import BranchEncoding, key_of_members
from repro.ir.instr import BINARY_OPS, UNARY_OPS, Instr, Op

#: Bump when the generated-code / runtime ABI contract changes; part of
#: the shared-library cache key (see :mod:`repro.simd.nativert`).
NATIVE_VERSION = 2

_CROSSLANE_OPS = planmod.CROSSLANE_OPS

# ----------------------------------------------------------------------
# error codes — returned by the generated functions; the machine replays
# on the kernels backend for the authoritative message, these are the
# fallback text (and documentation of the code space).
# ----------------------------------------------------------------------
E_STACK_OVERFLOW = 1
E_UNDERFLOW = 2
E_DIV_ZERO = 3
E_IDIV_ZERO = 4
E_PE_READ = 5
E_PE_WRITE = 6
E_INDEX = 7
E_RSTACK_OVERFLOW = 8
E_RSTACK_UNDERFLOW = 9
E_BRANCH_EMPTY = 10
E_SPAWN_FREE = 11

NATIVE_ERROR_MESSAGES = {
    E_STACK_OVERFLOW: "operand stack overflow",
    E_UNDERFLOW: "operand stack underflow",
    E_DIV_ZERO: "float division by zero",
    E_IDIV_ZERO: "integer division or remainder by zero",
    E_PE_READ: "parallel read from out-of-range PE",
    E_PE_WRITE: "parallel write to out-of-range PE",
    E_INDEX: "array index out of range",
    E_RSTACK_OVERFLOW: "return-selector stack overflow",
    E_RSTACK_UNDERFLOW: "return-selector stack underflow",
    E_BRANCH_EMPTY: "branch on empty stack",
    E_SPAWN_FREE: "spawn: not enough free PEs (section 3.2.5 requires "
                  "spawns not to exceed the number of processors)",
}

#: C-side parameter list of every generated node function. Strides are
#: in *elements* (``arr.strides[0] // 8``); ``pc0`` is caller-provided
#: scratch of ``n`` int64s; ``out`` receives ``body, tcost, enabled,
#: exited``; the return value is 0 or an error code.
_PARAMS = (
    "i64 *restrict pc, i64 n, "
    "double *restrict stack, i64 s_str, i64 s_rows, i64 *restrict sp, "
    "double *restrict rstack, i64 r_str, i64 r_rows, i64 *restrict rsp, "
    "double *restrict poly, i64 p_str, double *restrict mono, "
    "double *restrict pids, i64 npes, i64 *restrict pc0, i64 *restrict out"
)

#: Statuses ``msc_run`` returns besides the positive lane error codes.
#: ``MSC_DONE``: the run finished. ``MSC_STEP``: run the step of the
#: node it stopped at in Python (the node has no C function, or the
#: step limit is reached). ``MSC_DISPATCH``: the stopped node's body
#: and transition count are done; run its transition in Python.
MSC_DONE = 0
MSC_STEP = -1
MSC_DISPATCH = -2

#: The cffi ``cdef`` of the one exported entry point (ABI mode):
#: ``msc_run(at, max_steps, acc, visits, <node state>, pc0)``. ``at``
#: holds the node to start from and receives the node it stopped at;
#: ``acc`` holds the running ``steps, cycles, body_cycles,
#: transition_cycles, enabled_pe_cycles, meta_transitions`` and is
#: updated in place; ``visits`` counts visits per node number.
CDEF = (
    "int64_t msc_run(int64_t *, int64_t, int64_t *, int64_t *, "
    "int64_t *, int64_t, double *, int64_t, int64_t, int64_t *, "
    "double *, int64_t, int64_t, int64_t *, double *, int64_t, "
    "double *, double *, int64_t, int64_t *);"
)

_C_HEADER = """\
/* Native meta-state kernels generated by repro.codegen.native (v{version}).
 *
 * One function per automaton node: node(pc, ..., out) -> error code,
 * out = {{body_cycles, transition_cycles, enabled_pe_cycles, exited}},
 * and the control unit msc_run that walks the automaton over them.
 * Derived from the program plan; regenerated whenever the program
 * changes. Do not edit.
 */
#include <stdint.h>
#include <string.h>
#include <math.h>

typedef int64_t i64;
typedef uint64_t u64;
"""

#: The control unit; the generator fills in the per-node tables.
_C_RUN = """\
/* ---- control unit ---- */
typedef i64 (*node_fn)(i64 *, i64, double *, i64, i64, i64 *, double *,
                       i64, i64, i64 *, double *, i64, double *, double *,
                       i64, i64 *, i64 *);

/* statuses besides the positive lane error codes */
#define MSC_DONE {done}
#define MSC_STEP {step}
#define MSC_DISPATCH {dispatch}

/* how each node leaves: */
#define X_END 0      /* everyone returned */
#define X_NEXT 1     /* single successor NEXT[node] */
#define X_HASH 2     /* hash dispatch in jump() */
#define X_PYTHON 3   /* transition handed back to the caller */

{tables}

/* the hardware globalor: OR of 1 << pc over live lanes */
static u64 globalor(const i64 *pc, i64 n)
{{
    u64 apc = 0;
    for (i64 i = 0; i < n; i++)
        if (pc[i] >= 0) apc |= 1ULL << pc[i];
    return apc;
}}

/* node the aggregate key leads to from `node`, -1 for an unused slot;
   every hash is masked or reduced below its table size */
static i64 jump(i64 node, u64 key)
{{
    switch (node) {{
{cases}    default: return -1;
    }}
}}

i64 msc_run(i64 *restrict at, i64 max_steps, i64 *restrict acc,
            i64 *restrict visits, i64 *restrict pc, i64 n,
            double *restrict stack, i64 s_str, i64 s_rows,
            i64 *restrict sp, double *restrict rstack, i64 r_str,
            i64 r_rows, i64 *restrict rsp, double *restrict poly,
            i64 p_str, double *restrict mono, double *restrict pids,
            i64 npes, i64 *restrict pc0)
{{
    i64 cur = at[0], rc = MSC_DONE;
    i64 steps = acc[0], cycles = acc[1], body = acc[2], tcost = acc[3];
    i64 enabled = acc[4], trans = acc[5];
    i64 out[4];
    for (;;) {{
        node_fn fn = NODE_FN[cur];
        if (!fn || steps >= max_steps) {{ rc = MSC_STEP; break; }}
        steps++;
        visits[cur]++;
        rc = fn(pc, n, stack, s_str, s_rows, sp, rstack, r_str, r_rows,
                rsp, poly, p_str, mono, pids, npes, pc0, out);
        if (rc) break;
        cycles += out[0] + out[1];
        body += out[0];
        tcost += out[1];
        enabled += out[2];
        if (out[3]) break;
        trans++;
        /* transition: nothing is charged until it cannot yield */
        i64 kind = EXIT[cur], next = -1, tc = 0;
        u64 apc = 0;
        if (kind == X_PYTHON) {{ rc = MSC_DISPATCH; break; }}
        if (BARRIER[cur] >= 0) {{
            /* compressed graphs: the all-at-barrier entry (3.2.4) */
            apc = globalor(pc, n);
            tc += {goc};
            if (apc && !(apc & ~BARRIER_MASK)) next = BARRIER[cur];
        }}
        if (next < 0 && (apc || BARRIER[cur] < 0)) {{
            if (kind == X_HASH) {{
                if (BARRIER[cur] < 0) apc = globalor(pc, n);
                tc += {goc} + {dc};
                if (apc) {{
                    /* parked barrier bits are masked out unless
                       everyone is at a barrier */
                    u64 key = (apc & ~BARRIER_MASK)
                              ? (apc & ~BARRIER_MASK) : apc;
                    next = jump(cur, key);
                    if (next < 0) {{ rc = MSC_DISPATCH; break; }}
                }}
            }} else if (kind == X_NEXT) {{
                tc += {bc};
                next = NEXT[cur];
            }}
        }}
        cycles += tc;
        tcost += tc;
        if (next < 0) break;
        cur = next;
    }}
    at[0] = cur;
    acc[0] = steps; acc[1] = cycles; acc[2] = body; acc[3] = tcost;
    acc[4] = enabled; acc[5] = trans;
    return rc;
}}
"""

_C_BIN = {
    Op.ADD: "({a} + {b})",
    Op.SUB: "({a} - {b})",
    Op.MUL: "({a} * {b})",
    Op.LT: "(double)({a} < {b})",
    Op.LE: "(double)({a} <= {b})",
    Op.GT: "(double)({a} > {b})",
    Op.GE: "(double)({a} >= {b})",
    Op.EQ: "(double)({a} == {b})",
    Op.NE: "(double)({a} != {b})",
    Op.BAND: "(double)((i64)({a}) & (i64)({b}))",
    Op.BOR: "(double)((i64)({a}) | (i64)({b}))",
    Op.BXOR: "(double)((i64)({a}) ^ (i64)({b}))",
    Op.SHL: "(double)((i64)({a}) << ((i64)({b}) & 63))",
    Op.SHR: "(double)((i64)({a}) >> ((i64)({b}) & 63))",
    Op.LAND: "(double)(({a} != 0.0) && ({b} != 0.0))",
    Op.LOR: "(double)(({a} != 0.0) || ({b} != 0.0))",
}

_C_UN = {
    Op.NEG: "(-({x}))",
    Op.NOT: "(double)(({x}) == 0.0)",
    Op.BNOT: "(double)(~(i64)({x}))",
    Op.TRUNC: "trunc({x})",
    Op.BOOL: "(double)(({x}) != 0.0)",
}


def _cf(v: float) -> str:
    """An exact C99 hex-float literal for ``v``."""
    f = float(v)
    if f != f or f in (float("inf"), float("-inf")):
        raise KernelUnsupported(f"non-finite literal {f!r}")
    return f.hex()


@dataclass
class NativeProgram:
    """The generated C module of one program.

    ``c_source`` is a self-contained translation unit (all constants
    are literals); ``node_keys`` numbers the nodes (node ``i`` of
    ``msc_run`` is ``node_keys[i]``), and ``entry_names`` maps each node
    that has a C function to its name. Only text travels through the
    compile cache — compiling and dlopening is
    :mod:`repro.simd.nativert`'s job, keyed by :meth:`digest` plus the
    compiler identity.
    """

    c_source: str
    entry_names: dict
    node_keys: tuple
    costs: object
    n_poly: int
    version: int = NATIVE_VERSION

    def digest(self) -> str:
        """Content address of the generated source."""
        return hashlib.sha256(self.c_source.encode()).hexdigest()

    def stats(self) -> dict:
        """Counters for the stage report."""
        return {
            "native_nodes": len(self.entry_names),
            "native_bytes": len(self.c_source),
            "native_version": self.version,
        }


def compile_native(prog) -> NativeProgram | None:
    """Generate the native kernel module for ``prog`` (a
    :class:`~repro.codegen.emit.SimdProgram`), or ``None`` when the
    program's static stack depths are unresolvable — the machine then
    falls back to the Python backends, exactly like
    :func:`repro.codegen.kernels.compile_kernels`."""
    plan = prog.plan()
    if plan.static_depths is None:
        return None
    return _CGenerator(prog, plan).build()


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
class _CWriter:
    """Tiny indented C-source accumulator."""

    def __init__(self):
        self.lines: list[str] = []
        self.indent = 0

    def put(self, text: str = "") -> None:
        if not text:
            self.lines.append("")
        else:
            self.lines.append("    " * self.indent + text)

    def open(self, text: str) -> None:
        self.put(text)
        self.indent += 1

    def close(self, text: str = "}") -> None:
        self.indent -= 1
        self.put(text)

    def text(self) -> str:
        return "\n".join(self.lines)


def _can_serialize(sp) -> bool:
    """Same predicate as the NumPy generator: every entry has a static
    scalar depth, cannot underflow, and is lane-private."""
    return all(
        sp.depth_scalars[e] is not None
        and sp.depth_scalars[e] >= sp.instrs[e].pops()
        and sp.instrs[e].op not in _CROSSLANE_OPS
        for e in range(len(sp.instrs)))


def _entry_is_noop(sp, e) -> bool:
    """``Pop`` only moves the statically-tracked depth."""
    instr = sp.instrs[e]
    if instr.op is not Op.POP:
        return False
    gm = sp.guard_members[e]
    rel = sp.rel_depths[e]
    return all(sp.entry_depths[j] + rel[k] >= instr.pops()
               for k, j in enumerate(gm))


class _CSym:
    """Per-lane symbolic state of one member's serialized chain: stack
    rows live in C locals (or literal expressions) inside the lane
    loop; only rows still live at the member's final depth are stored
    back (deferred materialization)."""

    def __init__(self, gen, w):
        self.gen = gen
        self.w = w
        self.rows: dict[int, str] = {}
        self.written: set[int] = set()
        self.poly: dict[int, str] = {}
        self.mono: dict[int, str] = {}
        self.pids: str | None = None

    def newt(self, expr: str, ctype: str = "double") -> str:
        name = self.gen._tmp()
        self.w.put(f"{ctype} {name} = {expr};")
        return name

    def val(self, row: int) -> str:
        v = self.rows.get(row)
        if v is None:
            v = self.newt(f"stack[{row} * s_str + i]")
            self.rows[row] = v
        return v

    def set(self, row: int, v: str) -> None:
        self.rows[row] = v
        self.written.add(row)


class _CGenerator:
    def __init__(self, prog, plan):
        self.prog = prog
        self.plan = plan
        self.costs = prog.costs

    def build(self) -> NativeProgram:
        chunks = [_C_HEADER.format(version=NATIVE_VERSION)]
        entry_names: dict = {}
        keys = tuple(sorted(self.prog.nodes, key=lambda k: tuple(sorted(k))))
        for i, key in enumerate(keys):
            name = f"node_{i}"
            try:
                chunks.append(self._emit_node(i, name, key))
            except KernelUnsupported:
                continue
            entry_names[key] = name
        chunks.append(self._emit_control_unit(keys, entry_names))
        return NativeProgram(c_source="\n".join(chunks),
                             entry_names=entry_names,
                             node_keys=keys,
                             costs=self.costs,
                             n_poly=self.prog.n_poly)

    def _emit_control_unit(self, keys, entry_names) -> str:
        """``msc_run`` plus its per-node tables: function pointers, exit
        kinds, single and barrier successors, and one jump-table slice
        per hash-dispatched node."""
        index = {key: i for i, key in enumerate(keys)}
        # Aggregates wider than a machine word are dispatched in Python.
        narrow = self.plan.n_bids <= 63
        fns, exits, nexts, barriers, cases, slots = [], [], [], [], [], []
        for i, key in enumerate(keys):
            node = self.prog.nodes[key]
            fns.append(entry_names.get(key, "0"))
            kind, nxt, bar = "X_END", -1, -1
            if node.encoding is not None:
                enc = node.encoding
                kind = "X_PYTHON"
                if (narrow and isinstance(enc, BranchEncoding)
                        and enc.fn.width == 64):
                    kind = "X_HASH"
                    cases.append(f"    case {i}: return JT[{len(slots)} + "
                                 f"{enc.fn.c_expr('key')}];\n")
                    slots.extend(-1 if t is None else index[t]
                                 for t in enc.table)
            elif node.single_target is not None:
                kind, nxt = "X_NEXT", index[node.single_target]
            if node.barrier_target is not None:
                if narrow:
                    bar = index[node.barrier_target]
                else:
                    kind = "X_PYTHON"
            exits.append(kind)
            nexts.append(nxt)
            barriers.append(bar)
        mask = key_of_members(self.prog.barrier_ids) if narrow else 0
        tables = [
            f"static node_fn const NODE_FN[{len(keys)}] = "
            f"{{{', '.join(fns)}}};",
            f"static const unsigned char EXIT[{len(keys)}] = "
            f"{{{', '.join(exits)}}};",
            f"static const int32_t NEXT[{len(keys)}] = "
            f"{{{','.join(map(str, nexts))}}};",
            f"static const int32_t BARRIER[{len(keys)}] = "
            f"{{{','.join(map(str, barriers))}}};",
            f"static const u64 BARRIER_MASK = {mask:#x}ULL;",
        ]
        if slots:
            tables.append(f"static const int32_t JT[{len(slots)}] = "
                          f"{{{','.join(map(str, slots))}}};")
        return _C_RUN.format(
            tables="\n".join(tables), cases="".join(cases),
            done=MSC_DONE, step=MSC_STEP, dispatch=MSC_DISPATCH,
            goc=self.costs.globalor_cost, dc=self.costs.dispatch_cost,
            bc=self.costs.branch_cost)

    # ------------------------------------------------------------------
    def _tmp(self) -> str:
        self.tmpn += 1
        return f"t{self.tmpn}"

    def _const_table(self, s: int, e: int, table) -> str:
        name = f"_K{self.node_idx}_D{s}_{e}"
        vals = ", ".join(str(int(v)) for v in table)
        self.consts.append(
            f"static const i64 {name}[{len(table)}] = {{{vals}}};")
        return name

    def _emit_node(self, idx: int, name: str, key) -> str:
        node = self.prog.nodes[key]
        nplan = self.plan.nodes[key]
        self.node_idx = idx
        self.consts: list[str] = []
        w = _CWriter()
        w.put(f"/* node {idx}: {node.name} */")
        w.put(f"i64 {name}({_PARAMS})")
        w.open("{")
        w.put("i64 body = 0, tcost = 0, enabled = 0, exited = 0, rc = 0;")
        w.put("(void)stack; (void)s_str; (void)s_rows; (void)sp;")
        w.put("(void)rstack; (void)r_str; (void)r_rows; (void)rsp;")
        w.put("(void)poly; (void)p_str; (void)mono; (void)pids; (void)npes;")
        for s in range(len(nplan.segments)):
            self._emit_segment(w, s, nplan.segments[s], node.segments[s])
        w.put("finish:")
        w.put("out[0] = body; out[1] = tcost; out[2] = enabled; "
              "out[3] = exited;")
        w.put("return rc;")
        w.close("}")
        parts = self.consts + [w.text(), ""]
        return "\n".join(parts)

    # ------------------------------------------------------------------
    def _emit_segment(self, w, s, sp, seg) -> None:
        members = sp.member_bids
        counts = [f"c{s}_{j}" for j in range(len(members))]
        w.put(f"/* -- segment {s}: members {members} -- */")
        w.put("memcpy(pc0, pc, (size_t)n * sizeof(i64));")
        w.put("i64 " + " = 0, ".join(counts) + " = 0;")
        w.open("for (i64 i = 0; i < n; i++) {")
        for j, bid in enumerate(members):
            kw = "if" if j == 0 else "else if"
            w.put(f"{kw} (pc0[i] == {bid}) {counts[j]}++;")
        w.close()

        # closed-form accounting, exactly as the NumPy kernels
        body_const = (sum(self.costs.cost(i) for i in sp.instrs)
                      + self.costs.branch_cost * len(members))
        if body_const:
            w.put(f"body += {body_const};")
        coeffs = [self.costs.branch_cost] * len(members)
        for e, instr in enumerate(sp.instrs):
            c = self.costs.cost(instr)
            for j in sp.guard_members[e]:
                coeffs[j] += c
        terms = [f"{coeffs[j]} * {counts[j]}"
                 for j in range(len(members)) if coeffs[j]]
        if terms:
            w.put(f"enabled += {' + '.join(terms)};")

        self._emit_overflow_guard(w, s, sp, counts)

        # body (+ fused terminators on the serialized path)
        fused: set[int] = set()
        if _can_serialize(sp):
            for j in range(len(members)):
                chain = [e for e in range(len(sp.instrs))
                         if j in sp.guard_members[e]]
                live = [e for e in chain if not _entry_is_noop(sp, e)]
                if not live:
                    continue
                self._emit_member_fused(w, s, sp, j, live, counts)
                fused.add(j)
        else:
            for e in range(len(sp.instrs)):
                if _entry_is_noop(sp, e):
                    continue
                self._emit_entry_loop(w, s, sp, e, counts)

        # standalone terminators for everything not fused above
        for j in range(len(members)):
            if j not in fused:
                self._emit_term_loop(w, s, sp, j, counts)

        # spawn fills claim idle PEs only after every pc update above
        for j in range(len(members)):
            if sp.kinds[j] == planmod.K_SPAWN:
                self._emit_spawn_fill(w, s, sp, j, counts)

        if seg.can_exit:
            goc = self.costs.globalor_cost
            if goc:
                w.put(f"tcost += {goc};")
            w.open("{")
            w.put("i64 live = 0;")
            w.put("for (i64 i = 0; i < n; i++) "
                  "if (pc[i] >= 0) { live = 1; break; }")
            w.put("if (!live) { exited = 1; goto finish; }")
            w.close()

    def _emit_overflow_guard(self, w, s, sp, counts) -> None:
        """One static guard per segment; the raise predicate replays
        :func:`repro.simd.kernelrt.overflow_scan`: fail iff some pushing
        entry has a live guard member needing more rows than the stack
        holds."""
        need: dict[int, int] = {}
        max_rows = 0
        for e, instr in enumerate(sp.instrs):
            if instr.op not in _PUSHING_OPS:
                continue
            for k, j in enumerate(sp.guard_members[e]):
                rows = sp.entry_depths[j] + sp.rel_depths[e][k] + 1
                need[j] = max(need.get(j, 0), rows)
                max_rows = max(max_rows, rows)
        if not need:
            return
        cond = " || ".join(f"({counts[j]} && {r} > s_rows)"
                           for j, r in sorted(need.items()))
        w.open(f"if ({max_rows} > s_rows) {{")
        w.put(f"if ({cond}) {{ rc = {E_STACK_OVERFLOW}; goto finish; }}")
        w.close()

    # ------------------------------------------------------------------
    # serialized member chains (fused body + terminator per lane)
    # ------------------------------------------------------------------
    def _emit_member_fused(self, w, s, sp, j, live, counts) -> None:
        bid = sp.member_bids[j]
        kind = sp.kinds[j]
        fin = sp.entry_depths[j] + sp.total_delta[j]
        w.put(f"/* member {bid}: fused chain */")
        if kind == planmod.K_COND and fin < 1:
            w.put(f"if ({counts[j]}) "
                  f"{{ rc = {E_BRANCH_EMPTY}; goto finish; }}")
            return
        self.tmpn = -1
        w.open("for (i64 i = 0; i < n; i++) {")
        w.put(f"if (pc0[i] != {bid}) continue;")
        sym = _CSym(self, w)
        for e in live:
            d = sp.depth_scalars[e]
            w.put(f"/* {sp.instrs[e]} @{d} */")
            self._sym_op(w, sym, sp.instrs[e], d)
        skip_row = fin - 1 if kind == planmod.K_COND else None
        for r in sorted(sym.written):
            if r >= fin or r == skip_row:
                continue
            w.put(f"stack[{r} * s_str + i] = {sym.rows[r]};")
        cond = None
        if kind == planmod.K_COND:
            cond = sym.rows.get(fin - 1,
                                f"stack[{fin - 1} * s_str + i]")
        self._emit_term_body(w, sp, j, fin, cond)
        w.close()

    def _sym_op(self, w, sym, instr: Instr, d: int) -> None:
        """One instruction against the per-lane symbolic stack —
        same semantics as :func:`repro.simd.vecops.exec_instr`,
        element for element."""
        op = instr.op
        val, newt = sym.val, sym.newt

        if op in BINARY_OPS:
            b = val(d - 1)
            if op is Op.DIV:
                w.put(f"if ({b} == 0.0) "
                      f"{{ rc = {E_DIV_ZERO}; goto finish; }}")
                a = val(d - 2)
                sym.set(d - 2, newt(f"{a} / {b}"))
            elif op in (Op.IDIV, Op.MOD):
                a = val(d - 2)
                ib = newt(f"(i64)({b})", "i64")
                w.put(f"if ({ib} == 0) "
                      f"{{ rc = {E_IDIV_ZERO}; goto finish; }}")
                ia = newt(f"(i64)({a})", "i64")
                q = newt(f"(i64)((({ia} < 0) ? -(u64){ia} : (u64){ia}) / "
                         f"(({ib} < 0) ? -(u64){ib} : (u64){ib}))", "i64")
                sq = newt(f"(({ia} < 0) != ({ib} < 0)) ? -{q} : {q}", "i64")
                src = sq if op is Op.IDIV else f"({ia} - {sq} * {ib})"
                sym.set(d - 2, newt(f"(double){src}"))
            else:
                a = val(d - 2)
                sym.set(d - 2, newt(_C_BIN[op].format(a=a, b=b)))
            return
        if op in UNARY_OPS:
            x = val(d - 1)
            sym.set(d - 1, newt(_C_UN[op].format(x=x)))
            return
        if op is Op.PUSH:
            sym.set(d, _cf(instr.arg))
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
                v = newt(f"poly[{slot} * p_str + i]")
                sym.poly[slot] = v
            sym.set(d, v)
            return
        if op is Op.ST:
            slot = int(instr.arg)
            v = val(d - 1)
            w.put(f"poly[{slot} * p_str + i] = {v};")
            sym.poly[slot] = v
            return
        if op is Op.LDM:
            slot = int(instr.arg)
            v = sym.mono.get(slot)
            if v is None:
                v = newt(f"mono[{slot}]")
                sym.mono[slot] = v
            sym.set(d, v)
            return
        if op in (Op.LDI, Op.LDMI):
            ei = self._sym_index_check(w, sym, instr, d)
            base = int(instr.arg)
            if op is Op.LDI:
                sym.set(d - 1, newt(f"poly[({base} + {ei}) * p_str + i]"))
                # indexed slot unknown statically; keep caches valid
                # (reads don't invalidate anything)
            else:
                sym.set(d - 1, newt(f"mono[{base} + {ei}]"))
            return
        if op is Op.STI:
            ei = self._sym_index_check(w, sym, instr, d)
            v = val(d - 2)
            w.put(f"poly[({int(instr.arg)} + {ei}) * p_str + i] = {v};")
            sym.poly.clear()
            return
        if op is Op.PROCNUM:
            if sym.pids is None:
                sym.pids = newt("pids[i]")
            sym.set(d, sym.pids)
            return
        if op is Op.NPROC:
            sym.set(d, "(double)npes")
            return
        if op is Op.SEL:
            b, a, c = val(d - 1), val(d - 2), val(d - 3)
            sym.set(d - 3, newt(f"(({c}) != 0.0) ? ({a}) : ({b})"))
            return
        if op is Op.RPUSH:
            w.put(f"if (rsp[i] >= r_rows) "
                  f"{{ rc = {E_RSTACK_OVERFLOW}; goto finish; }}")
            w.put(f"rstack[rsp[i] * r_str + i] = {_cf(instr.arg)};")
            w.put("rsp[i] = rsp[i] + 1;")
            return
        if op is Op.RPOP:
            r = newt("rsp[i] - 1", "i64")
            w.put(f"if ({r} < 0) "
                  f"{{ rc = {E_RSTACK_UNDERFLOW}; goto finish; }}")
            w.put(f"rsp[i] = {r};")
            sym.set(d, newt(f"rstack[{r} * r_str + i]"))
            return
        raise KernelUnsupported(f"unhandled opcode {op}")

    def _sym_index_check(self, w, sym, instr: Instr, d: int) -> str:
        size = int(instr.arg2)
        ei = sym.newt(f"(i64)({sym.val(d - 1)})", "i64")
        w.put(f"if ({ei} < 0 || {ei} >= {size}) "
              f"{{ rc = {E_INDEX}; goto finish; }}")
        return ei

    # ------------------------------------------------------------------
    # grouped path: one guarded lane loop per schedule entry
    # ------------------------------------------------------------------
    def _emit_entry_loop(self, w, s, sp, e, counts) -> None:
        instr = sp.instrs[e]
        gm = sp.guard_members[e]
        rel = sp.rel_depths[e]
        depths = [sp.entry_depths[j] + rel[k] for k, j in enumerate(gm)]
        shallow = [j for j, d in zip(gm, depths) if d < instr.pops()]
        if shallow:
            cond = " || ".join(counts[j] for j in shallow)
            w.put(f"if ({cond}) {{ rc = {E_UNDERFLOW}; goto finish; }}")
            if len(shallow) == len(gm):
                return  # unreachable past the error
        guard = " || ".join(f"pc0[i] == {sp.member_bids[j]}" for j in gm)
        dstr = "/".join(str(d) for d in depths)
        w.put(f"/* {instr} @{dstr} */")
        self.tmpn = -1
        w.open("for (i64 i = 0; i < n; i++) {")
        w.put(f"if (!({guard})) continue;")
        if sp.depth_scalars[e] is not None:
            de = sp.depth_scalars[e]
            row = lambda off: str(de + off)  # noqa: E731
        else:
            tname = self._const_table(s, e, sp.depth_tables[e])
            w.put(f"i64 dd = {tname}[pc0[i]];")
            row = lambda off: f"(dd - {-off})" if off else "dd"  # noqa: E731
        self._emit_op_direct(w, instr, row)
        w.close()

    def _emit_op_direct(self, w, instr: Instr, row) -> None:
        """Inline one instruction against stack memory at static rows —
        the C twin of the NumPy generator's ``_emit_op``."""
        op = instr.op
        ld = lambda r: f"stack[{r} * s_str + i]"  # noqa: E731

        if op in BINARY_OPS:
            w.put(f"double b = {ld(row(-1))};")
            if op is Op.DIV:
                w.put(f"if (b == 0.0) {{ rc = {E_DIV_ZERO}; goto finish; }}")
                w.put(f"double a = {ld(row(-2))};")
                w.put(f"{ld(row(-2))} = a / b;")
            elif op in (Op.IDIV, Op.MOD):
                w.put("i64 ib = (i64)b;")
                w.put(f"if (ib == 0) {{ rc = {E_IDIV_ZERO}; goto finish; }}")
                w.put(f"double a = {ld(row(-2))};")
                w.put("i64 ia = (i64)a;")
                w.put("i64 q = (i64)(((ia < 0) ? -(u64)ia : (u64)ia) / "
                      "((ib < 0) ? -(u64)ib : (u64)ib));")
                w.put("if ((ia < 0) != (ib < 0)) q = -q;")
                if op is Op.IDIV:
                    w.put(f"{ld(row(-2))} = (double)q;")
                else:
                    w.put(f"{ld(row(-2))} = (double)(ia - q * ib);")
            else:
                w.put(f"double a = {ld(row(-2))};")
                w.put(f"{ld(row(-2))} = {_C_BIN[op].format(a='a', b='b')};")
            return
        if op in UNARY_OPS:
            w.put(f"double x = {ld(row(-1))};")
            w.put(f"{ld(row(-1))} = {_C_UN[op].format(x='x')};")
            return
        if op is Op.PUSH:
            w.put(f"{ld(row(0))} = {_cf(instr.arg)};")
            return
        if op is Op.POP:
            return  # depth change is static; underflow checked above
        if op is Op.SWAP:
            w.put(f"double a = {ld(row(-1))};")
            w.put(f"{ld(row(-1))} = {ld(row(-2))};")
            w.put(f"{ld(row(-2))} = a;")
            return
        if op is Op.DUP:
            w.put(f"{ld(row(0))} = {ld(row(-1))};")
            return
        if op is Op.LD:
            w.put(f"{ld(row(0))} = poly[{int(instr.arg)} * p_str + i];")
            return
        if op is Op.ST:
            w.put(f"poly[{int(instr.arg)} * p_str + i] = {ld(row(-1))};")
            return
        if op is Op.LDM:
            w.put(f"{ld(row(0))} = mono[{int(instr.arg)}];")
            return
        if op is Op.STM:
            # ascending lane order: the highest-indexed writer wins
            w.put(f"mono[{int(instr.arg)}] = {ld(row(-1))};")
            return
        if op is Op.LDR:
            w.put(f"i64 t = (i64){ld(row(-1))};")
            w.put(f"if (t < 0 || t >= npes) "
                  f"{{ rc = {E_PE_READ}; goto finish; }}")
            w.put(f"{ld(row(-1))} = poly[{int(instr.arg)} * p_str + t];")
            return
        if op is Op.STR:
            w.put(f"i64 t = (i64){ld(row(-1))};")
            w.put(f"if (t < 0 || t >= npes) "
                  f"{{ rc = {E_PE_WRITE}; goto finish; }}")
            # ascending lane order: conflicts resolve to the
            # highest-indexed writer, like numpy fancy assignment
            w.put(f"poly[{int(instr.arg)} * p_str + t] = {ld(row(-2))};")
            return
        if op in (Op.LDI, Op.LDMI, Op.STI, Op.STMI):
            size = int(instr.arg2)
            base = int(instr.arg)
            w.put(f"i64 ei = (i64){ld(row(-1))};")
            w.put(f"if (ei < 0 || ei >= {size}) "
                  f"{{ rc = {E_INDEX}; goto finish; }}")
            if op is Op.LDI:
                w.put(f"{ld(row(-1))} = poly[({base} + ei) * p_str + i];")
            elif op is Op.LDMI:
                w.put(f"{ld(row(-1))} = mono[{base} + ei];")
            elif op is Op.STI:
                w.put(f"poly[({base} + ei) * p_str + i] = {ld(row(-2))};")
            else:  # STMI: highest-indexed writer wins per element
                w.put(f"mono[{base} + ei] = {ld(row(-2))};")
            return
        if op is Op.PROCNUM:
            w.put(f"{ld(row(0))} = pids[i];")
            return
        if op is Op.NPROC:
            w.put(f"{ld(row(0))} = (double)npes;")
            return
        if op is Op.SEL:
            w.put(f"double b = {ld(row(-1))};")
            w.put(f"double a = {ld(row(-2))};")
            w.put(f"double c = {ld(row(-3))};")
            w.put(f"{ld(row(-3))} = (c != 0.0) ? a : b;")
            return
        if op is Op.RPUSH:
            w.put(f"if (rsp[i] >= r_rows) "
                  f"{{ rc = {E_RSTACK_OVERFLOW}; goto finish; }}")
            w.put(f"rstack[rsp[i] * r_str + i] = {_cf(instr.arg)};")
            w.put("rsp[i] = rsp[i] + 1;")
            return
        if op is Op.RPOP:
            w.put("i64 r = rsp[i] - 1;")
            w.put(f"if (r < 0) "
                  f"{{ rc = {E_RSTACK_UNDERFLOW}; goto finish; }}")
            w.put("rsp[i] = r;")
            w.put(f"{ld(row(0))} = rstack[r * r_str + i];")
            return
        raise KernelUnsupported(f"unhandled opcode {op}")

    # ------------------------------------------------------------------
    # terminators
    # ------------------------------------------------------------------
    def _emit_term_loop(self, w, s, sp, j, counts) -> None:
        bid = sp.member_bids[j]
        kind = sp.kinds[j]
        fin = sp.entry_depths[j] + sp.total_delta[j]
        w.put(f"/* terminator of block {bid} */")
        if kind == planmod.K_COND and fin < 1:
            w.put(f"if ({counts[j]}) "
                  f"{{ rc = {E_BRANCH_EMPTY}; goto finish; }}")
            return
        w.open("for (i64 i = 0; i < n; i++) {")
        w.put(f"if (pc0[i] != {bid}) continue;")
        cond = None
        if kind == planmod.K_COND:
            cond = f"stack[{fin - 1} * s_str + i]"
        self._emit_term_body(w, sp, j, fin, cond)
        w.close()

    def _emit_term_body(self, w, sp, j, fin, cond) -> None:
        kind = sp.kinds[j]
        if kind == planmod.K_FALL:
            w.put(f"pc[i] = {sp.on_true[j]};")
            if sp.total_delta[j]:
                w.put(f"sp[i] = {fin};")
        elif kind == planmod.K_COND:
            w.put(f"sp[i] = {fin - 1};")
            if sp.on_true[j] == sp.on_false[j]:
                w.put(f"pc[i] = {sp.on_true[j]};")
            else:
                w.put(f"pc[i] = (({cond}) != 0.0) "
                      f"? {sp.on_true[j]} : {sp.on_false[j]};")
        elif kind == planmod.K_RET:
            w.put("pc[i] = -2;")
        elif kind == planmod.K_HALT:
            w.put("pc[i] = -1;")
            w.put("sp[i] = 0;")
            w.put("rsp[i] = 0;")
        elif kind == planmod.K_SPAWN:
            w.put(f"pc[i] = {sp.on_false[j]};")
            if sp.total_delta[j]:
                w.put(f"sp[i] = {fin};")
        else:
            raise KernelUnsupported(f"unknown terminator kind {kind}")

    def _emit_spawn_fill(self, w, s, sp, j, counts) -> None:
        bid = sp.member_bids[j]
        w.put(f"/* spawn fill for block {bid} */")
        w.open(f"if ({counts[j]}) {{")
        w.put("i64 nfree = 0;")
        w.put("for (i64 i = 0; i < n; i++) if (pc[i] == -1) nfree++;")
        w.put(f"if (nfree < {counts[j]}) "
              f"{{ rc = {E_SPAWN_FREE}; goto finish; }}")
        w.put("i64 f = 0;")
        w.open("for (i64 i = 0; i < n; i++) {")
        w.put(f"if (pc0[i] != {bid}) continue;")
        # ascending parents claim ascending free slots, matching the
        # NumPy kernels' free[:n] pairing
        w.put("while (pc[f] != -1) f++;")
        if self.prog.n_poly:
            w.put(f"for (i64 r = 0; r < {self.prog.n_poly}; r++) "
                  "poly[r * p_str + f] = poly[r * p_str + i];")
        w.put("sp[f] = 0; rsp[f] = 0;")
        w.put(f"pc[f] = {sp.on_true[j]};")
        w.put("f++;")
        w.close()
        w.close()
