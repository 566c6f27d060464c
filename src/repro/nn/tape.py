"""Autograd tape capture + replay for fixed-shape training steps.

The define-by-run engine in :mod:`repro.nn.autograd` rebuilds the backward
graph — one :class:`~repro.nn.autograd.Tensor`, one frame, one DFS visit
per op — on *every* training step, even though the MGA training loop runs
the identical (shape, dtype) graph thousands of times once batch partitions
are frozen.  This module records that graph once and compiles it into a
:class:`TapePlan`: a flat list of zero-arg forward thunks plus a flat list
of VJP thunks in the exact reverse-topological order eager execution uses,
dispatched with zero per-node Python graph construction.

Bit-for-bit equivalence with eager mode is structural:

* the recording step *is* a normal eager step — recording only lists the
  nodes the :class:`~repro.nn.autograd.Primitive` executor builds;
* every thunk runs the primitive's own forward or VJP kernel — the very
  code eager mode runs — with pooled ``out=`` buffers in place of numpy's
  allocations (``out=`` variants of a ufunc compute the same values);
* the backward thunk order replicates the eager DFS post-order over the
  same graph, and within one node the VJPs run in parent order, as eager
  does, so gradient accumulation — float addition is commutative but not
  associative — happens in the same order;
* data-dependent values inside a step (dropout masks, softmax max-shifts)
  are recomputed by the forward kernels from fresh activations (and the
  *captured rng object*, keeping the random stream aligned).

Gradients for graph leaves (parameters and any ``requires_grad`` inputs)
land in preallocated arena buffers owned by the :class:`TapeRunner` and
shared by every plan, so ``id(p.grad)`` is stable across replayed steps and
no per-step ``xp.zeros`` is paid: the first contribution to a buffer is
written straight into it, later ones are in-place adds.  Each VJP's
declared kind drives this: ``"owned"`` results are taken as they are,
``"view"`` results are copied on first write, and an ``"id"`` contribution
that is its input's only one is fused away entirely — the input's gradient
slot aliases the output's and no thunk is emitted.

Plans carry guards — the global config epoch (bumped by every change made
through :mod:`repro.nn.runtime`), leaf array identity, and an optional
caller fingerprint — and fall back to eager re-recording when any of them
fails.  A step whose loss is not a scalar, or whose graph holds nodes built
outside the recording, raises :class:`TapeUnsupported`, permanently pinning
that step key to the eager path.
"""

from __future__ import annotations

import contextlib
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.nn import autograd
from repro.nn.autograd import Frame, Tensor, _topo
from repro.nn.backend import xp


class TapeUnsupported(RuntimeError):
    """The recorded step cannot be compiled into a replayable plan."""


class Tape:
    """Recorder attached to the autograd trace hook."""

    def __init__(self) -> None:
        self.nodes: List[Tensor] = []
        self.ids: set = set()

    def record(self, node: Tensor) -> None:
        self.nodes.append(node)
        self.ids.add(id(node))

    @contextlib.contextmanager
    def recording(self) -> Iterator["Tape"]:
        if autograd._TRACE is not None:
            raise RuntimeError("tape recording cannot be nested")
        autograd._TRACE = self
        try:
            yield self
        finally:
            autograd._TRACE = None


class _Ctx:
    """Compile-time context: value slots and the buffer pool."""

    __slots__ = ("vals", "gv", "_slots", "_pool", "_cursor")

    def __init__(self, pool: Optional[Dict] = None) -> None:
        self.vals: List[Optional[xp.ndarray]] = []
        self.gv: List[Optional[xp.ndarray]] = []
        self._slots: Dict[int, int] = {}
        self._pool: Dict = pool if pool is not None else {}
        self._cursor: Dict = {}

    def vslot(self, t: Tensor) -> int:
        s = self._slots.get(id(t))
        if s is None:
            s = len(self.vals)
            self._slots[id(t)] = s
            self.vals.append(t.data)
        return s

    def buf(self, shape, dtype) -> xp.ndarray:
        """Step-scratch array leased from the runner-wide buffer pool.

        Buffers are keyed by (shape, dtype) plus an occurrence counter, so
        within one plan every lease is a distinct array, while *different*
        plans with the same shapes alias the same memory.  Only one plan
        replays at a time and nothing leased here outlives its step (leaf
        gradients live in the separate persistent arena), so sharing is
        safe — and it keeps the replay working set at one step's worth of
        arrays instead of one per cached plan, which matters when several
        plans rotate through a cache-sized model.
        """
        key = (tuple(shape), xp.dtype(dtype).str)
        i = self._cursor.get(key, 0)
        self._cursor[key] = i + 1
        slot = self._pool.setdefault(key, [])
        while len(slot) <= i:
            slot.append(xp.empty(key[0], dtype=xp.dtype(dtype)))
        return slot[i]

    def scratch(self, shape, dtype, i=0) -> xp.ndarray:
        """Thunk-local scratch: freely aliased ACROSS thunks and plans.

        Unlike :meth:`buf` there is no occurrence cursor — every request
        for the same (shape, dtype, i) gets the *same* array, so the hot
        footprint stays one thunk's worth of temporaries no matter how many
        nodes or plans exist.  Only valid for values whose lifetime ends
        with the thunk (or, in the backward pass, with that node's
        contiguous prologue + VJP block); anything stored into
        ``vals``/``gv`` or read by a *different* node's thunk must use
        :meth:`buf`.  Distinguish concurrent uses within one thunk via
        ``i``.
        """
        key = (tuple(shape), xp.dtype(dtype).str, i)
        buf = self._pool.get(key)
        if buf is None:
            buf = self._pool[key] = xp.empty(key[0], dtype=xp.dtype(dtype))
        return buf


class _Leases:
    """Replay workspace of one node: pooled arrays of the node's dtype.

    A kernel's buffer requests come in the same order on every replay
    (the forward kernel's first, then the backward block's), so the
    ``n``-th request is served by the ``n``-th array, leased on first use.
    The forward thunk rewinds the cursor.
    """

    __slots__ = ("ctx", "dtype", "bufs", "n")

    def __init__(self, ctx: _Ctx, dtype) -> None:
        self.ctx, self.dtype, self.bufs, self.n = ctx, dtype, [], 0

    def _next(self, lease, shape, *key) -> xp.ndarray:
        n = self.n
        self.n = n + 1
        if n == len(self.bufs):
            self.bufs.append(lease(shape, self.dtype, *key))
        return self.bufs[n]

    def keep(self, shape) -> xp.ndarray:
        return self._next(self.ctx.buf, shape)

    def tmp(self, shape, i=0) -> xp.ndarray:
        return self._next(self.ctx.scratch, shape, i)


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def graph_leaves(loss: Tensor) -> List[Tensor]:
    """``requires_grad`` leaves (no producing primitive) reachable from
    ``loss``."""
    return [t for t in _topo(loss) if t._op is None]


def _ident(f: Frame, out, i: int) -> xp.ndarray:
    return f.g


def _forward_thunk(node: Tensor, f: Frame, ctx: _Ctx) -> Callable[[], None]:
    vals, fwd, w = ctx.vals, node._op.fwd, f.w
    o = ctx.vslot(node)
    out = ctx.buf(node.shape, node.dtype) if node._op.fills_out else None
    slots = [ctx.vslot(p) for p in node._parents]
    if len(slots) == 1:
        s0 = slots[0]

        def inputs():
            return (vals[s0],)
    else:
        getter = itemgetter(*slots)

        def inputs():
            return getter(vals)

    def run():
        f.xs = inputs()
        w.n = 0
        vals[o] = f.y = fwd(f, out)
    return run


def _backward_thunks(node: Tensor, f: Frame, ctx: _Ctx, gslot: Dict,
                     aliased: Dict, written: set,
                     leaf_bufs: Dict) -> List[Callable[[], None]]:
    """One thunk per gradient contribution of ``node``, in parent order,
    behind a head thunk that loads the output gradient (and runs the
    prologue); empty when every contribution is aliased away."""
    gv, prim, gs = ctx.gv, node._op, gslot[id(node)]
    thunks = []
    for i, parent in enumerate(node._parents):
        if not parent.requires_grad or id(parent) in aliased:
            continue  # aliased: its gradient slot is this node's
        kind, vjp = prim.vjp(i)
        if kind == "id":
            kind, vjp = (("view", _ident) if parent.shape == node.shape
                         else ("owned", vjp))
        slot = gslot[id(parent)]
        first = slot not in written
        written.add(slot)
        leaf = leaf_bufs.get(slot)
        if not first:  # later contributions go through scratch, then add
            acc = ctx.scratch(parent.shape, parent.dtype, "acc")
        if leaf is not None and first:
            def run(vjp=vjp, i=i, buf=leaf):
                result = vjp(f, buf, i)
                if result is not buf:
                    xp.copyto(buf, result)
        elif leaf is not None:
            def run(vjp=vjp, i=i, buf=leaf, acc=acc):
                xp.add(buf, vjp(f, acc, i), out=buf)
        elif first and kind == "owned":
            def run(vjp=vjp, i=i, slot=slot,
                    buf=ctx.buf(parent.shape, parent.dtype)):
                gv[slot] = vjp(f, buf, i)
        elif first:
            # eager _accumulate copies shared arrays on first write
            def run(vjp=vjp, i=i, slot=slot,
                    buf=ctx.buf(parent.shape, parent.dtype)):
                xp.copyto(buf, vjp(f, None, i))
                gv[slot] = buf
        else:
            def run(vjp=vjp, i=i, slot=slot, acc=acc):
                target = gv[slot]
                xp.add(target, vjp(f, acc, i), out=target)
        thunks.append(run)
    if not thunks:
        return thunks
    prologue = prim.prologue

    def head():
        f.g = gv[gs]
        if prologue is not None:
            f.p = prologue(f)
    return [head] + thunks


class TapePlan:
    """A compiled forward + backward schedule for one step shape."""

    __slots__ = ("vals", "fwd", "bwd", "loss_slot", "leaf_assigns",
                 "leaf_guards", "leaf_ids", "absent", "config_epoch",
                 "fingerprint")

    def replay(self) -> float:
        """Run one step from the precompiled thunk lists; returns the loss."""
        for p in self.absent:
            p.grad = None
        for f in self.fwd:
            f()
        loss = float(self.vals[self.loss_slot])
        for b in self.bwd:
            b()
        for t, buf in self.leaf_assigns:
            t.grad = buf
            t.grad_arena = True
        return loss

    def guards_ok(self) -> bool:
        if self.config_epoch != autograd.config_epoch():
            return False
        vals = self.vals
        for t, slot in self.leaf_guards:
            if t.data is not vals[slot]:
                return False
        return True


def compile_plan(tape: Tape, loss: Tensor, arena: Dict[int, xp.ndarray],
                 arena_refs: Dict[int, Tensor],
                 wrt: Sequence[Tensor] = (),
                 fingerprint=None, pool: Optional[Dict] = None) -> TapePlan:
    """Compile a recorded step into a :class:`TapePlan`.

    ``arena``/``arena_refs`` are the runner's persistent per-leaf gradient
    buffers (keyed by ``id``); compiling against a shared arena is what
    keeps ``id(p.grad)`` stable across every plan of a runner.  ``pool``
    is the runner's shared step-scratch buffer pool (see :meth:`_Ctx.buf`).
    """
    if loss.data.size != 1:
        raise TapeUnsupported("tape loss must be scalar")
    if id(loss) not in tape.ids:
        raise TapeUnsupported("loss tensor was not produced under recording")
    topo = _topo(loss)
    nodes = [t for t in topo if t._op is not None]
    if any(id(t) not in tape.ids for t in nodes):
        raise TapeUnsupported("graph node was not produced under recording")

    ctx = _Ctx(pool)
    # value slots for every node and every parent (constants included)
    for node in topo:
        ctx.vslot(node)
        for p in node._parents:
            ctx.vslot(p)

    # ---- contribution counting + identity-alias fusion -----------------
    counts: Dict[int, int] = {}
    ident_from: Dict[int, Tensor] = {}
    for node in reversed(nodes):
        for i, p in enumerate(node._parents):
            if not p.requires_grad:
                continue
            counts[id(p)] = counts.get(id(p), 0) + 1
            if node._op.vjp(i)[0] == "id" and p.shape == node.shape:
                ident_from[id(p)] = node
    aliased: Dict[int, Tensor] = {
        id(n): ident_from[id(n)] for n in nodes
        if counts.get(id(n)) == 1 and id(n) in ident_from}

    # resolved grad slot per topo node (leaves get their slot too; their
    # gv entry is the arena buffer)
    def resolve(t: Tensor) -> int:
        while id(t) in aliased:
            t = aliased[id(t)]
        return ctx.vslot(t)

    gslot = {id(t): resolve(t) for t in topo}
    ctx.gv = [None] * len(ctx.vals)

    # ---- leaves: arena buffers ----------------------------------------
    leaf_assigns: List[Tuple[Tensor, xp.ndarray]] = []
    leaf_guards: List[Tuple[Tensor, int]] = []
    leaf_bufs: Dict[int, xp.ndarray] = {}
    for node in topo:
        if node._op is not None:
            continue
        buf = arena.get(id(node))
        if buf is None or buf.shape != node.data.shape \
                or buf.dtype != node.data.dtype:
            buf = xp.empty_like(node.data)
            arena[id(node)] = buf
            arena_refs[id(node)] = node
        slot = ctx.vslot(node)
        ctx.gv[slot] = buf
        leaf_bufs[slot] = buf
        leaf_assigns.append((node, buf))
        leaf_guards.append((node, slot))

    # ---- forward schedule (recorded execution order, needed nodes only)
    frames = {id(n): Frame(n._frame.a, None, _Leases(ctx, n.dtype))
              for n in nodes}
    fwd = [_forward_thunk(n, frames[id(n)], ctx)
           for n in tape.nodes if id(n) in frames]

    # ---- backward schedule --------------------------------------------
    gv = ctx.gv
    loss_slot = ctx.vslot(loss)
    seed = xp.ones_like(loss.data)
    bwd: List[Callable[[], None]] = [lambda: gv.__setitem__(loss_slot, seed)]
    written = {loss_slot}
    for node in reversed(nodes):
        bwd.extend(_backward_thunks(node, frames[id(node)], ctx, gslot,
                                    aliased, written, leaf_bufs))

    plan = TapePlan()
    plan.vals = ctx.vals
    plan.fwd = fwd
    plan.bwd = bwd
    plan.loss_slot = loss_slot
    plan.leaf_assigns = leaf_assigns
    plan.leaf_guards = leaf_guards
    plan.leaf_ids = frozenset(id(t) for t, _ in leaf_assigns)
    plan.absent = [p for p in wrt if id(p) not in plan.leaf_ids]
    plan.config_epoch = autograd.config_epoch()
    plan.fingerprint = fingerprint
    return plan


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
class TapeRunner:
    """Record-once / replay-forever driver for a training loop.

    One runner owns the gradient arena and a plan cache keyed by the
    caller's step key (e.g. the minibatch index).  ``step`` runs the
    forward closure under recording the first time a key is seen — that
    step is a *normal eager step* — compiles a plan, and replays it on
    every subsequent call whose guards and fingerprint still match.
    Unsupported graphs permanently pin their key to the eager path.
    """

    def __init__(self, wrt: Optional[Sequence[Tensor]] = None,
                 max_plans: int = 256):
        self.wrt: List[Tensor] = list(wrt) if wrt is not None else []
        self.max_plans = int(max_plans)
        self.plans: Dict[object, TapePlan] = {}
        self.unsupported: set = set()
        self.arena: Dict[int, xp.ndarray] = {}
        self._arena_refs: Dict[int, Tensor] = {}
        #: step-scratch buffers shared by every plan of this runner
        self.pool: Dict = {}
        self.replays = 0
        self.records = 0
        self.eager_steps = 0
        self.guard_failures = 0

    # ------------------------------------------------------------------
    def step(self, key, forward_fn: Callable[[], Tensor],
             fingerprint=None) -> float:
        """One training step: forward + backward; returns ``float(loss)``.

        Gradients land on the leaf tensors (``p.grad``); the caller runs
        the optimiser.  Parameters in ``wrt`` that do not participate in
        this step's graph get ``grad = None``, exactly as an eager
        ``optimizer.zero_grad()`` would leave them.
        """
        plan = self.plans.get(key)
        if plan is not None:
            if plan.fingerprint == fingerprint and plan.guards_ok():
                self.replays += 1
                return plan.replay()
            del self.plans[key]
            self.guard_failures += 1
        if key in self.unsupported:
            self.eager_steps += 1
            return self._eager_step(forward_fn)
        return self._record_step(key, forward_fn, fingerprint)

    # ------------------------------------------------------------------
    def _backward_eagerly(self, loss: Tensor) -> float:
        for p in self.wrt:
            p.grad = None
        for t in graph_leaves(loss):
            t.grad = None
        loss.backward()
        return float(loss.data)

    def _eager_step(self, forward_fn: Callable[[], Tensor]) -> float:
        return self._backward_eagerly(forward_fn())

    def _record_step(self, key, forward_fn, fingerprint) -> float:
        tape = Tape()
        with tape.recording():
            loss = forward_fn()
        try:
            plan = compile_plan(tape, loss, self.arena, self._arena_refs,
                                wrt=self.wrt, fingerprint=fingerprint,
                                pool=self.pool)
        except TapeUnsupported:
            self.unsupported.add(key)
            self.eager_steps += 1
            return self._backward_eagerly(loss)
        if len(self.plans) >= self.max_plans:
            self.plans.pop(next(iter(self.plans)))
        self.plans[key] = plan
        self.records += 1
        # the recording step is itself a normal eager step
        return self._backward_eagerly(loss)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {"replays": self.replays, "records": self.records,
                "eager_steps": self.eager_steps,
                "guard_failures": self.guard_failures,
                "plans": len(self.plans)}
