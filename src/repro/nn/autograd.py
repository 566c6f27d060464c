"""Reverse-mode automatic differentiation over the ``xp`` backend seam.

This is the reproduction's replacement for PyTorch's autograd: a small
define-by-run :class:`Tensor` supporting the operations needed by the MGA
models (dense layers, gated graph convolutions, attention, autoencoders and
the fused classifier).  Gradients are verified against finite differences in
the test suite (``tests/test_nn_autograd.py``).

Primitives
----------

Every differentiable operation is one :class:`Primitive` declaration: a
forward kernel plus one VJP kernel per input.  Kernels write into a
caller-provided ``out`` buffer, and numpy's ``out=None`` allocates, so one
kernel body serves every execution mode:

* :func:`apply` runs the forward kernel eagerly (allocating) and links the
  result into the graph; :meth:`Tensor.backward` calls the VJPs in parent
  order.
* :func:`repro.nn.tape.compile_plan` leases pooled buffers and emits the
  *same* kernels as replay thunks, so eager and replay are bitwise
  identical by construction.
* inside a :func:`no_grad` scope forward kernels run alone: nothing is
  recorded and no parents are kept (inference).

Kernel conventions (``f`` is the node's :class:`Frame`):

``fwd(f, out) -> y``
    reads the input arrays ``f.xs`` and static attributes ``f.a``; may keep
    values its VJPs need in ``f.s``.
``prologue(f) -> p``
    optional: backward work shared by several VJPs, stored in ``f.p``.
``vjp(f, out, i) -> contribution``
    the gradient contribution to input ``i`` from the output gradient
    ``f.g`` (plus ``f.y``, ``f.xs``, ``f.s``, ``f.p``).

Each VJP names its contribution kind, which tells the executors how to
accumulate it: ``"id"`` (the output gradient itself, summed down to the
input's shape; a compiled plan aliases it instead of copying when it is
the input's only contribution), ``"view"`` (a view of ``f.g``, copied on
first write) or ``"owned"`` (a fresh array, or ``out``, taken as is).
Scratch arrays come from the frame's workspace: ``f.w.keep(shape)`` for
values that outlive the call, ``f.w.tmp(shape, i)`` for call-local
temporaries.  Both return ``None`` in eager mode and pooled arrays of the
node's output dtype in a compiled plan.

Numerics
--------

* tensors carry a float dtype (float32 or float64).  Incoming float arrays
  keep their dtype; everything else is coerced to the configurable default
  (``repro.nn.runtime.configure(default_dtype=...)``).  Python scalars are
  "weak" operands, as in PyTorch: ``x * 0.5`` never promotes a float32
  graph to float64.
* gradient accumulation is in place (``grad += g``) after the first
  contribution, instead of reallocating ``grad + g`` per edge.
* :meth:`Tensor.backward` uses an iterative topological sort, so deep graphs
  (e.g. a GGNN unrolled for many steps, or a 2000-op chain) cannot overflow
  the Python recursion limit.
* segment reductions (the message-passing primitives) run over a
  :class:`SegmentLayout`: the index is sorted once and every scatter becomes
  a gather + ``xp.add_reduceat`` over contiguous runs.
* every array operation routes through :data:`repro.nn.backend.xp`, the
  pluggable array-backend namespace.  The default numpy backend binds each
  ``xp`` entry to the numpy function itself, so this seam costs nothing and
  the numerics are bit-identical to direct numpy calls.

The process-global numeric configuration (default dtype, array backend) is
owned by :mod:`repro.nn.runtime`; every change bumps the config epoch, so
cached tape plans can never replay state recorded under a different
configuration.
"""

from __future__ import annotations

import contextlib
import threading
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from . import backend as _backend
from .backend import xp

ArrayLike = Union[xp.ndarray, float, int, Sequence[float]]

_FLOAT_DTYPES = (xp.dtype(xp.float32), xp.dtype(xp.float64))

#: Dtype used when coercing non-float data into tensors and by the parameter
#: initialisers.  float64 preserves the seed numerics; training stacks opt
#: into float32 per model (``MGAModel(dtype="float32")``) for speed.
_DEFAULT_DTYPE = xp.dtype(xp.float64)

#: Monotonic counter bumped whenever process-global numeric configuration
#: (default dtype, array backend) actually changes value.  Memoised compiled
#: state (tape plans) captures the epoch at build time and treats a mismatch
#: as a guard failure, so a mid-process change can never replay stale
#: kernels.
_CONFIG_EPOCH = 0

#: Active tape recorder (see :mod:`repro.nn.tape`), or ``None`` when ops run
#: purely eagerly.  Set only via ``Tape.recording()``.
_TRACE = None


class _GradMode(threading.local):
    """Per-thread switch flipped by :func:`no_grad` (a serving thread's
    inference must not disable graph building in a training thread)."""

    enabled = True


_GRAD_MODE = _GradMode()


def config_epoch() -> int:
    """Current global-config epoch (see ``_CONFIG_EPOCH``)."""
    return _CONFIG_EPOCH


def _bump_config_epoch() -> None:
    global _CONFIG_EPOCH
    _CONFIG_EPOCH += 1


# a backend switch invalidates every compiled tape plan exactly like a
# dtype change does
_backend.add_change_hook(_bump_config_epoch)


def _set_default_dtype_impl(dtype) -> None:
    """Knob storage for the default dtype; called by :mod:`repro.nn.runtime`
    and the :func:`default_dtype` context manager."""
    global _DEFAULT_DTYPE
    dtype = xp.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError("default dtype must be float32 or float64")
    if dtype != _DEFAULT_DTYPE:
        _bump_config_epoch()
    _DEFAULT_DTYPE = dtype


def get_default_dtype() -> xp.dtype:
    """The current default float dtype (see :mod:`repro.nn.runtime`)."""
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def default_dtype(dtype) -> Iterator[None]:
    """Context manager that temporarily overrides the default dtype."""
    previous = _DEFAULT_DTYPE
    _set_default_dtype_impl(dtype)
    try:
        yield
    finally:
        _set_default_dtype_impl(previous)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Run forward kernels only: no graph, no tape records, no parents.

    Results inside the scope never require grad, whatever their inputs.
    The switch is per thread.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


# ----------------------------------------------------------------------
# primitive declarations
# ----------------------------------------------------------------------
class _Allocate:
    """Eager workspace: every buffer request lets numpy allocate."""

    __slots__ = ()

    def keep(self, shape):
        return None

    def tmp(self, shape, i=0):
        return None


_ALLOCATE = _Allocate()


class Frame:
    """Per-node kernel state: attributes, input/output arrays, saved values.

    Eager nodes own one frame each; a compiled tape plan builds its own
    frames (with a pooled workspace) and refreshes ``xs``/``y``/``g`` on
    every replay.
    """

    __slots__ = ("a", "xs", "y", "s", "p", "g", "w")

    def __init__(self, a, xs, w=_ALLOCATE):
        self.a = a
        self.xs = xs
        self.y = self.s = self.p = self.g = None
        self.w = w


class Primitive:
    """A forward kernel plus one ``(kind, vjp)`` pair per input.

    ``vjps`` lists the pairs in input order; the last pair also serves any
    further inputs (variadic primitives such as ``concat`` declare one).
    ``fills_out=False`` marks forward kernels that return a view or a
    fresh array instead of writing ``out``, so plans lease no buffer for
    them.
    """

    __slots__ = ("name", "fwd", "vjps", "prologue", "fills_out")

    def __init__(self, name: str, fwd: Callable, vjps: Sequence[tuple],
                 prologue: Optional[Callable] = None,
                 fills_out: bool = True):
        self.name = name
        self.fwd = fwd
        self.vjps = tuple(vjps)
        self.prologue = prologue
        self.fills_out = fills_out

    def vjp(self, i: int) -> tuple:
        return self.vjps[min(i, len(self.vjps) - 1)]


#: Every declared primitive by name (the property tests iterate this).
PRIMITIVES: Dict[str, Primitive] = {}


def primitive(name: str, fwd: Callable, vjps: Sequence[tuple],
              prologue: Optional[Callable] = None,
              fills_out: bool = True) -> Primitive:
    """Declare and register a primitive (see the module docstring)."""
    if name in PRIMITIVES:
        raise ValueError(f"primitive {name!r} is already declared")
    prim = PRIMITIVES[name] = Primitive(name, fwd, vjps, prologue, fills_out)
    return prim


def apply(prim: Primitive, parents: Tuple["Tensor", ...], a=None) -> "Tensor":
    """Run ``prim`` eagerly on ``parents`` and link the result into the graph.

    The result requires grad when any parent does and no :func:`no_grad`
    scope is active; only then does it keep its parents and frame (and
    show up on an active tape).
    """
    f = Frame(a, tuple(p.data for p in parents))
    f.y = prim.fwd(f, None)
    out = Tensor(f.y)
    if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._op = prim
        out._parents = parents
        out._frame = f
        if _TRACE is not None:
            _TRACE.record(out)
    return out


def _into(out, shape, dtype) -> xp.ndarray:
    """``out`` itself, or a fresh array when the caller passed none."""
    return xp.empty(shape, dtype=dtype) if out is None else out


def _id_vjp(f: Frame, out, i: int) -> xp.ndarray:
    """The identity VJP: the output gradient, summed to input ``i``'s shape."""
    return _unbroadcast(f.g, f.xs[i].shape)


ID = ("id", _id_vjp)


# ----------------------------------------------------------------------
# sorted-segment reductions
# ----------------------------------------------------------------------
class SegmentLayout:
    """Precomputed sort order for repeated segment reductions over one index.

    Sorting ``index`` once (stable, so ties keep their original order) turns
    every subsequent scatter-add over it into ``data[order]`` followed by one
    ``xp.add_reduceat`` across the contiguous runs — a CSR-style layout that
    vectorises across feature columns instead of looping per element the way
    ``xp.add_at`` does.  Layouts are cached per batched graph, so the sort is
    paid once per batch, not once per operation per epoch.
    """

    __slots__ = ("index", "num_segments", "order", "starts", "segments",
                 "counts")

    def __init__(self, index: xp.ndarray, num_segments: int):
        index = xp.asarray(index, dtype=xp.int64)
        self.index = index
        self.num_segments = int(num_segments)
        order = xp.argsort(index, kind="stable")
        sorted_index = index[order]
        if sorted_index.size:
            run_start = xp.empty(sorted_index.size, dtype=bool)
            run_start[0] = True
            xp.not_equal(sorted_index[1:], sorted_index[:-1],
                         out=run_start[1:])
            starts = xp.flatnonzero(run_start)
            segments = sorted_index[starts]
        else:
            starts = xp.zeros(0, dtype=xp.int64)
            segments = xp.zeros(0, dtype=xp.int64)
        self.order = order
        self.starts = starts
        self.segments = segments
        self.counts = xp.bincount(index, minlength=self.num_segments)


def gather_rows(x: xp.ndarray, index: xp.ndarray, out=None) -> xp.ndarray:
    """``x[index]`` along the first axis, into ``out`` when given.

    ``mode="clip"`` spares the bounds-checked copy numpy's ``take`` makes
    before writing into ``out``; indices are checked where they enter
    (:func:`_check_index`, edge layouts), so clipping never fires.
    """
    return xp.take(x, index, axis=0, out=out, mode="clip")


def _check_index(index: xp.ndarray, num_rows: int) -> xp.ndarray:
    index = xp.asarray(index, dtype=xp.int64)
    if index.size and (index.min() < 0 or index.max() >= num_rows):
        raise IndexError(f"row index out of range [0, {num_rows})")
    return index


def _segment_sum(w, out, data: xp.ndarray, index: xp.ndarray,
                 num_segments: int,
                 layout: Optional[SegmentLayout]) -> xp.ndarray:
    """Sum rows of ``data`` into ``num_segments`` buckets given by ``index``.

    A sorted gather followed by one ``add_reduceat`` over the runs; the
    gather and the run sums go to ``w``'s scratch.
    """
    cols = data.shape[1:]
    result = _into(out, (num_segments,) + cols, data.dtype)
    result.fill(0.0)
    if index.size == 0:
        return result
    if layout is None:
        layout = SegmentLayout(index, num_segments)
    if layout.starts.size:
        gathered = gather_rows(data, layout.order,
                               w.tmp((index.size,) + cols, 0))
        result[layout.segments] = xp.add_reduceat(
            gathered, layout.starts, axis=0,
            out=w.tmp((layout.starts.size,) + cols, 1))
    return result


def _unbroadcast(grad: xp.ndarray, shape: Tuple[int, ...]) -> xp.ndarray:
    """Sum ``grad`` back down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # sum over leading broadcast dimensions
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over axes that were 1 in the original shape
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---- elementwise arithmetic ------------------------------------------
def _neg_vjp(f, out, i):
    return xp.negative(f.g, out=out)


def _mul_t_vjp(f, out, i):
    other, shape = f.xs[1 - i], f.xs[i].shape
    if shape == f.g.shape:
        return xp.multiply(f.g, other, out=out)
    return _unbroadcast(f.g * other, shape)


def _mask_vjp(f, out, i):
    return xp.multiply(f.g, f.s, out=out)


def _mask_fwd(f, out, mask):
    f.s = mask
    return xp.multiply(f.xs[0], mask, out=out)


ADD_S = primitive("add_s", lambda f, out: xp.add(f.xs[0], f.a, out=out),
                  [ID])
ADD_T = primitive("add_t",
                  lambda f, out: xp.add(f.xs[0], f.xs[1], out=out), [ID, ID])
NEG = primitive("neg", lambda f, out: xp.negative(f.xs[0], out=out),
                [("owned", _neg_vjp)])
RSUB_S = primitive("rsub_s",
                   lambda f, out: xp.subtract(f.a, f.xs[0], out=out),
                   [("owned", _neg_vjp)])
MUL_S = primitive(
    "mul_s", lambda f, out: xp.multiply(f.xs[0], f.a, out=out),
    [("owned", lambda f, out, i: xp.multiply(f.g, f.a, out=out))])
MUL_T = primitive("mul_t",
                  lambda f, out: xp.multiply(f.xs[0], f.xs[1], out=out),
                  [("owned", _mul_t_vjp)] * 2)
DIV_S = primitive(
    "div_s", lambda f, out: xp.divide(f.xs[0], f.a, out=out),
    [("owned", lambda f, out, i: xp.divide(f.g, f.a, out=out))])
DIV_T = primitive(
    "div_t", lambda f, out: xp.divide(f.xs[0], f.xs[1], out=out),
    [("owned", lambda f, out, i: _unbroadcast(f.g / f.xs[1], f.xs[0].shape)),
     ("owned", lambda f, out, i: _unbroadcast(
         -f.g * f.xs[0] / (f.xs[1] ** 2), f.xs[1].shape))])
POW = primitive(
    "pow", lambda f, out: f.xs[0] ** f.a,
    [("owned", lambda f, out, i: f.g * f.a * f.xs[0] ** (f.a - 1.0))],
    fills_out=False)


# ---- matrix products -------------------------------------------------
def _linear_fwd(f, out):
    y = xp.matmul(f.xs[0], f.xs[1], out=out)
    if len(f.xs) == 3:
        xp.add(y, f.xs[2], out=y)
    return y


MATMUL = primitive(
    "matmul", lambda f, out: xp.matmul(f.xs[0], f.xs[1], out=out),
    [("owned", lambda f, out, i: xp.matmul(f.g, f.xs[1].T, out=out)),
     ("owned", lambda f, out, i: xp.matmul(f.xs[0].T, f.g, out=out))])
LINEAR = primitive(
    "linear", _linear_fwd,
    MATMUL.vjps + (("owned", lambda f, out, i: xp.sum(f.g, axis=0, out=out)),))


# ---- reductions and shaping ------------------------------------------
def _sum_vjp(f, out, i):
    axis, keepdims = f.a
    x = f.xs[0]
    result = _into(out, x.shape, x.dtype)
    xp.copyto(result, f.g if keepdims or axis is None
              else xp.expand_dims(f.g, axis))
    return result


def _slice_cols_vjp(f, out, i):
    start, stop = f.a
    x = f.xs[0]
    result = _into(out, x.shape, x.dtype)
    result.fill(0.0)
    result[:, start:stop] = f.g
    return result


SUM = primitive(
    "sum", lambda f, out: f.xs[0].sum(axis=f.a[0], keepdims=f.a[1]),
    [("owned", _sum_vjp)], fills_out=False)
RESHAPE = primitive(
    "reshape", lambda f, out: f.xs[0].reshape(*f.a),
    [("view", lambda f, out, i: f.g.reshape(f.xs[0].shape))], fills_out=False)
TRANSPOSE = primitive("transpose", lambda f, out: f.xs[0].T,
                      [("view", lambda f, out, i: f.g.T)], fills_out=False)
SLICE_COLS = primitive(
    "slice_cols", lambda f, out: f.xs[0][:, f.a[0]:f.a[1]],
    [("owned", _slice_cols_vjp)], fills_out=False)
SUB_MAX = primitive(
    "sub_max",
    lambda f, out: xp.subtract(
        f.xs[0], f.xs[0].max(axis=f.a[0], keepdims=f.a[1]), out=out),
    [ID])
CONCAT = primitive(
    "concat", lambda f, out: xp.concatenate(f.xs, axis=f.a[0]),
    [("view", lambda f, out, i: f.g[f.a[1][i]])], fills_out=False)
STACK_ROWS = primitive("stack_rows",
                       lambda f, out: xp.stack(f.xs, axis=0),
                       [("view", lambda f, out, i: f.g[i])], fills_out=False)


# ---- nonlinearities --------------------------------------------------
RELU = primitive(
    "relu",
    lambda f, out: _mask_fwd(f, out, (f.xs[0] > 0).astype(f.xs[0].dtype)),
    [("owned", _mask_vjp)])
LEAKY_RELU = primitive(
    "leaky_relu",
    lambda f, out: _mask_fwd(
        f, out, xp.where(f.xs[0] > 0, 1.0, f.a).astype(f.xs[0].dtype)),
    [("owned", _mask_vjp)])
DROPOUT = primitive(
    "dropout",
    lambda f, out: _mask_fwd(
        f, out, (f.a[1].random(f.xs[0].shape) >= f.a[0])
        .astype(f.xs[0].dtype) / (1.0 - f.a[0])),
    [("owned", _mask_vjp)])
SIGMOID = primitive(
    "sigmoid",
    lambda f, out: 1.0 / (1.0 + xp.exp(-xp.clip(f.xs[0], -60.0, 60.0))),
    [("owned", lambda f, out, i: f.g * f.y * (1.0 - f.y))], fills_out=False)
TANH = primitive("tanh", lambda f, out: xp.tanh(f.xs[0], out=out),
                 [("owned", lambda f, out, i: f.g * (1.0 - f.y ** 2))])
EXP = primitive(
    "exp", lambda f, out: xp.exp(xp.clip(f.xs[0], -60.0, 60.0)),
    [("owned", lambda f, out, i: xp.multiply(f.g, f.y, out=out))],
    fills_out=False)
LOG = primitive(
    "log", lambda f, out: xp.log(xp.maximum(f.xs[0], 1e-12)),
    [("owned", lambda f, out, i: f.g / xp.maximum(f.xs[0], 1e-12))],
    fills_out=False)


# ---- gather / scatter (the message-passing primitives) ---------------
INDEX_SELECT = primitive(
    "index_select",
    lambda f, out: gather_rows(f.xs[0], f.a[0], out),
    [("owned", lambda f, out, i: _segment_sum(f.w, out, f.g, f.a[0],
                                           f.xs[0].shape[0], f.a[1]))])
SCATTER_ADD = primitive(
    "scatter_add",
    lambda f, out: _segment_sum(f.w, out, f.xs[0], f.a[0], f.a[1], f.a[2]),
    [("owned", lambda f, out, i: gather_rows(f.g, f.a[0], out))])


class Tensor:
    """A numpy array with a gradient and, when produced by a primitive that
    needs one, a graph node (``_op``, ``_parents``, ``_frame``)."""

    __slots__ = ("data", "grad", "requires_grad", "grad_arena", "_op",
                 "_parents", "_frame", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: str = "", dtype=None):
        arr = xp.asarray(data)
        if dtype is not None:
            arr = arr.astype(xp.dtype(dtype), copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad: Optional[xp.ndarray] = None
        self.requires_grad = bool(requires_grad)
        #: True once a tape plan has pointed ``grad`` at a persistent arena
        #: buffer; :meth:`zero_grad` then clears in place instead of dropping
        #: the buffer, so its identity survives across steps.
        self.grad_arena = False
        self._op: Optional[Primitive] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._frame: Optional[Frame] = None
        self.name = name

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> xp.dtype:
        return self.data.dtype

    def numpy(self) -> xp.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        """Clear the gradient.

        Ordinarily drops the array (the next backward's first contribution
        re-establishes ownership).  Once a tape plan has installed an arena
        buffer (``grad_arena``), the buffer is zeroed *in place* instead so
        its identity is stable across steps; eager ``_accumulate`` then adds
        into it, which is value-identical to the copy-on-first-write path.
        """
        if self.grad_arena and self.grad is not None \
                and self.grad.dtype == self.data.dtype \
                and self.grad.shape == self.data.shape:
            self.grad.fill(0.0)
        else:
            self.grad = None

    def _accumulate(self, grad: xp.ndarray) -> None:
        if self.grad is None:
            # always copy: the incoming array may be shared with another
            # parent's gradient (e.g. both operands of `a + a`)
            self.grad = xp.array(grad, dtype=self.data.dtype, copy=True)
        else:
            # in-place accumulation: no reallocation per contribution
            self.grad += grad

    def _accumulate_owned(self, grad: xp.ndarray) -> None:
        """Accumulate a gradient array the caller guarantees is fresh
        (an ``"owned"`` VJP result), skipping :meth:`_accumulate`'s copy."""
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # arithmetic (Python scalars are weak operands: no graph node, no
    # promotion, no unbroadcast)
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return apply(ADD_S, (self,), other)
        return apply(ADD_T, (self, as_tensor(other)))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply(NEG, (self,))

    def __sub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self + (-other)
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return apply(RSUB_S, (self,), other)
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return apply(MUL_S, (self,), other)
        return apply(MUL_T, (self, as_tensor(other)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return apply(DIV_S, (self,), other)
        return apply(DIV_T, (self, as_tensor(other)))

    def __pow__(self, exponent: float) -> "Tensor":
        return apply(POW, (self,), float(exponent))

    def matmul(self, other: "Tensor") -> "Tensor":
        return apply(MATMUL, (self, as_tensor(other)))

    __matmul__ = matmul

    def linear(self, weight: "Tensor",
               bias: Optional["Tensor"] = None) -> "Tensor":
        """Fused affine map ``self @ weight + bias`` (one graph node).

        The bias is added in place on the matmul output, so the values are
        identical to the two-node form.
        """
        parents = (self, weight) if bias is None else (self, weight, bias)
        return apply(LINEAR, parents)

    # ------------------------------------------------------------------
    # reductions / shaping
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return apply(SUM, (self,), (axis, keepdims))

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        return apply(RESHAPE, (self,), shape)

    @property
    def T(self) -> "Tensor":
        return apply(TRANSPOSE, (self,))

    def slice_cols(self, start: int, stop: int) -> "Tensor":
        """Columns ``[start:stop)`` of a 2-D tensor (differentiable view)."""
        return apply(SLICE_COLS, (self,), (int(start), int(stop)))

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        return apply(RELU, (self,))

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        return apply(LEAKY_RELU, (self,), slope)

    def sigmoid(self) -> "Tensor":
        return apply(SIGMOID, (self,))

    def tanh(self) -> "Tensor":
        return apply(TANH, (self,))

    def exp(self) -> "Tensor":
        return apply(EXP, (self,))

    def log(self) -> "Tensor":
        return apply(LOG, (self,))

    def sub_max(self, axis: Optional[int] = None,
                keepdims: bool = False) -> "Tensor":
        """``self - self.data.max(axis, keepdims)`` as one primitive.

        The max shift used to stabilise softmax-style expressions is a
        *data-dependent constant*: its VJP is the identity (the gradient of a
        constant shift vanishes almost everywhere), but its forward value
        must be recomputed from fresh activations every step.  Folding the
        shift into a primitive keeps it replayable on a tape, and is
        bit-for-bit the two-node form (IEEE: ``x + (-m) == x - m``).
        """
        return apply(SUB_MAX, (self,), (axis, keepdims))

    # ------------------------------------------------------------------
    # indexing / scatter-gather (the message-passing primitives)
    # ------------------------------------------------------------------
    def index_select(self, index: xp.ndarray,
                     layout: Optional[SegmentLayout] = None) -> "Tensor":
        """Gather rows: ``out[i] = self[index[i]]``.

        ``layout`` is an optional precomputed :class:`SegmentLayout` over
        ``index`` (with ``num_segments == len(self)``) used to vectorise the
        scatter in the backward pass.
        """
        return apply(INDEX_SELECT, (self,),
                     (_check_index(index, self.data.shape[0]), layout))

    def scatter_add(self, index: xp.ndarray, num_rows: int,
                    layout: Optional[SegmentLayout] = None) -> "Tensor":
        """Scatter rows: ``out[index[i]] += self[i]`` with ``num_rows`` rows."""
        return apply(SCATTER_ADD, (self,),
                     (_check_index(index, num_rows), int(num_rows), layout))

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[xp.ndarray] = None) -> None:
        """Backpropagate from this tensor (must be scalar unless ``grad``)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = xp.ones_like(self.data)
        topo = _topo(self)
        self._accumulate(xp.asarray(grad, dtype=self.data.dtype))
        # children appear after their parents in `topo`, so the reversed walk
        # guarantees a node's output gradient is complete before its VJPs
        # distribute it to the parents
        for node in reversed(topo):
            if node._op is not None and node.grad is not None:
                _backprop(node)


def _topo(root: Tensor) -> List[Tensor]:
    """Iterative post-order DFS over ``requires_grad`` parents.

    Same visit order as a recursive walk, but immune to RecursionError on
    deep graphs.  The tape compiler replays exactly this order.
    """
    topo: List[Tensor] = []
    visited = {id(root)}
    stack: List[Tuple[Tensor, int]] = [(root, 0)]
    while stack:
        node, next_parent = stack[-1]
        if next_parent < len(node._parents):
            stack[-1] = (node, next_parent + 1)
            parent = node._parents[next_parent]
            if parent.requires_grad and id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, 0))
        else:
            topo.append(node)
            stack.pop()
    return topo


def _backprop(node: Tensor) -> None:
    """Eager VJP execution for one node, parents in order."""
    prim, f = node._op, node._frame
    g = f.g = node.grad
    if prim.prologue is not None:
        f.p = prim.prologue(f)
    for i, parent in enumerate(node._parents):
        if not parent.requires_grad:
            continue
        kind, vjp = prim.vjp(i)
        contribution = vjp(f, None, i)
        if kind == "owned" or (kind == "id" and contribution is not g):
            parent._accumulate_owned(contribution)
        else:
            parent._accumulate(contribution)
    f.p = None


def as_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Coerce numbers / arrays to (constant) tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# ----------------------------------------------------------------------
# free functions
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = tuple(as_tensor(t) for t in tensors)
    slicers, start = [], 0
    for t in tensors:
        stop = start + t.data.shape[axis]
        slicer = [slice(None)] * t.data.ndim
        slicer[axis] = slice(start, stop)
        slicers.append(tuple(slicer))
        start = stop
    return apply(CONCAT, tensors, (axis, slicers))


def stack_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors into a 2-D tensor (row per input)."""
    return apply(STACK_ROWS, tuple(as_tensor(t) for t in tensors))


def segment_sum(x: Tensor, segment_ids: xp.ndarray, num_segments: int,
                layout: Optional[SegmentLayout] = None) -> Tensor:
    """Sum of rows of ``x`` grouped by ``segment_ids``."""
    return x.scatter_add(xp.asarray(segment_ids, dtype=xp.int64),
                         num_segments, layout=layout)


def segment_mean(x: Tensor, segment_ids: xp.ndarray, num_segments: int,
                 layout: Optional[SegmentLayout] = None) -> Tensor:
    """Mean of rows of ``x`` grouped by ``segment_ids`` (empty segments → 0)."""
    segment_ids = xp.asarray(segment_ids, dtype=xp.int64)
    if layout is not None:
        counts = layout.counts.astype(xp.float64)
    else:
        counts = xp.bincount(segment_ids, minlength=num_segments).astype(xp.float64)
    counts = xp.maximum(counts, 1.0)
    sums = x.scatter_add(segment_ids, num_segments, layout=layout)
    inv = Tensor((1.0 / counts[:, None]).astype(sums.data.dtype, copy=False))
    return sums * inv


def dropout(x: Tensor, rate: float, rng: xp.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout (one traced primitive).

    The mask is drawn from ``rng`` at every execution — including tape
    replays, which capture the generator object itself — so the rng stream
    advances exactly as in eager mode.
    """
    if not training or rate <= 0.0:
        return x
    return apply(DROPOUT, (x,), (float(rate), rng))


def gradcheck(func: Callable[..., Tensor], inputs: Sequence[Tensor],
              eps: float = 1e-6, atol: float = 1e-4) -> bool:
    """Finite-difference gradient check of ``func`` w.r.t. ``inputs``.

    Inputs are promoted to float64 in place (finite differences with a 1e-6
    step are meaningless at float32 precision), and tensors created inside
    ``func`` default to float64 for the duration of the check.
    """
    inputs = list(inputs)
    for t in inputs:
        t.data = xp.asarray(t.data, dtype=xp.float64)
        t.zero_grad()
    with default_dtype(xp.float64):
        output = func(*inputs)
        output.backward()
        for tensor in inputs:
            if not tensor.requires_grad:
                continue
            analytic = tensor.grad if tensor.grad is not None else xp.zeros_like(tensor.data)
            numeric = xp.zeros_like(tensor.data)
            flat = tensor.data.reshape(-1)
            num_flat = numeric.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + eps
                plus = func(*inputs).data.sum()
                flat[i] = original - eps
                minus = func(*inputs).data.sum()
                flat[i] = original
                num_flat[i] = (plus - minus) / (2 * eps)
            if not xp.allclose(analytic, numeric, atol=atol, rtol=1e-3):
                return False
    return True
