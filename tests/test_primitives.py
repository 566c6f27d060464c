"""Property tests over the primitive registry: one declaration, three executors.

Every declared primitive (:data:`repro.nn.autograd.PRIMITIVES`, including
the fused GRU and the mean aggregation declared by :mod:`repro.gnn.conv`)
is driven with random shapes — broadcasting included — through each
executor that runs its kernels:

* tape replay gives bitwise the eager loss and gradients,
* a :func:`~repro.nn.no_grad` forward gives bitwise the eager output and
  builds no graph.

The tests are parametrised over the registry itself, and a primitive
without an input builder below fails, so a new declaration is covered the
moment it exists.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gnn.conv as conv
from repro.graphs.hetero import EdgeLayout
from repro.nn import SegmentLayout, TapeRunner, Tensor, concat, dropout, no_grad
from repro.nn import stack_rows
from repro.nn.autograd import PRIMITIVES

dims = st.integers(1, 5)


def _leaf(rng, shape, low=None):
    data = rng.standard_normal(shape)
    if low is not None:                      # bounded away from zero
        data = np.sign(data + 1e-3) * (np.abs(data) + low)
    return Tensor(data, requires_grad=True)


def _broadcast_pair(draw):
    n, m = draw(dims), draw(dims)
    return draw(st.sampled_from([
        ((n, m), (n, m)), ((n, m), (m,)), ((m,), (n, m)),
        ((n, m), (1, m)), ((n, 1), (n, m)), ((n, m), ())]))


def _binary(fn, low=None):
    def build(draw):
        sa, sb = _broadcast_pair(draw)

        def setup(rng):
            a, b = _leaf(rng, sa), _leaf(rng, sb, low)
            return [a, b], lambda: fn(a, b)
        return setup
    return build


def _unary(fn, low=None, scalar=False):
    def build(draw):
        shape = (draw(dims), draw(dims))
        c = draw(st.floats(0.25, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))

        def setup(rng):
            x = _leaf(rng, shape, low)
            return [x], (lambda: fn(x, c)) if scalar else (lambda: fn(x))
        return setup
    return build


def _reduction(method, options=((None, False), (None, True), (0, False),
                                 (0, True), (1, False), (1, True))):
    def build(draw):
        shape = (draw(dims), draw(dims))
        axis, keepdims = draw(st.sampled_from(options))

        def setup(rng):
            x = _leaf(rng, shape)
            return [x], lambda: getattr(x, method)(axis=axis, keepdims=keepdims)
        return setup
    return build


def _pow(draw):
    shape = (draw(dims), draw(dims))
    exponent = draw(st.sampled_from([-1.0, 0.5, 1.5, 2.0, 3.0]))

    def setup(rng):
        x = Tensor(np.abs(rng.standard_normal(shape)) + 0.5,
                   requires_grad=True)
        return [x], lambda: x ** exponent
    return setup


def _matmul(draw):
    n, k, m = draw(dims), draw(dims), draw(dims)

    def setup(rng):
        a, b = _leaf(rng, (n, k)), _leaf(rng, (k, m))
        return [a, b], lambda: a @ b
    return setup


def _linear(draw):
    n, k, m = draw(dims), draw(dims), draw(dims)
    with_bias = draw(st.booleans())

    def setup(rng):
        x, w, b = _leaf(rng, (n, k)), _leaf(rng, (k, m)), _leaf(rng, (m,))
        return ([x, w, b] if with_bias else [x, w],
                lambda: x.linear(w, b if with_bias else None))
    return setup


def _reshape(draw):
    n, m = draw(dims), draw(dims)
    target = draw(st.sampled_from([(m, n), (n * m,), (1, n * m)]))

    def setup(rng):
        x = _leaf(rng, (n, m))
        return [x], lambda: x.reshape(*target)
    return setup


def _slice_cols(draw):
    n, m = draw(dims), draw(dims)
    start = draw(st.integers(0, m - 1))
    stop = draw(st.integers(start + 1, m))

    def setup(rng):
        x = _leaf(rng, (n, m))
        return [x], lambda: x.slice_cols(start, stop)
    return setup


def _concat(draw):
    axis = draw(st.sampled_from([0, 1]))
    fixed = draw(dims)
    sizes = draw(st.lists(dims, min_size=1, max_size=3))

    def setup(rng):
        xs = [_leaf(rng, (s, fixed) if axis == 0 else (fixed, s))
              for s in sizes]
        return xs, lambda: concat(xs, axis=axis)
    return setup


def _stack_rows(draw):
    k, m = draw(dims), draw(dims)

    def setup(rng):
        rows = [_leaf(rng, (m,)) for _ in range(k)]
        return rows, lambda: stack_rows(rows)
    return setup


def _dropout(draw):
    shape = (draw(dims), draw(dims))
    rate = draw(st.floats(0.05, 0.9))
    seed = draw(st.integers(0, 2 ** 16))

    def setup(rng):
        x, mask_rng = _leaf(rng, shape), np.random.default_rng(seed)
        return [x], lambda: dropout(x, rate, mask_rng)
    return setup


def _index(draw, num_rows):
    length = draw(st.integers(0, 8))
    return np.asarray(draw(st.lists(st.integers(0, num_rows - 1),
                                    min_size=length, max_size=length)),
                      dtype=np.int64)


def _index_select(draw):
    n, m = draw(dims), draw(dims)
    index = _index(draw, n)
    layout = SegmentLayout(index, n) if draw(st.booleans()) else None

    def setup(rng):
        x = _leaf(rng, (n, m))
        return [x], lambda: x.index_select(index, layout=layout)
    return setup


def _scatter_add(draw):
    n, m = draw(dims), draw(dims)
    index = _index(draw, n)
    layout = SegmentLayout(index, n) if draw(st.booleans()) else None

    def setup(rng):
        x = _leaf(rng, (index.size, m))
        return [x], lambda: x.scatter_add(index, n, layout=layout)
    return setup


def _fused_gru(draw):
    n, i, h = draw(dims), draw(dims), draw(dims)

    def setup(rng):
        cell = conv.FusedGRUCell(i, h, rng=rng)
        for p in cell.parameters():          # non-zero biases
            p.data = rng.standard_normal(p.shape)
        x, state = _leaf(rng, (n, i)), _leaf(rng, (n, h))
        return [x, state] + cell.parameters(), lambda: cell(x, state)
    return setup


def _mean_agg(draw):
    n, m = draw(dims), draw(dims)
    src = _index(draw, n)
    dst = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=src.size,
                                   max_size=src.size)), dtype=np.int64)
    layout = EdgeLayout(np.stack([src, dst]).reshape(2, -1), n)

    def setup(rng):
        msg = _leaf(rng, (n, m))
        aggregate = conv._mean_aggregator(layout, msg.dtype)
        return [msg], lambda: aggregate(msg)
    return setup


BUILDERS = {
    "add_s": _unary(lambda x, c: x + c, scalar=True),
    "add_t": _binary(lambda a, b: a + b),
    "neg": _unary(lambda x: -x),
    "rsub_s": _unary(lambda x, c: c - x, scalar=True),
    "mul_s": _unary(lambda x, c: x * c, scalar=True),
    "mul_t": _binary(lambda a, b: a * b),
    "div_s": _unary(lambda x, c: x / c, scalar=True),
    "div_t": _binary(lambda a, b: a / b, low=0.5),
    "pow": _pow,
    "matmul": _matmul,
    "linear": _linear,
    "sum": _reduction("sum"),
    "reshape": _reshape,
    "transpose": _unary(lambda x: x.T),
    "slice_cols": _slice_cols,
    # the shift must broadcast back onto the input
    "sub_max": _reduction("sub_max", ((None, False), (None, True),
                                      (0, False), (0, True), (1, True))),
    "concat": _concat,
    "stack_rows": _stack_rows,
    "relu": _unary(lambda x: x.relu()),
    "leaky_relu": _unary(lambda x, c: x.leaky_relu(abs(c) / 4.0),
                         scalar=True),
    "dropout": _dropout,
    "sigmoid": _unary(lambda x: x.sigmoid()),
    "tanh": _unary(lambda x: x.tanh()),
    "exp": _unary(lambda x: x.exp()),
    "log": _unary(lambda x: (x * x).log(), low=0.1),
    "index_select": _index_select,
    "scatter_add": _scatter_add,
    "fused_gru": _fused_gru,
    "mean_agg": _mean_agg,
}


def test_every_primitive_is_covered():
    assert set(BUILDERS) == set(PRIMITIVES)


def _weighted_loss(fn, weights):
    return lambda: (fn() * Tensor(weights)).sum()


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_one_kernel_three_executors(name, data):
    setup = BUILDERS[name](data.draw)
    seed = data.draw(st.integers(0, 2 ** 16))

    def fresh():
        return setup(np.random.default_rng(seed))

    # no_grad forward: no graph
    _, fn = fresh()
    with no_grad():
        inference = fn()
    assert not inference.requires_grad and inference._parents == ()
    weights = np.random.default_rng(seed + 1).standard_normal(inference.shape)

    # eager: the forward output, then a second step's loss and gradients
    # (rng-drawing primitives advance between steps, as replay does)
    params, fn = fresh()
    np.testing.assert_array_equal(fn().data, inference.data)
    eager_loss = _weighted_loss(fn, weights)()
    eager_loss.backward()
    eager_grads = [p.grad for p in params]

    # record + replay over an identical fresh setup
    params, fn = fresh()
    runner = TapeRunner(wrt=params)
    make_loss = _weighted_loss(fn, weights)
    runner.step("k", make_loss)
    replay_loss = runner.step("k", make_loss)
    assert runner.replays == 1
    assert replay_loss == float(eager_loss.data)
    for p, grad in zip(params, eager_grads):
        np.testing.assert_array_equal(p.grad, grad)
