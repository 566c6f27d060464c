"""Naive ``np.add.at`` scatter: the reference for the sorted segment kernels.

The library's segment sums gather rows in a stable sort order and reduce
each contiguous run with one ``add_reduceat``.  The tests check them
against the element-wise scatter below, either directly or by routing the
``scatter_add`` / ``index_select`` primitives through it with
:func:`naive_segment_kernels`.
"""

import contextlib

import numpy as np

from repro.nn import autograd


def naive_segment_sum(data, index, num_segments):
    """``out[index[i]] += data[i]`` one element at a time."""
    data = np.asarray(data)
    out = np.zeros((num_segments,) + data.shape[1:], dtype=data.dtype)
    np.add.at(out, np.asarray(index, dtype=np.int64), data)
    return out


@contextlib.contextmanager
def naive_segment_kernels():
    """Route every segment-sum kernel through :func:`naive_segment_sum`."""
    original = autograd._segment_sum
    autograd._segment_sum = (
        lambda w, out, data, index, num_segments, layout:
        naive_segment_sum(data, index, num_segments))
    try:
        yield
    finally:
        autograd._segment_sum = original
