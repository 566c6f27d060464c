"""Parameter initialisation schemes.

All initialisers draw in float64 (so seeded draws are reproducible across
dtype settings) and cast to the autograd default dtype
(``repro.nn.runtime.configure(default_dtype=...)``); models with an explicit
``dtype`` argument cast again via ``Module.to_dtype``.
"""

from __future__ import annotations

from typing import Tuple

from repro.nn.autograd import get_default_dtype
from repro.nn.backend import xp


def xavier_uniform(shape: Tuple[int, ...], rng: xp.Generator) -> xp.ndarray:
    """Glorot/Xavier uniform initialisation."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = xp.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(get_default_dtype(),
                                                         copy=False)


def kaiming_uniform(shape: Tuple[int, ...], rng: xp.Generator) -> xp.ndarray:
    """He/Kaiming uniform initialisation (ReLU gain)."""
    fan_in = shape[0]
    limit = xp.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(get_default_dtype(),
                                                         copy=False)


def orthogonal(shape: Tuple[int, int], rng: xp.Generator) -> xp.ndarray:
    """Orthogonal initialisation (used for GRU recurrent weights)."""
    a = rng.standard_normal(shape)
    q, r = xp.qr(a if shape[0] >= shape[1] else a.T)
    q = q * xp.sign(xp.diag(r))
    result = q if shape[0] >= shape[1] else q.T
    return result.astype(get_default_dtype(), copy=False)
