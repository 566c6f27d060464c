"""Feature scalers: standard, min-max and Gaussian-rank.

The paper scales the IR2Vec code vectors with Gaussian rank scaling before
the denoising autoencoder, and normalises performance counters / transfer and
workgroup sizes into [0, 1] before fusion.

Every scaler exposes ``get_state`` / ``set_state`` returning plain numpy
arrays so fitted scalers can travel inside model state dicts and the
:mod:`repro.core.artifacts` on-disk format.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.nn.backend import xp


class StandardScaler:
    """Zero-mean / unit-variance per feature."""

    def __init__(self) -> None:
        self.mean_: Optional[xp.ndarray] = None
        self.std_: Optional[xp.ndarray] = None

    def fit(self, x: xp.ndarray) -> "StandardScaler":
        x = xp.asarray(x, dtype=xp.float64)
        self.mean_ = x.mean(axis=0)
        self.std_ = x.std(axis=0)
        self.std_ = xp.where(self.std_ < 1e-12, 1.0, self.std_)
        return self

    def transform(self, x: xp.ndarray) -> xp.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        return (xp.asarray(x, dtype=xp.float64) - self.mean_) / self.std_

    def fit_transform(self, x: xp.ndarray) -> xp.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, x: xp.ndarray) -> xp.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        return xp.asarray(x) * self.std_ + self.mean_

    def get_state(self) -> Dict[str, xp.ndarray]:
        if self.mean_ is None:
            return {}
        return {"mean": self.mean_.copy(), "std": self.std_.copy()}

    def set_state(self, state: Dict[str, xp.ndarray]) -> None:
        if "mean" in state:
            self.mean_ = xp.asarray(state["mean"], dtype=xp.float64)
            self.std_ = xp.asarray(state["std"], dtype=xp.float64)


class MinMaxScaler:
    """Scale each feature into [0, 1] (constant features map to 0)."""

    def __init__(self) -> None:
        self.min_: Optional[xp.ndarray] = None
        self.range_: Optional[xp.ndarray] = None

    def fit(self, x: xp.ndarray) -> "MinMaxScaler":
        x = xp.asarray(x, dtype=xp.float64)
        self.min_ = x.min(axis=0)
        rng = x.max(axis=0) - self.min_
        self.range_ = xp.where(rng < 1e-12, 1.0, rng)
        return self

    def transform(self, x: xp.ndarray) -> xp.ndarray:
        if self.min_ is None:
            raise RuntimeError("scaler is not fitted")
        out = (xp.asarray(x, dtype=xp.float64) - self.min_) / self.range_
        return xp.clip(out, 0.0, 1.0)

    def fit_transform(self, x: xp.ndarray) -> xp.ndarray:
        return self.fit(x).transform(x)

    def get_state(self) -> Dict[str, xp.ndarray]:
        if self.min_ is None:
            return {}
        return {"min": self.min_.copy(), "range": self.range_.copy()}

    def set_state(self, state: Dict[str, xp.ndarray]) -> None:
        if "min" in state:
            self.min_ = xp.asarray(state["min"], dtype=xp.float64)
            self.range_ = xp.asarray(state["range"], dtype=xp.float64)


class GaussRankScaler:
    """Gaussian rank scaling (Jahrer's Porto-Seguro winning trick).

    Each feature is mapped to the quantiles of a standard normal via its rank
    in the training data; unseen values are interpolated between the training
    values' ranks.
    """

    def __init__(self, epsilon: float = 1e-3):
        self.epsilon = float(epsilon)
        self.sorted_: Optional[list] = None

    def fit(self, x: xp.ndarray) -> "GaussRankScaler":
        x = xp.asarray(x, dtype=xp.float64)
        if x.ndim != 2:
            raise ValueError("GaussRankScaler expects a 2-D matrix")
        self.sorted_ = [xp.sort(x[:, j]) for j in range(x.shape[1])]
        return self

    def transform(self, x: xp.ndarray) -> xp.ndarray:
        # imported on first use: scipy.special is slow to import, and most
        # importers of this module never transform
        from scipy.special import erfinv

        if self.sorted_ is None:
            raise RuntimeError("scaler is not fitted")
        x = xp.asarray(x, dtype=xp.float64)
        out = xp.empty_like(x)
        for j, ref in enumerate(self.sorted_):
            n = len(ref)
            # rank of each value among the training values, in (0, 1)
            ranks = xp.searchsorted(ref, x[:, j], side="left").astype(xp.float64)
            frac = xp.clip(ranks / max(n - 1, 1), self.epsilon, 1.0 - self.epsilon)
            out[:, j] = xp.sqrt(2.0) * erfinv(2.0 * frac - 1.0)
        return out

    def fit_transform(self, x: xp.ndarray) -> xp.ndarray:
        return self.fit(x).transform(x)

    def get_state(self) -> Dict[str, xp.ndarray]:
        if self.sorted_ is None:
            return {}
        # the per-column reference arrays all have the training-set length,
        # so the whole fitted state stacks into one [n_features, n] matrix
        return {"sorted": xp.stack(self.sorted_, axis=0)}

    def set_state(self, state: Dict[str, xp.ndarray]) -> None:
        if "sorted" in state:
            matrix = xp.asarray(state["sorted"], dtype=xp.float64)
            self.sorted_ = [matrix[j].copy() for j in range(matrix.shape[0])]
