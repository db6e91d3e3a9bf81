"""Probability-vector primitives: validation, temperature softmax, residuals,
exclusion renormalization and the k most likely tokens.

Everything downstream works with `Dist` objects. A `Dist` is renormalized once
on construction and is immutable afterwards, so the sum-to-one invariant can be
assumed everywhere without re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dist",
    "LogitsRecord",
    "softmax_temp",
    "residual_dist",
    "exclude_renorm",
    "top_k_desc",
    "tv_distance",
]

# Mass below this is treated as exactly zero when deciding support questions.
_ZERO_MASS = 1e-12


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability distribution over token ids ``0..vocab_size-1``.

    The mass vector is validated (finite, non-negative, positive total) and
    renormalized once here; the backing array is marked read-only.
    """

    mass: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mass, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("empty distribution")
        if not np.all(np.isfinite(arr)):
            raise ValueError("distribution mass must be finite")
        if np.any(arr < 0):
            raise ValueError("distribution mass must be non-negative")
        total = float(arr.sum())
        if total <= _ZERO_MASS:
            raise ValueError("distribution has no mass")
        arr = arr / total
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)

    @property
    def vocab_size(self) -> int:
        return int(self.mass.size)

    @staticmethod
    def uniform(vocab_size: int) -> "Dist":
        return Dist(np.full(vocab_size, 1.0 / vocab_size))

    @staticmethod
    def one_hot(vocab_size: int, token: int) -> "Dist":
        mass = np.zeros(vocab_size)
        mass[token] = 1.0
        return Dist(mass)

    def support(self) -> np.ndarray:
        """Token ids with mass above the zero threshold."""
        return np.flatnonzero(self.mass > _ZERO_MASS)


def _check_logits(arr: np.ndarray) -> None:
    # A -inf logit masks its token out; NaN, +inf and a vector that masks
    # every token are malformed.
    finite = np.isfinite(arr)
    if not finite.all():
        if np.any(arr[~finite] != -np.inf):
            raise ValueError("logits must be finite or -inf (masked)")
        if not finite.any():
            raise ValueError("logits mask out every token")


@dataclass(frozen=True, eq=False)
class LogitsRecord:
    """One position's raw logits for the target model and the draft model."""

    p_logits: np.ndarray
    q_logits: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_logits, dtype=np.float64)
        q = np.asarray(self.q_logits, dtype=np.float64)
        if p.ndim != 1 or q.ndim != 1 or p.size == 0:
            raise ValueError("logits must be non-empty 1-d vectors")
        if p.size != q.size:
            raise ValueError(
                f"logits length mismatch: {p.size} vs {q.size}"
            )
        _check_logits(p)
        _check_logits(q)
        object.__setattr__(self, "p_logits", p)
        object.__setattr__(self, "q_logits", q)

    @property
    def vocab_size(self) -> int:
        return int(self.p_logits.size)


def softmax_temp(logits, temperature: float) -> Dist:
    """Temperature softmax. ``temperature == 0`` collapses to the argmax
    one-hot (ties broken toward the lowest token id)."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("empty distribution")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    _check_logits(arr)
    if temperature == 0.0:
        return Dist.one_hot(arr.size, int(np.argmax(arr)))
    scaled = arr / temperature
    scaled = scaled - np.max(scaled)
    return Dist(np.exp(scaled))


def _positive_part(diff: np.ndarray) -> Dist:
    # The normalized positive part of ``diff``. When it vanishes (mass at
    # most _ZERO_MASS) the uniform distribution is returned, so the result
    # is always a valid `Dist`.
    pos = np.maximum(diff, 0.0)
    if pos.sum() <= _ZERO_MASS:
        return Dist.uniform(pos.size)
    return Dist(pos)


def residual_dist(p: Dist, q: Dist) -> Dist:
    """Normalized positive part of ``p - q``, uniform when it vanishes (as
    when ``p == q``)."""
    if p.vocab_size != q.vocab_size:
        raise ValueError("size mismatch between p and q")
    return _positive_part(p.mass - q.mass)


def exclude_renorm(q: Dist, exclude) -> Dist:
    """Zero out the tokens in ``exclude`` and renormalize the rest, however
    little mass it holds; only a rest of mass exactly 0 is an error."""
    idx = np.asarray(sorted(set(int(t) for t in exclude)), dtype=np.intp)
    if idx.size and (idx[0] < 0 or idx[-1] >= q.vocab_size):
        raise ValueError("exclusion set contains out-of-range token ids")
    mass = q.mass.copy()
    mass[idx] = 0.0
    total = mass.sum()
    if total <= 0.0:
        raise ValueError("exhausted support")
    # Normalized first: `Dist` rejects a total at or below _ZERO_MASS.
    return Dist(mass / total)


def top_k_desc(q: Dist, k: int) -> tuple[int, ...]:
    """The ``k`` largest-mass tokens by descending mass (ties by lowest id)."""
    if k < 0 or k > q.vocab_size:
        raise ValueError("k out of range")
    if k == 0:
        return ()
    # Only the tokens at or above the k-th largest mass are sorted.
    neg = -q.mass
    cand = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
    return tuple(int(t) for t in cand[np.argsort(neg[cand], kind="stable")][:k])


def tv_distance(a: Dist, b: Dist) -> float:
    """Total variation distance, half the L1 difference."""
    if a.vocab_size != b.vocab_size:
        raise ValueError("size mismatch")
    return 0.5 * float(np.abs(a.mass - b.mass).sum())
