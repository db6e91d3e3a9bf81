"""Probability-vector primitives: validation, temperature softmax, the k
most likely tokens, and the ascending view of a distribution that the
without-replacement sampler and verifier share (the rejection residual is
`mdsd.alpha.ResidualTable`'s).

Everything downstream works with `Dist` objects. A `Dist` is renormalized once
on construction and is immutable afterwards, so the sum-to-one invariant can be
assumed everywhere without re-checking.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AscendingQ",
    "Dist",
    "stable_argsort",
    "softmax_temp",
    "top_k_desc",
    "tv_distance",
]

# A total at or below this is no mass: `Dist` rejects it, and a residual
# that small has vanished.
_ZERO_MASS = 1e-12
# A token's mass below the smallest normal float is no mass: `Dist` sets it
# to 0 once normalised. A subnormal mass has too few bits to divide by or to
# scale by its power of two, so the samplers, scans, verifiers and oracles,
# which all read the `Dist`, see it as 0 alike.
_TINY_MASS = np.finfo(np.float64).tiny


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability distribution over token ids ``0..vocab_size-1``.

    The mass vector is validated (finite, non-negative, positive total) and
    renormalized once here, a mass below `_TINY_MASS` set to 0; the backing
    array is marked read-only.
    """

    mass: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mass, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("empty distribution")
        # A finite total has only finite terms, so the entries are looked
        # at one by one only when it is not: inf and NaN masses, or finite
        # ones whose sum overflows (inf - inf would warn, as NaN).
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(arr.sum())
        overflow = not math.isfinite(total)
        if overflow and not np.isfinite(arr).all():
            raise ValueError("distribution mass must be finite")
        if arr.min() < 0.0:
            raise ValueError("distribution mass must be non-negative")
        if overflow:
            # Finite masses whose sum overflows: scale by the largest first.
            arr = arr / arr.max()
            total = float(arr.sum())
        if total <= _ZERO_MASS:
            raise ValueError("distribution has no mass")
        arr = arr / total
        np.copyto(arr, 0.0, where=arr < _TINY_MASS)
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)

    @property
    def vocab_size(self) -> int:
        return int(self.mass.size)

    @functools.cached_property
    def ascending(self) -> "AscendingQ":
        """The tokens by ascending mass, built once: the without-replacement
        sampler and verifier of this distribution share it."""
        return AscendingQ(self)

    @staticmethod
    def uniform(vocab_size: int) -> "Dist":
        return Dist(np.full(vocab_size, 1.0 / vocab_size))

    @staticmethod
    def one_hot(vocab_size: int, token: int) -> "Dist":
        mass = np.zeros(vocab_size)
        mass[token] = 1.0
        return Dist(mass)


def _check_logits(arr: np.ndarray) -> None:
    # A -inf logit masks its token out; NaN, +inf and a vector that masks
    # every token are malformed.
    finite = np.isfinite(arr)
    if not finite.all():
        if np.any(arr[~finite] != -np.inf):
            raise ValueError("logits must be finite or -inf (masked)")
        if not finite.any():
            raise ValueError("logits mask out every token")


def softmax_temp(logits, temperature: float) -> Dist:
    """Temperature softmax. ``temperature == 0`` collapses to the argmax
    one-hot (ties broken toward the lowest token id); a temperature must be
    finite and >= 0."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("empty distribution")
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ValueError(f"temperature must be finite and >= 0 (got {temperature})")
    _check_logits(arr)
    if temperature == 0.0:
        return Dist.one_hot(arr.size, int(np.argmax(arr)))
    with np.errstate(over="ignore"):
        scaled = arr / temperature
        top = np.max(scaled)
        if not np.isfinite(top):
            # A tiny temperature overflows the quotient, and inf - inf is
            # NaN: shift by the largest logit first, which puts the top at 0.
            scaled = (arr - np.max(arr)) / temperature
            top = 0.0
    # In place: ``scaled`` is this call's own array.
    scaled -= top
    return Dist(np.exp(scaled, out=scaled))


def top_k_desc(q: Dist, k: int) -> tuple[int, ...]:
    """The ``k`` largest-mass tokens by descending mass (ties by lowest id)."""
    if k < 0 or k > q.vocab_size:
        raise ValueError("k out of range")
    if k == 0:
        return ()
    # Only the tokens at or above the k-th largest mass are sorted.
    neg = -q.mass
    cand = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
    return tuple(int(t) for t in cand[stable_argsort(neg[cand])][:k])


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """The indices that sort ``keys`` ascending, equal keys by lowest index:
    the order of a stable sort. A default sort is faster; each run of equal
    keys is then put in index order, only where such runs occur."""
    order = keys.argsort()
    ranked = keys[order]
    tie = ranked[1:] == ranked[:-1]
    if not tie.any():
        return order
    # Only the slots in a run of equal keys are sorted again, by (run,
    # index). joins[i]: slot i ties slot i - 1, so a run starts at each of
    # those slots where it is False.
    joins = np.zeros(keys.size, dtype=bool)
    joins[1:] = tie
    slots = np.flatnonzero(joins | np.append(tie, False))
    runs = np.cumsum(~joins[slots])
    ids = order[slots]
    order[slots] = ids[np.lexsort((ids, runs))]
    return order


class AscendingQ:
    """q's tokens by ascending mass (ties by lowest id): ``order`` lists the
    tokens by rank, ``sorted`` their masses, ``head[i]`` the sum of the i
    smallest and ``tail[i]`` the sum of all but them. Built once per q, as
    `Dist.ascending`.

    Small masses come first, so a run of ranks that ends before the last
    rank is summed as a difference of ``head`` over masses no larger than
    its own, and a run that reaches the end is read from ``tail``: a mass
    that remains after the large tokens are drawn is never found by
    subtracting them from 1, which cancels near a one-hot q.
    """

    def __init__(self, q: Dist):
        mass = q.mass
        self.size = mass.size
        self.order = stable_argsort(mass)
        self.sorted = mass[self.order]
        self.head = np.zeros(self.size + 1)
        self.sorted.cumsum(out=self.head[1:])
        self.tail = np.zeros(self.size + 1)
        self.sorted[::-1].cumsum(out=self.tail[-2::-1])

    @functools.cached_property
    def rank(self) -> np.ndarray:
        """The rank of each token."""
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(self.size)
        return rank

    def insert(self, drawn: list, x: np.ndarray) -> list:
        """``drawn`` with the ranks ``x`` added. A drawn set is a list of
        rank arrays, one entry per row, kept ascending down the list."""
        out = []
        for d in drawn:
            out.append(np.minimum(d, x))
            x = np.maximum(d, x)
        return out + [x]

    def runs(self, drawn: list) -> list:
        """The runs of ranks between the drawn ones, as (lo, hi, mass) for
        ranks lo..hi-1, first to last."""
        if not drawn:
            return [(0, self.size, self.tail[0])]
        after = [d + 1 for d in drawn]
        out = [(0, drawn[0], self.head[drawn[0]])]
        out += [(lo, hi, self.head[hi] - self.head[lo]) for lo, hi in zip(after, drawn[1:])]
        return out + [(after[-1], self.size, self.tail[after[-1]])]

    def undrawn(self, drawn: list):
        """The mass not yet drawn, summed over the runs, first to last."""
        return sum(mass for *_, mass in self.runs(drawn))

    def draw(self, drawn: list, u: np.ndarray) -> np.ndarray:
        """One rank per row not in ``drawn``, each with probability
        proportional to its mass, by the inverse CDF of ``u`` (uniform on
        [0, 1)): pick a run, then the rank inside it."""
        runs = self.runs(drawn)
        ends = list(itertools.accumulate(mass for _, _, mass in runs))
        y = u * ends[-1]  # below the last end, so the run picked has mass
        lo, hi, _ = runs[0]
        start = 0.0
        for (run_lo, run_hi, _), end in zip(runs[1:], ends):
            past = end <= y
            lo, hi, start = np.where(past, run_lo, lo), np.where(past, run_hi, hi), np.where(past, end, start)
        x = self.head.searchsorted(self.head[lo] + (y - start), side="right") - 1
        # Rounding may step outside the run; its end ranks hold mass.
        return np.minimum(np.maximum(x, lo), hi - 1)


def tv_distance(a: Dist, b: Dist) -> float:
    """Total variation distance, half the L1 difference."""
    if a.vocab_size != b.vocab_size:
        raise ValueError("size mismatch")
    return 0.5 * float(np.abs(a.mass - b.mass).sum())
