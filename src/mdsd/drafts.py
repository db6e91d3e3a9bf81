"""Draft-tuple distributions.

A `DraftScheme` describes how the n draft tokens of one decoding step are
produced from the draft-model distribution q: n independent draws (with
replacement), n distinct draws (without replacement), or the n - 1 most
likely tokens and one draw from the rest (greedy). Each scheme exposes

  * a batched sampler of draft tuples, `sample_tuples` (one tuple is a
    batch of one),
  * the exact tuple probability `tuple_prob`, and
  * its tuple support, `iter_support` (small instances only).

Without replacement, the drafts are drawn one at a time from q restricted
to the tokens not yet drawn, by the inverse CDF of q sorted ascending over
the runs of ranks between the drawn tokens (`mdsd.dists.AscendingQ`). A draw
costs O(n + log V) per tuple after one O(V log V) sort per q, `q.ascending`,
which the without-replacement verifier shares to read the remaining mass
from the same runs.

The subset mass Q(H) = P(all n drafts land in H) that the optimum needs is
evaluated in `mdsd.alpha`, along the scan's prefixes.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dists import Dist, top_k_desc

__all__ = [
    "DraftKind",
    "DraftScheme",
    "greedy_tail",
    "sample_tuples",
    "tuple_prob",
    "iter_support",
]


class DraftKind(Enum):
    WITH_REPLACEMENT = "with-replacement"
    WITHOUT_REPLACEMENT = "without-replacement"
    GREEDY = "greedy"


@dataclass(frozen=True, eq=False)
class DraftScheme:
    """A draft construction: the kind, the base distribution and the draft
    count n. Without replacement, n may not exceed the number of tokens of
    positive mass, the tokens the sampler can draw."""

    kind: DraftKind
    q: Dist
    n: int

    def __post_init__(self):
        object.__setattr__(self, "kind", DraftKind(self.kind))
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"draft count must be an integer (got {self.n!r})") from None
        if self.n < 1:
            raise ValueError("draft count must be >= 1")
        if self.kind is DraftKind.WITHOUT_REPLACEMENT:
            if self.n > np.count_nonzero(self.q.mass):
                raise ValueError(
                    "without-replacement draft count exceeds support size"
                )
        if self.kind is DraftKind.GREEDY and self.n - 1 >= self.q.vocab_size:
            raise ValueError("greedy scheme needs n - 1 < vocab_size")

    @property
    def vocab_size(self) -> int:
        return self.q.vocab_size

    # Convenience constructors.
    @staticmethod
    def with_replacement(q: Dist, n: int) -> "DraftScheme":
        return DraftScheme(DraftKind.WITH_REPLACEMENT, q, n)

    @staticmethod
    def without_replacement(q: Dist, n: int) -> "DraftScheme":
        return DraftScheme(DraftKind.WITHOUT_REPLACEMENT, q, n)

    @staticmethod
    def greedy(q: Dist, n: int) -> "DraftScheme":
        return DraftScheme(DraftKind.GREEDY, q, n)


def greedy_tail(q: Dist, n: int) -> tuple[tuple[int, ...], Dist]:
    """The deterministic top n-1 prefix (descending mass) and the last-draft
    distribution: q with the top tokens zeroed, renormalised however little
    mass the rest holds.

    When the top tokens carry all of q's mass, so that the rest is exactly
    0, the last draft falls back to uniform over the remaining tokens, which
    keeps verification target-preserving.
    """
    top, rest = _greedy_rest(q, n)
    return top, Dist(rest)


def _greedy_rest(q: Dist, n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """`greedy_tail` before its `Dist` divides the masses by their sum."""
    top = top_k_desc(q, n - 1)
    rest = q.mass.copy()
    rest[list(top)] = 0.0
    total = rest.sum()
    if total > 0.0:
        # Normalised first: `Dist` rejects a total at or below _ZERO_MASS.
        return top, rest / total
    rest = np.ones(q.vocab_size)
    rest[list(top)] = 0.0
    return top, rest


def sample_tuples(scheme: DraftScheme, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` draft tuples as an int array of shape (count, n).

    Without replacement, the n drafts are successive inverse-CDF draws over
    the tokens not yet drawn (`AscendingQ.draw` of ``q.ascending``), from n
    uniforms per tuple.
    """
    kind = scheme.kind
    v = scheme.vocab_size
    if kind is DraftKind.WITH_REPLACEMENT:
        return rng.choice(v, size=(count, scheme.n), p=scheme.q.mass)
    if kind is DraftKind.WITHOUT_REPLACEMENT:
        asc = scheme.q.ascending
        u = rng.random((scheme.n, count))
        ranks = np.empty((scheme.n, count), dtype=np.intp)
        drawn = []
        for k in range(scheme.n):
            if k:
                drawn = asc.insert(drawn, ranks[k - 1])
            ranks[k] = asc.draw(drawn, u[k])
        return asc.order[ranks.T]
    top, tail = greedy_tail(scheme.q, scheme.n)
    out = np.empty((count, scheme.n), dtype=np.intp)
    out[:, : scheme.n - 1] = np.asarray(top, dtype=np.intp)
    out[:, -1] = rng.choice(v, size=count, p=tail.mass)
    return out


def tuple_prob(scheme: DraftScheme, tokens) -> float:
    """Exact probability of a draft tuple under the scheme (0 off-support)."""
    t = tuple(int(x) for x in tokens)
    if len(t) != scheme.n:
        raise ValueError(f"tuple length {len(t)} != draft count {scheme.n}")
    v = scheme.vocab_size
    if any(x < 0 or x >= v for x in t):
        raise ValueError("token id out of range")
    kind = scheme.kind
    if kind is DraftKind.WITH_REPLACEMENT:
        return float(np.prod([scheme.q.mass[x] for x in t]))
    if kind is DraftKind.WITHOUT_REPLACEMENT:
        # The remaining mass is summed over the tokens not yet drawn, not
        # found by subtraction, which cancels near a one-hot q.
        rest = scheme.q.mass.copy()
        prob = 1.0
        for x in t:
            if rest[x] == 0.0:  # a zero-mass token, or one drawn before
                return 0.0
            prob *= rest[x] / rest.sum()
            rest[x] = 0.0
        return float(prob)
    top, tail = greedy_tail(scheme.q, scheme.n)
    if t[: scheme.n - 1] != top:
        return 0.0
    return float(tail.mass[t[-1]])


def iter_support(scheme: DraftScheme):
    """Iterate the tuples with positive probability (small instances only):
    every token with positive mass counts, as in `sample_tuples`."""
    kind = scheme.kind
    pos = [int(x) for x in np.flatnonzero(scheme.q.mass > 0.0)]
    if kind is DraftKind.WITH_REPLACEMENT:
        yield from itertools.product(pos, repeat=scheme.n)
    elif kind is DraftKind.WITHOUT_REPLACEMENT:
        yield from itertools.permutations(pos, scheme.n)
    else:
        top, tail = greedy_tail(scheme.q, scheme.n)
        for x in np.flatnonzero(tail.mass > 0.0):
            yield top + (int(x),)
