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
the runs of ranks between the drawn tokens (`AscendingQ`). A draw costs
O(n + log V) per tuple after one O(V log V) sort; the without-replacement
verifier reads the remaining mass from the same runs.

The subset mass Q(H) = P(all n drafts land in H) that the optimum needs is
evaluated in `mdsd.alpha`, along the scan's prefixes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dists import Dist, exclude_renorm, top_k_desc

__all__ = [
    "AscendingQ",
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
    count n."""

    kind: DraftKind
    q: Dist
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("draft count must be >= 1")
        if self.kind is DraftKind.WITHOUT_REPLACEMENT:
            if self.n > self.q.support().size:
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
    distribution.

    When the top tokens carry all of q's mass, so that the remainder is
    exactly 0, the exclusion renormalization is undefined; the last draft
    then falls back to uniform over the remaining tokens, which keeps
    verification target-preserving.
    """
    top = top_k_desc(q, n - 1)
    try:
        tail = exclude_renorm(q, top)
    except ValueError:
        mass = np.ones(q.vocab_size)
        mass[list(top)] = 0.0
        tail = Dist(mass)
    return top, tail


class AscendingQ:
    """q's tokens by ascending mass (ties by lowest id): ``order`` lists the
    tokens by rank, ``sorted`` their masses, ``head[i]`` the sum of the i
    smallest and ``tail[i]`` the sum of all but them.

    Small masses come first, so a run of ranks that ends before the last
    rank is summed as a difference of ``head`` over masses no larger than
    its own, and a run that reaches the end is read from ``tail``: a mass
    that remains after the large tokens are drawn is never found by
    subtracting them from 1, which cancels near a one-hot q.
    """

    def __init__(self, q: Dist):
        mass = q.mass
        self.size = mass.size
        self.order = mass.argsort(kind="stable")
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
        """The mass not yet drawn, summed over the runs."""
        return sum(mass for _, _, mass in self.runs(drawn))

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


def sample_tuples(scheme: DraftScheme, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` draft tuples as an int array of shape (count, n).

    Without replacement, the n drafts are successive inverse-CDF draws over
    the tokens not yet drawn (`AscendingQ.draw`), from n uniforms per tuple.
    """
    kind = scheme.kind
    v = scheme.vocab_size
    if kind is DraftKind.WITH_REPLACEMENT:
        return rng.choice(v, size=(count, scheme.n), p=scheme.q.mass)
    if kind is DraftKind.WITHOUT_REPLACEMENT:
        asc = AscendingQ(scheme.q)
        u = rng.random((scheme.n, count))
        ranks = np.empty((scheme.n, count), dtype=np.intp)
        drawn = []
        for k in range(scheme.n):
            if k:
                drawn = asc.insert(drawn, ranks[k - 1])
            ranks[k] = asc.draw(drawn, u[k])
        return asc.order[ranks.T]
    if kind is DraftKind.GREEDY:
        top, tail = greedy_tail(scheme.q, scheme.n)
        out = np.empty((count, scheme.n), dtype=np.intp)
        out[:, : scheme.n - 1] = np.asarray(top, dtype=np.intp)
        out[:, -1] = rng.choice(v, size=count, p=tail.mass)
        return out
    raise ValueError(f"unknown scheme kind {kind}")


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
        if len(set(t)) != len(t):
            return 0.0
        # The remaining mass is summed over the tokens not yet drawn, not
        # found by subtraction, which cancels near a one-hot q.
        rest = scheme.q.mass.copy()
        prob = 1.0
        for x in t:
            remaining = rest.sum()
            if remaining <= 1e-12:
                return 0.0
            prob *= rest[x] / remaining
            rest[x] = 0.0
        return float(prob)
    if kind is DraftKind.GREEDY:
        top, tail = greedy_tail(scheme.q, scheme.n)
        if t[: scheme.n - 1] != top:
            return 0.0
        return float(tail.mass[t[-1]])
    raise ValueError(f"unknown scheme kind {kind}")


def iter_support(scheme: DraftScheme):
    """Iterate the tuples with positive probability (small instances only):
    every token with positive mass counts, as in `sample_tuples`."""
    kind = scheme.kind
    pos = [int(x) for x in np.flatnonzero(scheme.q.mass > 0.0)]
    if kind is DraftKind.WITH_REPLACEMENT:
        yield from itertools.product(pos, repeat=scheme.n)
    elif kind is DraftKind.WITHOUT_REPLACEMENT:
        yield from itertools.permutations(pos, scheme.n)
    elif kind is DraftKind.GREEDY:
        top, tail = greedy_tail(scheme.q, scheme.n)
        for x in np.flatnonzero(tail.mass > 0.0):
            yield top + (int(x),)
    else:
        raise ValueError(f"unknown scheme kind {kind}")
