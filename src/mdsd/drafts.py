"""Draft-tuple distributions.

A `DraftScheme` describes how the n draft tokens of one decoding step are
produced from the draft-model distribution q: n independent draws (with
replacement), n distinct draws (without replacement), or the n - 1 most
likely tokens and one draw from the rest (greedy). Each kind is one row of
`_ROWS`, from which each scheme exposes

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

The row also gives the subset mass Q(H) = P(all n drafts land in H) along
the prefixes of `mdsd.alpha.residual_table`'s ratio order, which
`mdsd.alpha.alpha_scan` minimises, or None where the optimum has a closed
form (greedy: `mdsd.alpha.alpha_greedy_closed`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

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


def _q_with_replacement(scheme: "DraftScheme", table) -> np.ndarray:
    """Q over the ratio-order prefixes (sizes 1..V): q(H)^n."""
    return np.minimum(table.q_cum, 1.0) ** scheme.n


def _q_conditional_poisson(scheme: "DraftScheme", table) -> np.ndarray:
    """Q over the ratio-order prefixes (sizes 1..V): W_{n,H} / W_{n,Sigma},
    the subset mass of conditional Poisson sampling (P(S) ∝ prod_{i in S}
    q_i). W_k over prefix i follows W_k(i) = W_k(i-1) + q_i W_{k-1}(i-1),
    one cumulative sum per degree k. Each degree is scaled by the power of
    two that brings its total near 1: exact, so the ratio keeps its bits,
    and W_n cannot underflow where q has n tokens of tiny mass."""
    v = table.size
    qs = scheme.q.mass[table.order]
    w_prev = np.ones(v + 1)
    for _ in range(scheme.n):
        w_next = np.zeros(v + 1)
        w_next[1:] = np.cumsum(qs * w_prev[:-1])
        w_next *= 2.0 ** -math.frexp(w_next[v])[1]
        w_prev = w_next
    if w_prev[v] <= 0.0:
        raise ValueError("without-replacement draft count exceeds support size")
    return w_prev[1:] / w_prev[v]


class _Row(NamedTuple):
    fixed: Callable[[int], int]  # how many of the n drafts are the top-q tokens
    replace: bool  # whether the other drafts are drawn with replacement
    q_form: Callable | None  # Q along the ratio order, or None


# One row per kind. A new kind adds its `DraftKind` member, its row here, its
# rational law in `mdsd.oracle.tuple_probs_exact`, the `mdsd.verify.METHODS`
# rows that verify it, and its tests.
_ROWS = {
    DraftKind.WITH_REPLACEMENT: _Row(lambda n: 0, True, _q_with_replacement),
    # Its Q form is conditional Poisson's, not the law of the successive
    # sampler that draws these drafts (ROADMAP item 1).
    DraftKind.WITHOUT_REPLACEMENT: _Row(lambda n: 0, False, _q_conditional_poisson),
    DraftKind.GREEDY: _Row(lambda n: n - 1, True, None),
}


@dataclass(frozen=True, eq=False)
class DraftScheme:
    """A draft construction: the kind, the base distribution and the draft
    count n. The fixed top-q drafts must leave a token to draw, and drafts
    drawn without replacement may not outnumber the tokens of positive mass."""

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
        row = _ROWS[self.kind]
        fixed = row.fixed(self.n)
        if fixed >= self.q.vocab_size:
            raise ValueError(f"{self.kind.value} scheme's {fixed} fixed drafts need vocab_size > {fixed}")
        if not row.replace and self.n - fixed > np.count_nonzero(self.prefix_law[1].mass):
            raise ValueError(f"{self.kind.value} draft count exceeds support size")

    @property
    def vocab_size(self) -> int:
        return self.q.vocab_size

    @functools.cached_property
    def prefix_law(self) -> tuple[tuple[int, ...], Dist]:
        """The fixed top-q drafts (descending mass) and the law the other
        drafts are drawn from: () and q itself when none is fixed."""
        fixed = _ROWS[self.kind].fixed(self.n)
        return greedy_tail(self.q, fixed + 1) if fixed else ((), self.q)

    @property
    def q_form(self) -> Callable | None:
        """The row's Q(H) form, ``q_form(scheme, table)``, or None."""
        return _ROWS[self.kind].q_form

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
    top = top_k_desc(q, n - 1)
    rest = q.mass.copy()
    rest[list(top)] = 0.0
    total = rest.sum()
    if total > 0.0:
        # Normalised first: `Dist` rejects a total at or below _ZERO_MASS.
        return top, Dist(rest / total)
    rest = np.ones(q.vocab_size)
    rest[list(top)] = 0.0
    return top, Dist(rest)


def sample_tuples(scheme: DraftScheme, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` draft tuples as an int array of shape (count, n).

    Without replacement, the drawn drafts are successive inverse-CDF draws
    over the tokens not yet drawn (`AscendingQ.draw` of the law's
    ``ascending``), from one uniform per draft and tuple.
    """
    top, law = scheme.prefix_law
    m = scheme.n - len(top)
    if _ROWS[scheme.kind].replace:
        drawn = rng.choice(scheme.vocab_size, size=(count, m), p=law.mass)
    else:
        asc = law.ascending
        u = rng.random((m, count))
        ranks = np.empty((m, count), dtype=np.intp)
        taken = []
        for k in range(m):
            if k:
                taken = asc.insert(taken, ranks[k - 1])
            ranks[k] = asc.draw(taken, u[k])
        drawn = asc.order[ranks.T]
    fixed = np.broadcast_to(np.asarray(top, dtype=np.intp), (count, len(top)))
    return np.concatenate((fixed, drawn), axis=1)


def tuple_prob(scheme: DraftScheme, tokens) -> float:
    """Exact probability of a draft tuple under the scheme (0 off-support)."""
    t = tuple(int(x) for x in tokens)
    if len(t) != scheme.n:
        raise ValueError(f"tuple length {len(t)} != draft count {scheme.n}")
    v = scheme.vocab_size
    if any(x < 0 or x >= v for x in t):
        raise ValueError("token id out of range")
    top, law = scheme.prefix_law
    if t[: len(top)] != top:
        return 0.0
    drawn = t[len(top) :]
    if _ROWS[scheme.kind].replace:
        return float(np.prod([law.mass[x] for x in drawn]))
    # The remaining mass is summed over the tokens not yet drawn, not found
    # by subtraction, which cancels near a one-hot law.
    rest = law.mass.copy()
    prob = 1.0
    for x in drawn:
        if rest[x] == 0.0:  # a zero-mass token, or one drawn before
            return 0.0
        prob *= rest[x] / rest.sum()
        rest[x] = 0.0
    return float(prob)


def iter_support(scheme: DraftScheme):
    """Iterate the tuples with positive probability (small instances only):
    every token with positive mass counts, as in `sample_tuples`."""
    top, law = scheme.prefix_law
    pos = [int(x) for x in np.flatnonzero(law.mass > 0.0)]
    m = scheme.n - len(top)
    replace = _ROWS[scheme.kind].replace
    for rest in itertools.product(pos, repeat=m) if replace else itertools.permutations(pos, m):
        yield top + rest
