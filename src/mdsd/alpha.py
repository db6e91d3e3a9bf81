"""Optimal acceptance rate solvers.

The optimal acceptance rate of a draft scheme equals
``1 + min_H (P(H) - Q(H))`` over token subsets H, where P sums the target
mass and Q is the probability that every draft lands in H. For schemes whose
Q has the required convexity structure the minimum is attained on a prefix of
a ratio ordering, so a sort plus one linear scan suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .dists import Dist, top_k_desc
from .drafts import DraftKind, DraftScheme, greedy_tail, make_prefix_q

__all__ = [
    "ScanResult",
    "alpha_single_draft",
    "ratio_order",
    "alpha_scan",
    "alpha_greedy_closed",
    "alpha_bruteforce",
    "subset_q_fn",
]

BRUTEFORCE_MAX_VOCAB = 20


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Outcome of the prefix scan.

    ``f_values[i]`` is P(H_i) - Q(H_i) for the length-i prefix of
    ``ordering`` (index 0 is the empty set), ``min_f`` its minimum and
    ``alpha_star = 1 + min_f``.
    """

    alpha_star: float
    min_f: float
    argmin_prefix_len: int
    ordering: np.ndarray
    f_values: np.ndarray


def alpha_single_draft(p: Dist, q: Dist) -> float:
    """Optimal single-draft acceptance rate: the overlap ``sum min(p, q)``."""
    if p.vocab_size != q.vocab_size:
        raise ValueError("size mismatch between p and q")
    return float(np.minimum(p.mass, q.mass).sum())


def ratio_order(p: Dist, q: Dist) -> np.ndarray:
    """Token ids sorted by q(x)/p(x) descending.

    Tokens with p(x) = 0 sort first (ratio +inf, including q(x) = 0), and
    ties break toward the lowest token id, so the order is deterministic.
    """
    if p.vocab_size != q.vocab_size:
        raise ValueError("size mismatch between p and q")
    pm = p.mass
    ratios = np.where(pm > 0.0, q.mass / np.where(pm > 0.0, pm, 1.0), np.inf)
    return np.lexsort((np.arange(p.vocab_size), -ratios))


_FAST_KINDS = (
    DraftKind.WITH_REPLACEMENT,
    DraftKind.WITHOUT_REPLACEMENT,
    DraftKind.GREEDY,
)


def _scan_ordering(p: Dist, scheme: DraftScheme) -> np.ndarray:
    if scheme.kind not in _FAST_KINDS:
        raise ValueError(f"no fast Q for {scheme.kind.value}; use the exact oracle")
    if scheme.kind is DraftKind.GREEDY:
        # The minimizing subsets all contain the deterministic top n-1
        # prefix (Q is zero otherwise), so those tokens lead and the rest
        # follow in ratio order.
        top = np.asarray(top_k_desc(scheme.q, scheme.n - 1), dtype=np.intp)
        order = ratio_order(p, scheme.q)
        return np.concatenate((top, order[~np.isin(order, top)]))
    return ratio_order(p, scheme.q)


def _prefix_q_values(scheme: DraftScheme, order: np.ndarray) -> np.ndarray:
    """Q over the prefixes of ``order`` (length V, prefix sizes 1..V)."""
    v = order.size
    if scheme.kind is DraftKind.WITH_REPLACEMENT:
        s = np.minimum(np.cumsum(scheme.q.mass[order]), 1.0)
        return s ** scheme.n
    if scheme.kind is DraftKind.WITHOUT_REPLACEMENT:
        # W_k over prefix i follows W_k(i) = W_k(i-1) + q_i W_{k-1}(i-1),
        # i.e. one cumulative sum per degree k.
        qs = scheme.q.mass[order]
        w_prev = np.ones(v + 1)
        for _ in range(scheme.n):
            w_next = np.zeros(v + 1)
            w_next[1:] = np.cumsum(qs * w_prev[:-1])
            w_prev = w_next
        if w_prev[v] <= 0.0:
            raise ValueError("without-replacement draft count exceeds support size")
        return w_prev[1:] / w_prev[v]
    if scheme.kind is DraftKind.GREEDY:
        _, tail = greedy_tail(scheme.q, scheme.n)
        cum = np.cumsum(tail.mass[order])
        has_top = np.arange(1, v + 1) >= scheme.n - 1
        return np.where(has_top, cum, 0.0)
    raise ValueError(f"no fast Q for {scheme.kind.value}; use the exact oracle")


def alpha_scan(p: Dist, scheme: DraftScheme) -> ScanResult:
    """Optimal acceptance rate via the sorted prefix scan.

    Runs in O(V log V + n V). Only with-replacement, without-replacement and
    greedy schemes have the structure this relies on; other kinds must go
    through the exact oracle.
    """
    if p.vocab_size != scheme.vocab_size:
        raise ValueError("size mismatch between p and the scheme")
    order = _scan_ordering(p, scheme)
    q_vals = _prefix_q_values(scheme, order)
    p_cum = np.cumsum(p.mass[order])
    f_values = np.concatenate(([0.0], p_cum - q_vals))
    argmin = int(np.argmin(f_values))
    min_f = float(f_values[argmin])
    return ScanResult(
        alpha_star=1.0 + min_f,
        min_f=min_f,
        argmin_prefix_len=argmin,
        ordering=order,
        f_values=f_values,
    )


def alpha_greedy_closed(p: Dist, q: Dist, n: int) -> float:
    """Closed-form optimal acceptance rate of the greedy draft scheme:
    target mass on the deterministic top tokens plus the overlap between p
    and the last-draft distribution, clamped to 1 against rounding."""
    if p.vocab_size != q.vocab_size:
        raise ValueError("size mismatch between p and q")
    if n < 1:
        raise ValueError("draft count must be >= 1")
    top, tail = greedy_tail(q, n)
    top_mass = float(p.mass[list(top)].sum()) if top else 0.0
    return min(1.0, top_mass + float(np.minimum(p.mass, tail.mass).sum()))


def alpha_bruteforce(p: Dist, subset_q: Callable[[tuple[int, ...]], float]) -> float:
    """Exact optimum by enumerating all 2^V subsets; the independent check
    for every fast path. ``subset_q`` maps a token-id tuple to Q(H)."""
    v = p.vocab_size
    if v > BRUTEFORCE_MAX_VOCAB:
        raise ValueError(f"vocab too large for brute force (> {BRUTEFORCE_MAX_VOCAB})")
    pm = p.mass
    best = 0.0  # empty set
    for mask in range(1, 1 << v):
        members = tuple(i for i in range(v) if mask >> i & 1)
        f = float(sum(pm[i] for i in members)) - subset_q(members)
        if f < best:
            best = f
    return 1.0 + best


def subset_q_fn(scheme: DraftScheme) -> Callable[[Iterable[int]], float]:
    """Q(H) as a plain set function, evaluated fresh per call via the
    scheme's incremental evaluator."""

    def q_of(members: Iterable[int]) -> float:
        ev = make_prefix_q(scheme)
        for t in members:
            ev.add(int(t))
        return ev.value()

    return q_of
