"""Optimal acceptance rate solvers.

The optimal acceptance rate of a draft scheme equals
``1 + min_H (P(H) - Q(H))`` over token subsets H, where P sums the target
mass and Q is the probability that every draft lands in H. With and without
replacement, Q has the convexity structure that puts the minimum on a prefix
of a ratio ordering, so a sort plus one linear scan suffices; the greedy and
single-draft optima have closed forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dists import Dist, stable_argsort
from .drafts import DraftKind, DraftScheme, greedy_tail

__all__ = [
    "ScanResult",
    "alpha_single_draft",
    "ratio_order",
    "alpha_scan",
    "alpha_greedy_closed",
]


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Outcome of the prefix scan.

    ``f_values[i]`` is P(H_i) - Q(H_i) for the length-i prefix of
    ``ordering`` (index 0 is the empty set), and ``alpha_star`` is 1 plus
    its minimum, at ``argmin_prefix_len``.
    """

    alpha_star: float
    argmin_prefix_len: int
    ordering: np.ndarray
    f_values: np.ndarray


def alpha_single_draft(p: Dist, q: Dist) -> float:
    """Optimal single-draft acceptance rate: the overlap ``sum min(p, q)``."""
    if p.vocab_size != q.vocab_size:
        raise ValueError("size mismatch between p and q")
    return float(np.minimum(p.mass, q.mass).sum())


@functools.lru_cache(maxsize=1)
def ratio_order(p: Dist, q: Dist) -> tuple[np.ndarray, np.ndarray]:
    """Token ids sorted by p(x)/q(x) ascending, ties by lowest id, and the
    sorted ratios; q(x) = 0 gives +inf where p(x) > 0 and -1 where p(x) = 0.
    The scans, `kseq_solve` and `RrsWoKernel` read it, and the last pair's
    result is kept (a `Dist` is immutable and keyed by identity), so a
    position sorts once; both arrays are read-only.
    """
    if p.vocab_size != q.vocab_size:
        raise ValueError("size mismatch between p and q")
    ratio = np.divide(p.mass, q.mass, out=np.where(p.mass > 0.0, np.inf, -1.0), where=q.mass > 0.0)
    order = stable_argsort(ratio)
    ratios = ratio[order]
    order.flags.writeable = ratios.flags.writeable = False
    return order, ratios


def _prefix_q_values(scheme: DraftScheme, order: np.ndarray) -> np.ndarray:
    """Q over the prefixes of ``order`` (length V, prefix sizes 1..V)."""
    v = order.size
    if scheme.kind is DraftKind.WITH_REPLACEMENT:
        s = np.minimum(np.cumsum(scheme.q.mass[order]), 1.0)
        return s ** scheme.n
    # Without replacement: the coefficient ratio W_{n,H} / W_{n,Sigma}, the
    # subset mass of conditional Poisson sampling (P(S) ∝ prod_{i in S} q_i).
    # W_k over prefix i follows W_k(i) = W_k(i-1) + q_i W_{k-1}(i-1), i.e.
    # one cumulative sum per degree k. Each degree is scaled by the power of
    # two that brings its total near 1: exact, so the ratio keeps its bits,
    # and W_n cannot underflow where q has n tokens of tiny mass.
    qs = scheme.q.mass[order]
    w_prev = np.ones(v + 1)
    for _ in range(scheme.n):
        w_next = np.zeros(v + 1)
        w_next[1:] = np.cumsum(qs * w_prev[:-1])
        w_next *= 2.0 ** -math.frexp(w_next[v])[1]
        w_prev = w_next
    if w_prev[v] <= 0.0:
        raise ValueError("without-replacement draft count exceeds support size")
    return w_prev[1:] / w_prev[v]


def alpha_scan(p: Dist, scheme: DraftScheme) -> ScanResult:
    """Optimal acceptance rate via the sorted prefix scan.

    Runs in O(V log V + n V). Only the with- and without-replacement schemes
    have the structure this relies on; the greedy optimum is
    `alpha_greedy_closed`.
    """
    if scheme.kind not in (DraftKind.WITH_REPLACEMENT, DraftKind.WITHOUT_REPLACEMENT):
        raise ValueError(f"no prefix scan for {scheme.kind.value} drafts")
    order, _ = ratio_order(p, scheme.q)
    q_vals = _prefix_q_values(scheme, order)
    p_cum = np.cumsum(p.mass[order])
    f_values = np.concatenate(([0.0], p_cum - q_vals))
    argmin = int(np.argmin(f_values))
    return ScanResult(
        alpha_star=1.0 + float(f_values[argmin]),
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
