"""Optimal acceptance rate solvers.

The optimal acceptance rate of a draft scheme equals
``1 + min_H (P(H) - Q(H))`` over token subsets H, where P sums the target
mass and Q is the probability that every draft lands in H. With and without
replacement, Q has the convexity structure that puts the minimum on a prefix
of a ratio ordering, so a sort plus one linear scan suffices; the greedy and
single-draft optima have closed forms.

The sort is `ratio_order`, and `residual_table` keeps the sums along it that
the scan and the exact verifier rates read: one table per (p, q) pair, the
one statement of the rejection residual max(p - c q, 0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dists import _ZERO_MASS, Dist, stable_argsort
from .drafts import DraftScheme

__all__ = [
    "ResidualTable",
    "ScanResult",
    "alpha_single_draft",
    "ratio_order",
    "residual_table",
    "residual_value",
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


def ratio_order(p: Dist, q: Dist) -> tuple[np.ndarray, np.ndarray]:
    """Token ids sorted by p(x)/q(x) ascending, ties by lowest id, and the
    sorted ratios; q(x) = 0 gives +inf where p(x) > 0 and -1 where p(x) = 0.
    `ResidualTable` sorts by it, so under `residual_table`'s memo a position
    sorts once; both arrays are read-only, as the table shares them with
    every reader.
    """
    if p.vocab_size != q.vocab_size:
        raise ValueError("size mismatch between p and q")
    ratio = np.divide(p.mass, q.mass, out=np.where(p.mass > 0.0, np.inf, -1.0), where=q.mass > 0.0)
    order = stable_argsort(ratio)
    ratios = ratio[order]
    order.flags.writeable = ratios.flags.writeable = False
    return order, ratios


def residual_value(pt, qt, top, c, up):
    """The unnormalised residual of `ResidualTable` state (c, u) at tokens of
    masses pt and qt: u q where ``top`` (the top ratio), max(p - c q, 0)
    elsewhere. Its one value formula, which `ResidualTable.dense` and the
    rejection-sampling stages read alike."""
    return np.where(top, qt * up, np.maximum(pt - c * qt, 0.0))


class ResidualTable:
    """The masses of p and q summed along `ratio_order`, from both ends.

    ``p_cum`` and ``q_cum`` sum the tokens by ascending p/q (prefix sizes
    1..V). ``sums`` sums them from the other end, by descending p/q
    (prefix sizes 0..V), where the tokens with q = 0 lead (p > 0) or trail
    (p = 0). The tokens at the top ratio, the largest finite p/q, sit at
    descending positions ``lead``..``top_end``-1; ``sums`` leaves them out
    and ``at_top`` sums their p and q on their own (prefix sizes 0..run).

    The rejection residual is stated here once. Its state is
    (c, u, other, M): the residual is max(p - c q, 0) off the top tokens
    and u q on them, ``other`` sums the first part and M the whole. On the
    top tokens p - c q = q (top ratio - c), kept as u beside c: as the
    residual shrinks onto them, c nears the top ratio and p - c q cancels
    to rounding noise, while u keeps its relative precision. A stage that
    rejects its draft leaves max(r - q_k, 0), where q_k is q over the
    undrafted mass s, and that is the update `next` takes (s = 1 with
    replacement). A drafted token falls to 0 by the same rule, so M sums
    the whole vocabulary. `residual_value` gives its value at any tokens,
    and `draw` draws tokens from it.

    One table per (p, q) pair is kept (`residual_table`); its arrays are
    read-only.
    """

    def __init__(self, p: Dist, q: Dist):
        order, ratios = ratio_order(p, q)
        v = self.size = order.size
        self.order, self.ratios = order, ratios
        # One (2, V) array of masses by ascending ratio, summed both ways;
        # the descending sums read it reversed, its top tokens zeroed.
        mass = np.empty((2, v))
        mass[0], mass[1] = p.mass[order], q.mass[order]
        cum = mass.cumsum(axis=1)
        self.lead = lead = v - int(ratios.searchsorted(np.inf))
        self.top_ratio = float(ratios[v - 1 - lead])
        self.top_end = top_end = v - int(ratios.searchsorted(self.top_ratio))
        mass = mass[:, ::-1]
        self.at_top = np.zeros((2, top_end - lead + 1))
        self.at_top[:, 1:] = mass[:, lead:top_end].cumsum(axis=1)
        mass[:, lead:top_end] = 0.0
        self.sums = np.zeros((2, v + 1))
        mass.cumsum(axis=1, out=self.sums[:, 1:])
        self.q_top = float(self.at_top[1, -1])
        for arr in (cum, self.at_top, self.sums):
            arr.flags.writeable = False
        self.p_cum, self.q_cum = cum
        self.p_sums, self.q_sums = self.sums
        self.p, self.q = p.mass, q.mass

    @property
    def descending(self) -> np.ndarray:
        """The tokens by descending p/q, the order of ``sums``."""
        return self.order[::-1]

    @functools.cached_property
    def top(self) -> np.ndarray:
        """Whether each token is at the top ratio."""
        top = np.zeros(self.size, dtype=bool)
        top[self.descending[self.lead : self.top_end]] = True
        return top

    def tail(self, j: int) -> tuple[float, float]:
        """The p and q masses of the first j tokens by descending ratio."""
        k = min(max(j - self.lead, 0), self.at_top.shape[1] - 1)
        return float(self.sums[0, j] + self.at_top[0, k]), float(self.sums[1, j] + self.at_top[1, k])

    def start(self):
        """The residual r_0 = p as (c, u, other, M)."""
        other = float(self.sums[0, -1])
        return 0.0, self.top_ratio, other, other + self.top_ratio * self.q_top

    def next(self, c, up, other, total, s):
        """The residual after a stage rejects its draft, from the stage's
        (c, u, other, M) and its undrafted q mass s: the next stage's
        (c, u, other, M), the count j of leading tokens by descending ratio
        with p > c q, and whether the residual vanished, its mass falling
        to `_ZERO_MASS` of the stage's. In exact arithmetic that happens
        only where r_k = q_k, and the stage then accepts its draft surely.
        Scalars or arrays of one shape alike."""
        # c + M / s, and u - M / s with the undrafted mass off the top
        # tokens taken as a whole, each in its own precision.
        c = c + total / s
        up = np.maximum((up * (s - self.q_top) - other) / s, 0.0)
        j = self.size - self.ratios.searchsorted(c, side="right")
        other = self.p_sums[j] - c * self.q_sums[j]
        new = other + up * self.q_top
        return c, up, other, new, j, new <= _ZERO_MASS * total

    def dense(self, c: float, up: float) -> np.ndarray:
        """The unnormalised residual of state (c, u) over the vocabulary."""
        return residual_value(self.p, self.q, self.top, c, up)

    def draw(self, c, up, count, y) -> np.ndarray:
        """One token per row of residual state (c, u), by bisection over the
        prefix sums: where the residual, summed by descending ratio, passes
        y, a uniform scaled by the row's mass M. ``count`` is the row's j of
        `next`; a row with u > 0 also reaches the top tokens."""
        at_top = bool(up.any())
        lo = np.zeros(c.size, dtype=np.intp)
        hi = np.where(up > 0.0, np.maximum(count, self.top_end), count) if at_top else count
        for _ in range(int(hi.max(initial=0)).bit_length()):
            mid = (lo + hi) >> 1
            below = self.p_sums[mid] - c * self.q_sums[mid]
            if at_top:
                below += up * self.at_top[1, np.clip(mid - self.lead, 0, self.at_top.shape[1] - 1)]
            go = below <= y
            lo = np.where(go, mid, lo)
            hi = np.where(go, hi, mid)
        return self.descending[lo]


# The last pair's p, q and table, and the hits and misses of `residual_table`.
_last = [None, None, None]
_counts = {"hits": 0, "misses": 0}


def residual_table(p: Dist, q: Dist) -> ResidualTable:
    """The `ResidualTable` of (p, q), with its `ratio_order` sort. The last
    pair's table is kept, by identity (a `Dist` is immutable), so the scans,
    `kseq_solve`, the verifiers and their exact rates read one table per
    position; ``cache_info()`` counts hits and misses. A miss drops the last
    table before it builds the next: freeing it at the position's end
    instead only made the next position fault the same pages in again."""
    if _last[0] is p and _last[1] is q:
        _counts["hits"] += 1
    else:
        _counts["misses"] += 1
        _last[:] = None, None, None  # the last pair's arrays go before the new ones are built
        _last[:] = p, q, ResidualTable(p, q)
    return _last[2]


residual_table.cache_info = lambda: SimpleNamespace(**_counts)


def alpha_scan(p: Dist, scheme: DraftScheme) -> ScanResult:
    """Optimal acceptance rate via the sorted prefix scan.

    Runs in O(V log V + n V). Only a scheme whose row has a Q(H) form
    (``scheme.q_form``) has the structure this relies on; the greedy optimum
    is `alpha_greedy_closed`.
    """
    if scheme.q_form is None:
        raise ValueError(f"no prefix scan for {scheme.kind.value} drafts")
    table = residual_table(p, scheme.q)
    f_values = np.concatenate(([0.0], table.p_cum - scheme.q_form(scheme, table)))
    argmin = int(np.argmin(f_values))
    return ScanResult(
        alpha_star=1.0 + float(f_values[argmin]),
        argmin_prefix_len=argmin,
        ordering=table.order,
        f_values=f_values,
    )


def alpha_greedy_closed(p: Dist, q: Dist, n: int) -> float:
    """Closed-form optimal acceptance rate of the greedy draft scheme:
    target mass on the deterministic top tokens plus the overlap between p
    and the last-draft distribution, clamped to 1 against rounding."""
    if p.vocab_size != q.vocab_size:
        raise ValueError("size mismatch between p and q")
    top, tail = DraftScheme.greedy(q, n).prefix_law
    top_mass = float(p.mass[list(top)].sum()) if top else 0.0
    return min(1.0, top_mass + alpha_single_draft(p, tail))
