"""Independent ground-truth computations on small instances.

Everything here is deliberately brute force and (where probabilities allow)
exact over rationals, so the fast paths elsewhere can be validated against
answers that share none of their code: the transport LP value via bipartite
max flow, subset-selection minima by full enumeration, the sequential
without-replacement subset mass, verifier output marginals by summing
over every draft tuple, and the exact walk of without-replacement rejection
sampling (`rrs_wo_conditional`), the reference for the batched stages of
`mdsd.verify.RrsWoKernel`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dists import Dist
from .drafts import DraftKind, DraftScheme, iter_support, tuple_prob

__all__ = [
    "RationalScheme",
    "rational_dist",
    "tuple_probs_exact",
    "alpha_maxflow",
    "alpha_subset_exact",
    "q_sequential_exact",
    "verifier_marginal_exact",
    "rrs_wo_conditional",
]

MAX_TUPLE_NODES = 20000
MAX_SUBSET_VOCAB = 20


def rational_dist(weights: Sequence[int]) -> tuple[Fraction, ...]:
    """Integer weights -> exact probability vector."""
    total = sum(weights)
    if total <= 0 or any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative with positive total")
    return tuple(Fraction(w, total) for w in weights)


@dataclass(frozen=True)
class RationalScheme:
    """Draft scheme over exact rational masses (oracle-side mirror of
    `DraftScheme`; kept separate so no float ever enters the oracle path)."""

    kind: DraftKind
    q: tuple[Fraction, ...]
    n: int

    @property
    def vocab_size(self) -> int:
        return len(self.q)


def _top_desc_rational(q: Sequence[Fraction], k: int) -> tuple[int, ...]:
    order = sorted(range(len(q)), key=lambda i: (-q[i], i))
    return tuple(order[:k])


def _greedy_tail_rational(q: Sequence[Fraction], n: int):
    top = _top_desc_rational(q, n - 1)
    rest_mass = 1 - sum(q[i] for i in top)
    v = len(q)
    if rest_mass == 0:
        others = [i for i in range(v) if i not in top]
        tail = [Fraction(0)] * v
        for i in others:
            tail[i] = Fraction(1, len(others))
        return top, tuple(tail)
    tail = [Fraction(0) if i in top else q[i] / rest_mass for i in range(v)]
    return top, tuple(tail)


def tuple_probs_exact(scheme: RationalScheme) -> dict[tuple[int, ...], Fraction]:
    """Support of the draft distribution with exact tuple probabilities."""
    v = scheme.vocab_size
    if v ** scheme.n > MAX_TUPLE_NODES:
        raise ValueError("instance too large for exact enumeration")
    kind = scheme.kind
    out: dict[tuple[int, ...], Fraction] = {}
    if kind is DraftKind.WITH_REPLACEMENT:
        pos = [i for i in range(v) if scheme.q[i] > 0]
        for t in itertools.product(pos, repeat=scheme.n):
            out[t] = math.prod((scheme.q[i] for i in t), start=Fraction(1))
    elif kind is DraftKind.WITHOUT_REPLACEMENT:
        pos = [i for i in range(v) if scheme.q[i] > 0]
        if scheme.n > len(pos):
            raise ValueError("without-replacement draft count exceeds support size")
        for t in itertools.permutations(pos, scheme.n):
            prob = Fraction(1)
            remaining = Fraction(1)
            for i in t:
                prob *= scheme.q[i] / remaining
                remaining -= scheme.q[i]
            out[t] = prob
    elif kind is DraftKind.GREEDY:
        top, tail = _greedy_tail_rational(scheme.q, scheme.n)
        for i in range(v):
            if tail[i] > 0:
                out[top + (i,)] = tail[i]
    else:
        raise ValueError(f"unknown scheme kind {kind}")
    assert sum(out.values()) == 1
    return out


class _Dinic:
    """Max flow on integer capacities (exactness via a common denominator)."""

    def __init__(self, num_nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, source: int, sink: int) -> int:
        flow = 0
        n = len(self.adj)
        while True:
            level = [-1] * n
            level[source] = 0
            queue = [source]
            for u in queue:
                for e in self.adj[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[sink] < 0:
                return flow
            it = [0] * n

            def augment(u: int, pushed: int) -> int:
                if u == sink:
                    return pushed
                while it[u] < len(self.adj[u]):
                    e = self.adj[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == level[u] + 1:
                        got = augment(v, min(pushed, self.cap[e]))
                        if got > 0:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = augment(source, 1 << 62)
                if pushed == 0:
                    break
                flow += pushed


def alpha_maxflow(
    p: Sequence[Fraction],
    scheme: RationalScheme,
    tuple_probs: dict[tuple[int, ...], Fraction] | None = None,
) -> Fraction:
    """Optimal acceptance rate as the exact value of the transport LP.

    The relaxed transport program is a bipartite flow problem: tokens on the
    left with capacity p(i), draft tuples on the right with capacity
    p_draft(t), and an uncapped edge wherever the token appears in the tuple.
    Works for every scheme kind. ``tuple_probs`` overrides the enumerated
    support with any other tuple law (the value must not depend on its
    ordering).
    """
    if len(p) != scheme.vocab_size:
        raise ValueError("size mismatch between p and the scheme")
    probs = tuple_probs if tuple_probs is not None else tuple_probs_exact(scheme)
    tuples = list(probs)
    denom = math.lcm(
        *(x.denominator for x in p),
        *(probs[t].denominator for t in tuples),
    )
    v = len(p)
    source = 0
    sink = 1 + v + len(tuples)
    net = _Dinic(sink + 1)
    for i in range(v):
        net.add_edge(source, 1 + i, int(p[i] * denom))
    for j, t in enumerate(tuples):
        node = 1 + v + j
        net.add_edge(node, sink, int(probs[t] * denom))
        for i in set(t):
            net.add_edge(1 + i, node, denom)
    return Fraction(net.max_flow(source, sink), denom)


def alpha_subset_exact(p: Sequence[Fraction], scheme: RationalScheme) -> Fraction:
    """Optimal acceptance rate by enumerating every token subset exactly:
    1 + min_H (P(H) - Q(H)) with Q built from the enumerated tuple support."""
    v = len(p)
    if v > MAX_SUBSET_VOCAB:
        raise ValueError(f"vocab too large for subset enumeration (> {MAX_SUBSET_VOCAB})")
    probs = tuple_probs_exact(scheme)
    # Q(H) sums the tuples whose token set is contained in H: accumulate by
    # token-set mask, then a subset-sum (zeta) transform.
    q_by_mask = [Fraction(0)] * (1 << v)
    for t, pr in probs.items():
        mask = 0
        for i in t:
            mask |= 1 << i
        q_by_mask[mask] += pr
    for b in range(v):
        bit = 1 << b
        for mask in range(1 << v):
            if mask & bit:
                q_by_mask[mask] += q_by_mask[mask ^ bit]
    best = Fraction(0)
    p_by_mask = [Fraction(0)] * (1 << v)
    for mask in range(1, 1 << v):
        low = mask & -mask
        p_by_mask[mask] = p_by_mask[mask ^ low] + p[low.bit_length() - 1]
        f = p_by_mask[mask] - q_by_mask[mask]
        if f < best:
            best = f
    return 1 + best


def q_sequential_exact(q, members, n: int):
    """Probability that n sequential renormalized draws all land in the given
    token set, by direct enumeration of ordered distinct tuples.

    ``q`` may be a `Dist` (float result) or a sequence of `Fraction`
    (exact result).
    """
    masses = list(q.mass) if isinstance(q, Dist) else list(q)
    one = 1 if isinstance(masses[0], Fraction) else 1.0
    members = sorted(set(int(i) for i in members))
    if len(members) > 10 or n > 4:
        raise ValueError("instance too large for sequential enumeration")
    if any(i < 0 or i >= len(masses) for i in members):
        raise ValueError("token id out of range")
    positive = sum(1 for m in masses if m > 0)
    if n > positive:
        raise ValueError("draw count exceeds support size")

    def recurse(pool: list[int], drawn: frozenset, depth: int):
        if depth == n:
            return one
        # The remaining mass is summed over the tokens not yet drawn, not
        # found by subtraction, which cancels near a one-hot q.
        remaining = sum(m for i, m in enumerate(masses) if i not in drawn)
        total = one - one  # zero of the right type
        for idx, i in enumerate(pool):
            if masses[i] <= 0 or remaining <= 0:
                continue
            total += (masses[i] / remaining) * recurse(
                pool[:idx] + pool[idx + 1 :], drawn | {i}, depth + 1
            )
        return total

    return recurse(members, frozenset(), 0)


def verifier_marginal_exact(p: Dist, scheme: DraftScheme, kernel) -> Dist:
    """Output marginal of a verifier kernel, summed over the scheme's whole
    tuple support. Target preservation means this must equal p."""
    v = scheme.vocab_size
    if v ** scheme.n > MAX_TUPLE_NODES:
        raise ValueError("instance too large for exact enumeration")
    acc = np.zeros(v)
    total = 0.0
    for t in iter_support(scheme):
        pr = tuple_prob(scheme, t)
        if pr <= 0.0:
            continue
        acc += pr * kernel.conditional(t)
        total += pr
    if abs(total - 1.0) > 1e-9:
        raise ValueError("draft support probabilities do not sum to 1")
    if abs(acc.sum() - 1.0) > 1e-9:
        raise ValueError("verifier conditional tables do not sum to 1")
    return Dist(acc)


def rrs_wo_conditional(p: Dist, q: Dist, tokens) -> tuple[Fraction, ...]:
    """Exact output distribution of without-replacement rejection sampling
    given one draft tuple, over the exact values of the float masses: stage
    k accepts draft t_k with probability min(r_k / q_k, 1) at t_k, where q_k
    is q renormalized to exclude the earlier drafts and r_{k+1} is the
    normalized positive part of r_k - q_k; when every draft is rejected the
    output is drawn from the last residual. A residual vanishes only where
    r_k = q_k, and then the draft is accepted surely.

    r_k and q_k are kept as integers over an implicit denominator, their
    sum, so a stage costs O(V) integer operations.
    """
    tokens = [int(t) for t in tokens]
    if len(set(tokens)) != len(tokens):
        raise ValueError("without-replacement tuple has duplicate tokens")
    r, rest = _integer_masses(p), _integer_masses(q)
    accepted = {}
    weight = Fraction(1)
    for t in tokens:
        if rest[t] == 0:
            raise ValueError("draft outside support")
        r_sum, q_sum = sum(r), sum(rest)
        a = min(Fraction(r[t] * q_sum, r_sum * rest[t]), 1)
        accepted[t] = weight * a
        weight *= 1 - a
        if weight == 0:
            break
        r = [max(x * q_sum - y * r_sum, 0) for x, y in zip(r, rest)]
        rest[t] = 0
    num, den = weight.numerator, weight.denominator * sum(r)
    out = [Fraction(x * num, den) for x in r]
    for t, a in accepted.items():
        out[t] += a
    return tuple(out)


def _integer_masses(d: Dist) -> list[int]:
    # The exact masses times their common (power-of-two) denominator.
    ratios = [x.as_integer_ratio() for x in d.mass.tolist()]
    denom = max(den for _, den in ratios)
    return [num * (denom // den) for num, den in ratios]
