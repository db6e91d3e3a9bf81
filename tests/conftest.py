"""Shared instance generators for the test suite.

Random instances come in two flavours: integer-grid distributions (masses
k/D for a common denominator) that convert losslessly to rationals for the
exact oracles, and Dirichlet-random float distributions for the fast-path
property checks. The float subset brute force and the conditional-Poisson
draft law below are references that share no code with the prefix scan,
the with-replacement ladder in `Fraction`s shares none with the
residual table, and kseq's root is checked against a bisection.
The target-preservation test samples its verifier outputs here
(`sampled_marginal`), since `estimate_alpha` draws no final token.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from mdsd import cli
from mdsd.alpha import residual_table
from mdsd.dists import _ZERO_MASS, Dist, tv_distance
from mdsd.drafts import DraftKind, iter_support, tuple_prob
from mdsd.mc import _blocks
from mdsd.oracle import rrs_wo_conditional
from mdsd.verify import make_kernel

# How far an rrs-wo kernel table may be off the exact rule, weighted by the
# tuple's draft probability. A row whose residual vanishes, to a relative
# mass delta <= _ZERO_MASS, accepts that stage's draft t surely, where the
# exact rule accepts it with probability a = min(r_k(t) / q_k(t), 1). As
# r_k and q_k both sum to 1, q_k(t) - r_k(t) <= delta, so 1 - a <=
# delta / q_k(t), and the tuple's probability carries the factor q_k(t).
# Rounding, in the vanishing test and elsewhere, adds far less than 1e-14.
VANISHED_TABLE_BOUND = _ZERO_MASS + 1e-14


def grid_weights(rng: np.random.Generator, vocab: int, denom: int, min_positive: int = 1):
    """Integer weights summing to ``denom`` with at least ``min_positive``
    nonzero entries (zeros are otherwise allowed and desirable)."""
    while True:
        w = rng.multinomial(denom, np.full(vocab, 1.0 / vocab))
        if np.count_nonzero(w) >= min_positive:
            return [int(x) for x in w]


def grid_dist(weights) -> Dist:
    return Dist(np.asarray(weights, dtype=np.float64))


def grid_fracs(weights) -> tuple[Fraction, ...]:
    total = sum(weights)
    return tuple(Fraction(int(w), total) for w in weights)


def kind_cases(vocab: int, n: int, support: int):
    """(kind, draft count) for every `DraftKind` at draft count n, so that a
    kind with no case fails instead of going untested: greedy at no more than
    ``vocab`` drafts, and without replacement skipped where fewer than n
    tokens have mass."""
    for kind in DraftKind:
        if kind is DraftKind.GREEDY:
            yield kind, min(n, vocab)
        elif kind is not DraftKind.WITHOUT_REPLACEMENT or support >= n:
            yield kind, n


def dirichlet_dist(rng: np.random.Generator, vocab: int, conc: float = 1.0) -> Dist:
    return Dist(rng.dirichlet(np.full(vocab, conc)))


def support_probs(scheme) -> dict[tuple[int, ...], float]:
    """The scheme's draft law: every support tuple with its probability."""
    return {t: tuple_prob(scheme, t) for t in iter_support(scheme)}


def rrs_wo_table(p: Dist, q: Dist, tokens) -> np.ndarray:
    """The exact rrs-wo output distribution of one draft tuple, rounded to
    floats."""
    return np.array(rrs_wo_conditional(p, q, tokens), dtype=float)


def rrs_w_ladder(p: Dist, q: Dist, n: int) -> tuple[list, list | None]:
    """Rejection sampling with replacement in `Fraction`s, on the exact
    values of the float masses: the stage residuals r_1 = p and r_{k+1} the
    normalised positive part of r_k - q, one list per stage, and the
    distribution drawn when all n stages reject. A residual with no mass
    left makes its stage accept surely: the later stages are never reached
    and there is no final distribution."""
    p, q = _fractions(p), _fractions(q)
    stages, r = [], p
    for _ in range(n):
        stages.append(r)
        rest = [max(a - b, 0) for a, b in zip(r, q)]
        total = sum(rest)
        if total == 0:
            return stages, None
        r = [x / total for x in rest]
    return stages, r


def rrs_w_ladder_rate(ladder, q: Dist) -> Fraction:
    """The exact with-replacement rate of a `rrs_w_ladder`,
    1 - prod(1 - sum min(r_k, q))."""
    stages, _ = ladder
    qf = _fractions(q)
    reject = Fraction(1)
    for r in stages:
        reject *= 1 - sum(min(a, b) for a, b in zip(r, qf))
    return 1 - reject


def rrs_w_ladder_conditional(ladder, q: Dist, tokens) -> list:
    """The exact output distribution of one draft tuple under a
    `rrs_w_ladder`: stage k accepts its draft t with probability
    min(r_k(t) / q(t), 1)."""
    stages, final = ladder
    qf = _fractions(q)
    out = [Fraction(0)] * len(qf)
    weight = Fraction(1)
    for r, t in zip(stages, tokens):
        accept = min(r[t] / qf[t], 1)
        out[t] += weight * accept
        weight *= 1 - accept
    if weight:
        out = [x + weight * f for x, f in zip(out, final)]
    return out


def _fractions(dist: Dist) -> list:
    """The float masses as exact rationals, renormalised to sum to 1."""
    exact = [Fraction(float(x)) for x in dist.mass]
    total = sum(exact)
    return [x / total for x in exact]


def bisected_rho(p, q, n):
    """kseq's root by bisection, an independent reference for `kseq_solve`:
    the segment of the first breakpoint at or past n, or past 1 with h <= 0
    there, found by a linear scan over the breakpoints, and h = 0 bisected
    on that segment's fixed masses to adjacent floats, keeping the end
    where |h| is smaller. It shares only the residual table's sums and the
    form of h with the solver, which reads its masses at each rho and takes
    one Newton search over [1, n]."""
    table = residual_table(p, q)
    ratios, v = table.ratios, table.size

    def masses(k):
        return (float(table.p_cum[k - 1]) if k else 0.0, *table.tail(v - k))

    def h(rho, a, c, b):
        s = max(c - b, 0.0) + a * (rho - 1.0) / rho
        total = 0.0
        for _ in range(n - 1):
            total = s * (1.0 + total)
        return total - (rho - 1.0)

    k = next(
        (k for k, r in enumerate(ratios) if r >= n or (r > 1.0 and h(float(r), *masses(k + 1)) <= 0.0)), v
    )
    a, c, b = masses(k)
    left = max(float(ratios[k - 1]), 1.0) if k else 1.0
    right = min(float(ratios[k]), float(n)) if k < v else float(n)
    if h(left, a, c, b) <= 0.0 or a == b == 0.0:
        return left
    while left < (mid := 0.5 * (left + right)) < right:
        if h(mid, a, c, b) > 0.0:
            left = mid
        else:
            right = mid
    return min((left, right), key=lambda r: abs(h(r, a, c, b)))


def root_noise(p, q, n, rho):
    """How far rounding can move kseq's root: a bound on the rounding
    error of h at rho, 4 (n + 1) eps (sum s^j + rho - 1), over |h'(rho)|.
    Where h is flat (a double root, near-one-hot p and q) its rounding
    noise spans many floats, and two solves may keep different sign
    changes inside it."""
    table = residual_table(p, q)
    k = int(table.ratios.searchsorted(rho))
    a = float(table.p_cum[k - 1]) if k else 0.0
    c, b = table.tail(table.size - k)
    s = max(c - b, 0.0) + a * (rho - 1.0) / rho
    total = slope = 0.0
    for _ in range(n - 1):
        slope = 1.0 + total + s * slope
        total = s * (1.0 + total)
    flat = abs(slope * a / (rho * rho) - 1.0)
    return 4 * (n + 1) * 2.0**-52 * (total + rho - 1.0) / flat if flat else math.inf


def conditional_poisson_probs(q, n: int) -> dict:
    """Conditional Poisson sampling of n distinct tokens: P(S) is
    proportional to the product of q over S. Exact when ``q`` holds
    `Fraction`s; keyed by sorted token tuples."""
    weights = {
        s: math.prod(q[i] for i in s) for s in itertools.combinations(range(len(q)), n)
    }
    total = sum(weights.values())
    return {s: w / total for s, w in weights.items() if w > 0}


def subset_alpha(p: Dist, tuple_probs: dict) -> float:
    """``1 + min_H (P(H) - Q(H))`` by enumerating all 2^V token subsets in
    floats, where Q(H) sums the probabilities of the draft tuples whose
    tokens all lie in H."""
    v = p.vocab_size
    q_by_mask = np.zeros(1 << v)
    for t, prob in tuple_probs.items():
        q_by_mask[sum(1 << int(i) for i in set(t))] += float(prob)
    masks = np.arange(1 << v)
    members = (masks[:, None] >> np.arange(v)) & 1
    for b in range(v):
        # Subset-sum transform: Q(H) collects every tuple set inside H.
        has = members[:, b] == 1
        q_by_mask[has] += q_by_mask[masks[has] ^ (1 << b)]
    return 1.0 + float(np.min(members @ p.mass - q_by_mask))


@dataclass(frozen=True)
class TvTestResult:
    passed: bool
    statistic: float
    threshold: float


def tv_test(marginal: Dist, p: Dist, trials: int) -> TvTestResult:
    """Distribution-preservation check: pass when the total variation between
    an empirical marginal of ``trials`` outputs and p is below
    3 * sqrt(V / trials).

    The threshold is a conservative harness constant sized so that correct
    kernels essentially never fail while a biased kernel stands out.
    """
    threshold = 3.0 * float(np.sqrt(p.vocab_size / trials))
    stat = tv_distance(marginal, p)
    return TvTestResult(passed=stat <= threshold, statistic=stat, threshold=threshold)


def sampled_marginal(p: Dist, scheme, method: str, trials: int, seed: int) -> Dist:
    """The empirical output marginal of ``method``'s verifier: each trial's
    output drawn by `sample`, final draw included, from the tuples and coins
    `estimate_alpha` draws at the same trials and seed."""
    kernel = make_kernel(method, p, scheme)
    counts = np.zeros(p.vocab_size, dtype=np.int64)
    for tuples, rng in _blocks(scheme, trials, seed):
        counts += np.bincount(kernel.sample(tuples, rng), minlength=p.vocab_size)
    return Dist(counts / trials)


def first_draft_marginal(scheme, trials: int, seed: int) -> Dist:
    """The negative control of the preservation test: the marginal of a
    verifier that emits the first draft and ignores the target, so it
    follows the draft law. Its tuples are those `estimate_alpha` draws at
    the same trials and seed."""
    counts = np.zeros(scheme.vocab_size, dtype=np.int64)
    for tuples, _ in _blocks(scheme, trials, seed):
        counts += np.bincount(tuples[:, 0], minlength=scheme.vocab_size)
    return Dist(counts / trials)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture(autouse=True)
def no_kept_pool():
    """Drop the worker pool a test's runs kept, so that no later test meets
    workers forked before its own monkeypatches, and none forks beside the
    pool's live manager thread."""
    yield
    cli._drop_pool()
