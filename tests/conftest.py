"""Shared instance generators for the test suite.

Random instances come in two flavours: integer-grid distributions (masses
k/D for a common denominator) that convert losslessly to rationals for the
exact oracles, and Dirichlet-random float distributions for the fast-path
property checks. The float subset brute force and the conditional-Poisson
draft law below are references that share no code with the prefix scan.
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

from mdsd.dists import _ZERO_MASS, Dist, tv_distance
from mdsd.drafts import iter_support, tuple_prob
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


def dirichlet_dist(rng: np.random.Generator, vocab: int, conc: float = 1.0) -> Dist:
    return Dist(rng.dirichlet(np.full(vocab, conc)))


def support_probs(scheme) -> dict[tuple[int, ...], float]:
    """The scheme's draft law: every support tuple with its probability."""
    return {t: tuple_prob(scheme, t) for t in iter_support(scheme)}


def rrs_wo_table(p: Dist, q: Dist, tokens) -> np.ndarray:
    """The exact rrs-wo output distribution of one draft tuple, rounded to
    floats."""
    return np.array(rrs_wo_conditional(p, q, tokens), dtype=float)


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
