"""Shared instance generators for the test suite.

Random instances come in two flavours: integer-grid distributions (masses
k/D for a common denominator) that convert losslessly to rationals for the
exact oracles, and Dirichlet-random float distributions for the fast-path
property checks. The float subset brute force and the conditional-Poisson
draft law below are references that share no code with the prefix scan.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mdsd.dists import _ZERO_MASS, Dist
from mdsd.drafts import iter_support, sample_tuples, tuple_prob
from mdsd.mc import BLOCK_TRIALS, McReport, _block_rng
from mdsd.oracle import rrs_wo_conditional

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


def first_draft_report(scheme, trials: int, seed: int) -> McReport:
    """The negative control of the preservation test: the report of a
    verifier that emits the first draft and ignores the target, so its
    marginal follows the draft law. Its tuples are those `estimate_alpha`
    draws at the same trials and seed."""
    counts = np.zeros(scheme.vocab_size, dtype=np.int64)
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        tuples = sample_tuples(scheme, min(BLOCK_TRIALS, trials - start), _block_rng(seed, block))
        counts += np.bincount(tuples[:, 0], minlength=scheme.vocab_size)
    return McReport(
        trials=trials,
        acceptance_mean=1.0,
        acceptance_stderr=0.0,
        empirical_marginal=Dist(counts / trials),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
