"""Seeded Monte Carlo estimation of acceptance rates and statistical
distribution-preservation tests.

Trials are processed in fixed-size blocks; block b draws from the
counter-based substream ``Philox(key=seed).jumped(b)``, so results are
bit-identical for a given seed no matter how blocks are scheduled.
Acceptance and output-token counts are integers, so aggregation is exact and
order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import Dist, tv_distance
from .drafts import DraftScheme, sample_tuples
from .verify import make_kernel

__all__ = [
    "McReport",
    "TvTestResult",
    "estimate_alpha",
    "tv_test",
]

BLOCK_TRIALS = 1 << 16


@dataclass(frozen=True, eq=False)
class McReport:
    trials: int
    acceptance_mean: float
    acceptance_stderr: float
    empirical_marginal: Dist


@dataclass(frozen=True)
class TvTestResult:
    passed: bool
    statistic: float
    threshold: float


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # The stream of ``Philox(key=seed).jumped(block)``: a jump adds 2**128
    # to the counter, one in its third word, so set that word directly.
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, block, 0]))


def estimate_alpha(
    p: Dist, scheme: DraftScheme, method: str, trials: int, seed: int
) -> McReport:
    """Empirical acceptance rate and output marginal over seeded trials.

    A trial counts as accepted when the verifier's output token appears
    anywhere in the draft tuple, the same definition for every method.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if p.vocab_size != scheme.vocab_size:
        raise ValueError("size mismatch between p and the scheme")
    kernel = make_kernel(method, p, scheme)
    accepted = 0
    counts = np.zeros(p.vocab_size, dtype=np.int64)
    block = 0
    remaining = trials
    while remaining > 0:
        m = min(BLOCK_TRIALS, remaining)
        rng = _block_rng(seed, block)
        tuples = sample_tuples(scheme, m, rng)
        out = kernel.sample(tuples, rng)
        accepted += int((out[:, None] == tuples).any(axis=1).sum())
        counts += np.bincount(out, minlength=p.vocab_size)
        remaining -= m
        block += 1
    mean = accepted / trials
    return McReport(
        trials=trials,
        acceptance_mean=mean,
        acceptance_stderr=float(np.sqrt(mean * (1.0 - mean) / trials)),
        empirical_marginal=Dist(counts / trials),
    )


def tv_test(report: McReport, p: Dist, trials: int | None = None) -> TvTestResult:
    """Distribution-preservation check: pass when the total variation between
    the empirical marginal and p is below 3 * sqrt(V / trials).

    The threshold is a conservative harness constant sized so that correct
    kernels essentially never fail while a biased kernel stands out.
    """
    t = report.trials if trials is None else trials
    threshold = 3.0 * float(np.sqrt(p.vocab_size / t))
    stat = tv_distance(report.empirical_marginal, p)
    return TvTestResult(passed=stat <= threshold, statistic=stat, threshold=threshold)
