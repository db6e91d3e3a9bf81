"""Seeded Monte Carlo estimation of acceptance rates.

The report estimates rrs-wo here where the exact
`mdsd.verify.rrs_wo_rate_exact` would walk a larger tree than the estimate
walks (see `mdsd.cli`), and every other method has a closed form.

Trials are processed in fixed-size blocks; block b draws from the
counter-based substream ``Philox(key=seed).jumped(b)``, so results are
bit-identical for a given seed no matter how blocks are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import Dist
from .drafts import DraftScheme, sample_tuples
from .verify import make_kernel

__all__ = [
    "McReport",
    "estimate_alpha",
]

BLOCK_TRIALS = 1 << 16


@dataclass(frozen=True, eq=False)
class McReport:
    trials: int
    acceptance_mean: float
    acceptance_stderr: float


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # The stream of ``Philox(key=seed).jumped(block)``: a jump adds 2**128
    # to the counter, one in its third word, so set that word directly.
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, block, 0]))


def _blocks(scheme: DraftScheme, trials: int, seed: int):
    """The trials' blocks: each block's draft tuples and the generator that
    drew them, which the verifier's coins continue."""
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        rng = _block_rng(seed, block)
        yield sample_tuples(scheme, min(BLOCK_TRIALS, trials - start), rng), rng


def estimate_alpha(
    p: Dist, scheme: DraftScheme, method: str, trials: int, seed: int
) -> McReport:
    """Empirical acceptance rate over seeded trials.

    A trial counts as accepted when the verifier's output token appears
    anywhere in the draft tuple, the same definition for every method. The
    verifier's stage coins are drawn; a trial that rejects every draft
    counts the final distribution's mass on its drafts instead of a draw
    from it (`_Kernel.accepted`), which leaves the mean unbiased and each
    trial in [0, 1], so the binomial stderr still bounds it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if p.vocab_size != scheme.vocab_size:
        raise ValueError("size mismatch between p and the scheme")
    kernel = make_kernel(method, p, scheme)
    accepted = sum(kernel.accepted(tuples, rng) for tuples, rng in _blocks(scheme, trials, seed))
    mean = accepted / trials
    return McReport(
        trials=trials,
        acceptance_mean=mean,
        acceptance_stderr=float(np.sqrt(mean * (1.0 - mean) / trials)),
    )
