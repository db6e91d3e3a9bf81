"""Verification algorithms.

Each verifier consumes a draft tuple and produces one output token whose
marginal over draft and verifier randomness is exactly the target
distribution p. Each kernel states its rule once, as stages (`_stages`:
the drafts it reads, the probability of accepting each, and the
distribution drawn when all are rejected). The shared base derives from
them the batched sampler (`sample`, an (m, n) array of draft tuples in, m
output tokens out) and the exact conditional table (`conditional`), so the
Monte Carlo path and the exact enumeration cannot disagree. `METHODS` says
which draft kinds each method verifies, and `make_kernel` builds the kernel
of a method for a scheme.

Methods: the optimal single-draft transport, recursive rejection sampling
against a running residual (with- and without-replacement variants), the
per-draft thresholded scheme with its fixed-point parameter rho, and the
exact verifier for greedy drafts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dists import _ZERO_MASS, Dist, residual_dist
from .drafts import DraftKind, DraftScheme, greedy_tail

__all__ = [
    "OTSingleKernel",
    "RrsWKernel",
    "RrsWoKernel",
    "KseqParams",
    "KseqKernel",
    "GreedyKernel",
    "FirstDraftKernel",
    "METHODS",
    "supports",
    "make_kernel",
    "kseq_solve",
    "rrs_w_rate_exact",
]

RHO_RESIDUAL_TOL = 1e-12
_FALLBACK_SLACK = 1e-9


def _accept_probs(p_like: np.ndarray, q_like: np.ndarray) -> np.ndarray:
    """min(p/q, 1) elementwise; tokens with q = 0 can never be proposed, so
    their entry is arbitrary (set to 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q_like > 0.0, p_like / np.where(q_like > 0.0, q_like, 1.0), 0.0)
    return np.minimum(ratio, 1.0)


class _Kernel:
    """A verifier stated once, as stages.

    A subclass defines ``_stages`` for an (m, n) batch of draft tuples. It
    returns the draft columns the verifier reads, the probability that each
    row accepts each of those drafts (same shape), and the distribution
    drawn when every draft is rejected: one vector, one row per tuple, or
    None when that cannot happen. The first accepted draft is the output.
    `sample` walks the stages with coins and `conditional` walks them as
    weights, so the Monte Carlo path and the exact table share one rule.
    ``q`` is the distribution the read drafts come from; a draft it cannot
    produce is an error (None skips the check).
    """

    tag: str

    def __init__(self, p: Dist, q: Dist | None, n: int = 1):
        if q is not None and p.vocab_size != q.vocab_size:
            raise ValueError("size mismatch between p and q")
        self.p, self.q, self.n = p, q, n

    def _walk(self, tuples):
        tuples = np.asarray(tuples, dtype=np.intp)
        if tuples.ndim != 2:
            raise ValueError("draft tuples must be an (m, n) array")
        cols, accept, final = self._stages(tuples)
        if self.q is not None and (self.q.mass[cols] <= 0.0).any():
            raise ValueError("draft outside support")
        return cols, accept, final

    def _final(self, final):
        if final is None:
            raise ValueError(f"{self.tag} numerical failure")
        return final

    def sample(self, tuples, rng: np.random.Generator) -> np.ndarray:
        """One output token per row of an (m, n) batch of draft tuples. The
        final distribution is drawn from only when some row needs it."""
        cols, accept, final = self._walk(tuples)
        m = cols.shape[0]
        out = np.full(m, -1, dtype=np.intp)
        done = np.zeros(m, dtype=bool)
        for k in range(cols.shape[1]):
            tk = cols[:, k]
            hit = (rng.random(m) < accept[:, k]) & ~done
            out[hit] = tk[hit]
            done |= hit
        if not done.all():
            final = self._final(final)
            if final.ndim == 1:
                drawn = rng.choice(final.size, size=m, p=final)
            else:  # one distribution per row: inverse CDF of one uniform each
                u = rng.random(m)
                drawn = (np.cumsum(final, axis=1) < u[:, None]).sum(axis=1)
                np.minimum(drawn, final.shape[1] - 1, out=drawn)
            out[~done] = drawn[~done]
        return out

    def conditional(self, tokens) -> np.ndarray:
        """The exact output distribution given one draft tuple."""
        cols, accept, final = self._walk([tokens])
        vec = np.zeros(self.p.vocab_size)
        weight = 1.0
        for t, a in zip(cols[0], accept[0]):
            vec[t] += weight * a
            weight *= 1.0 - a
        if weight > 0.0:
            final = self._final(final)
            vec += weight * (final if final.ndim == 1 else final[0])
        return vec


class OTSingleKernel(_Kernel):
    """Optimal single-draft transport: accept the draft with probability
    min(p/q, 1), otherwise resample from the residual of p minus q."""

    tag = "ot-single"

    def __init__(self, p: Dist, q: Dist):
        super().__init__(p, q)
        self.accept = _accept_probs(p.mass, q.mass)
        self.residual = residual_dist(p, q).mass

    def _stages(self, tuples):
        j = tuples[:, :1]
        return j, self.accept[j], self.residual


def _residual_ladder(p: Dist, q: Dist):
    """Stage residuals r_1 = p, r_2, ... of rejection sampling with
    replacement, r_{k+1} the normalized positive part of r_k - q. The ladder
    does not depend on which tokens were drawn."""
    r = p
    while True:
        yield r.mass
        r = residual_dist(r, q)


class RrsWKernel(_Kernel):
    """Recursive rejection sampling for drafts sampled with replacement:
    stage k accepts its draft with probability min(r_k/q, 1)."""

    tag = "rrs-w"

    def __init__(self, p: Dist, q: Dist, n: int):
        super().__init__(p, q, n)
        ladder = list(itertools.islice(_residual_ladder(p, q), n + 1))
        self.accepts = np.array([_accept_probs(r, q.mass) for r in ladder[:n]])
        self.final = ladder[n]

    def _stages(self, tuples):
        return tuples, self.accepts[np.arange(tuples.shape[1]), tuples], self.final


class RrsWoKernel(_Kernel):
    """Recursive rejection sampling for drafts sampled without replacement:
    stage k compares the running residual against q renormalized to exclude
    the drafts already rejected, so every row has its own residuals."""

    tag = "rrs-wo"

    def _stages(self, tuples):
        m, n = tuples.shape
        ordered = np.sort(tuples, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValueError("without-replacement tuple has duplicate tokens")
        rows = np.arange(m)
        r = np.tile(self.p.mass, (m, 1))
        qw = np.tile(self.q.mass, (m, 1))
        accept = np.empty((m, n))
        for k in range(n):
            tk = tuples[:, k]
            if k:
                qw[rows, tuples[:, k - 1]] = 0.0
            denom = np.maximum(qw.sum(axis=1), 1e-300)
            qk = qw / denom[:, None]
            accept[:, k] = _accept_probs(r[rows, tk], qk[rows, tk])
            r = np.maximum(r - qk, 0.0)
            # Residual vanished (stage acceptance was 1): the same rule as `residual_dist`.
            dead = r.sum(axis=1) <= _ZERO_MASS
            r[dead] = 1.0
            r /= r.sum(axis=1)[:, None]
        return tuples, accept, r


def rrs_w_rate_exact(p: Dist, q: Dist, n: int) -> float:
    """Exact acceptance rate of with-replacement rejection sampling.

    Valid because the stage residuals do not depend on which tokens were
    drawn: stage k accepts with probability sum min(r_k, q), so the overall
    rate is 1 - prod(1 - a_k).
    """
    if n < 1:
        raise ValueError("draft count must be >= 1")
    reject = 1.0
    for _, r in zip(range(n), _residual_ladder(p, q)):
        reject *= 1.0 - float(np.minimum(r, q.mass).sum())
        if reject <= 0.0:
            return 1.0
    return 1.0 - reject


@dataclass(frozen=True)
class KseqParams:
    """Solved threshold parameter rho, the overlap beta at rho, and the
    closed-form acceptance rate 1 - (1 - beta)^n."""

    rho: float
    beta_at_rho: float
    alpha_closed: float


def _beta(p: Dist, q: Dist, rho: float) -> float:
    return float(np.minimum(p.mass / rho, q.mass).sum())


def kseq_solve(p: Dist, q: Dist, n: int) -> KseqParams:
    """Solve 1 - (1 - beta(rho))^n = rho * beta(rho) for rho >= 1.

    The left side dominates at rho = 1 and the right side dominates for
    large rho, so a doubling bracket plus bisection always finds the root;
    iteration stops once the fixed-point residual is below 1e-12.
    """
    if p.vocab_size != q.vocab_size:
        raise ValueError("size mismatch between p and q")
    if n < 1:
        raise ValueError("draft count must be >= 1")

    def g(rho: float) -> float:
        b = _beta(p, q, rho)
        return 1.0 - (1.0 - b) ** n - rho * b

    def params(rho: float) -> KseqParams:
        b = _beta(p, q, rho)
        return KseqParams(rho=rho, beta_at_rho=b, alpha_closed=1.0 - (1.0 - b) ** n)

    lo, g_lo = 1.0, g(1.0)
    if abs(g_lo) <= RHO_RESIDUAL_TOL:
        return params(lo)
    hi = 2.0
    while g(hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 2.0 ** 60:
            raise ValueError("failed to bracket the fixed point")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) <= RHO_RESIDUAL_TOL:
            return params(mid)
        if g_mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= np.finfo(float).eps * hi:
            break
    # Interval has collapsed to adjacent floats; take the better endpoint.
    best = min((lo, hi), key=lambda r: abs(g(r)))
    return params(best)


class KseqKernel(_Kernel):
    """Per-draft thresholded acceptance: each draft independently accepted
    with probability min(p/(rho q), 1); if all fail, sample the terminal
    distribution determined by rho."""

    tag = "kseq"

    def __init__(self, p: Dist, q: Dist, n: int, params: KseqParams | None = None):
        super().__init__(p, q, n)
        self.params = params if params is not None else kseq_solve(p, q, n)
        rho, beta = self.params.rho, self.params.beta_at_rho
        self.accept = _accept_probs(p.mass / rho, q.mass)
        miss = (1.0 - beta) ** n
        if miss <= 1e-300:
            self.fallback = None  # some draft is always accepted
        elif beta <= 1e-300:
            self.fallback = p.mass.copy()
        else:
            base = (p.mass - np.minimum(q.mass, p.mass / rho) * (1.0 - miss) / beta) / miss
            if base.min() < -_FALLBACK_SLACK or base.max() > 1.0 + _FALLBACK_SLACK:
                raise ValueError("kseq numerical failure")
            base = np.clip(base, 0.0, 1.0)
            total = base.sum()
            if abs(total - 1.0) > _FALLBACK_SLACK:
                raise ValueError("kseq numerical failure")
            self.fallback = base / total

    def _stages(self, tuples):
        return tuples, self.accept[tuples], self.fallback


class GreedyKernel(OTSingleKernel):
    """Verifier for greedy drafts: the deterministic top tokens make the
    problem single-draft, so the optimal transport against the last-draft
    distribution achieves the scheme's optimal acceptance rate exactly."""

    tag = "greedy"

    def __init__(self, p: Dist, q: Dist, n: int):
        self.top, tail = greedy_tail(q, n)
        super().__init__(p, tail)
        self.n = n

    def _stages(self, tuples):
        if tuples.shape[1] != self.n or (tuples[:, : self.n - 1] != self.top).any():
            raise ValueError("draft tuple does not match the greedy top prefix")
        return super()._stages(tuples[:, -1:])


class FirstDraftKernel(_Kernel):
    """Emits the first draft and ignores p, so its output follows the draft
    distribution instead of the target: the negative control of the
    target-preservation test, and so exempt from the support check."""

    tag = "first-draft"

    def __init__(self, p: Dist):
        super().__init__(p, None)

    def _stages(self, tuples):
        return tuples[:, :1], np.ones((tuples.shape[0], 1)), None


_WR, _WO = DraftKind.WITH_REPLACEMENT, DraftKind.WITHOUT_REPLACEMENT

# The one method/scheme table: the draft kinds each method verifies, and its
# kernel for target p and a scheme. ot-single also needs a single draft.
METHODS = {
    "ot-single": ((_WR, _WO), lambda p, s: OTSingleKernel(p, s.q)),
    "rrs-w": ((_WR,), lambda p, s: RrsWKernel(p, s.q, s.n)),
    "kseq": ((_WR,), lambda p, s: KseqKernel(p, s.q, s.n)),
    "rrs-wo": ((_WO,), lambda p, s: RrsWoKernel(p, s.q, s.n)),
    "greedy": ((DraftKind.GREEDY,), lambda p, s: GreedyKernel(p, s.q, s.n)),
    "first-draft": (tuple(DraftKind), lambda p, s: FirstDraftKernel(p)),
}


def supports(method: str, kind: DraftKind, n: int) -> bool:
    """Whether ``method`` verifies n drafts of ``kind``."""
    if method not in METHODS:
        return False
    return kind in METHODS[method][0] and (n == 1 or method != "ot-single")


def make_kernel(method: str, p: Dist, scheme: DraftScheme):
    """The kernel of ``method`` for target p and ``scheme``."""
    if not supports(method, scheme.kind, scheme.n):
        raise ValueError(f"method {method!r} does not apply to {scheme.kind.value} drafts")
    return METHODS[method][1](p, scheme)
