"""Verification algorithms.

Each verifier consumes a draft tuple and produces one output token whose
marginal over draft and verifier randomness is exactly the target
distribution p. Every kernel exposes both a batched sampler (`sample`, an
(m, n) array of draft tuples in, m output tokens out; one tuple is a batch
of one) and, for small instances, the full conditional table
(`conditional`) so output marginals can be enumerated exactly. `METHODS`
says which draft kinds each method verifies, and `make_kernel` builds the
kernel of a method for a scheme.

Methods: the optimal single-draft transport, recursive rejection sampling
against a running residual (with- and without-replacement variants), the
per-draft thresholded scheme with its fixed-point parameter rho, and the
exact verifier for greedy drafts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import Dist, exclude_renorm, residual_dist
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


def _batch(tuples) -> np.ndarray:
    arr = np.asarray(tuples, dtype=np.intp)
    if arr.ndim != 2:
        raise ValueError("draft tuples must be an (m, n) array")
    return arr


def _choice_rows(mass: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.choice(mass.size, size=count, p=mass)


def _first_accepted(tuples: np.ndarray, accepts, final, rng: np.random.Generator) -> np.ndarray:
    """Stage k accepts draft k with probability ``accepts[k][token]``; the
    first accepted draft is the output. Rows that reject every draft take a
    draw from ``final``, which is drawn only when such a row exists."""
    m, n = tuples.shape
    out = np.full(m, -1, dtype=np.intp)
    done = np.zeros(m, dtype=bool)
    for k in range(n):
        tk = tuples[:, k]
        hit = (rng.random(m) < accepts[k][tk]) & ~done
        out[hit] = tk[hit]
        done |= hit
    if not done.all():
        if final is None:  # kseq's "some draft is always accepted" case
            raise ValueError("kseq numerical failure")
        out[~done] = _choice_rows(final, m, rng)[~done]
    return out


class OTSingleKernel:
    """Optimal single-draft transport: accept the draft with probability
    min(p/q, 1), otherwise resample from the residual of p minus q."""

    tag = "ot-single"

    def __init__(self, p: Dist, q: Dist):
        if p.vocab_size != q.vocab_size:
            raise ValueError("size mismatch between p and q")
        self.p = p
        self.q = q
        self.accept = _accept_probs(p.mass, q.mass)
        self.residual = residual_dist(p, q)

    def sample(self, tuples, rng: np.random.Generator) -> np.ndarray:
        j = _batch(tuples)[:, 0]
        if (self.q.mass[j] <= 0.0).any():
            raise ValueError("draft outside support")
        u = rng.random(j.size)
        resample = _choice_rows(self.residual.mass, j.size, rng)
        return np.where(u < self.accept[j], j, resample)

    def conditional(self, tokens) -> np.ndarray:
        j = int(tokens[0]) if not np.isscalar(tokens) else int(tokens)
        if self.q.mass[j] <= 0.0:
            raise ValueError("draft outside support")
        vec = (1.0 - self.accept[j]) * self.residual.mass
        vec[j] = self.accept[j]
        return vec


def _residual_ladder(p: Dist, q: Dist, n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Stage residuals r_1..r_{n+1} and stage accept tables for rejection
    sampling with replacement. The residual sequence is draft-independent:
    r_{k+1} is the normalized positive part of r_k - q."""
    residuals = [p.mass]
    accepts = []
    r = p
    for _ in range(n):
        accepts.append(_accept_probs(r.mass, q.mass))
        r = residual_dist(r, q)
        residuals.append(r.mass)
    return residuals, accepts


class RrsWKernel:
    """Recursive rejection sampling for drafts sampled with replacement."""

    tag = "rrs-w"

    def __init__(self, p: Dist, q: Dist, n: int):
        if p.vocab_size != q.vocab_size:
            raise ValueError("size mismatch between p and q")
        self.p, self.q, self.n = p, q, n
        self.residuals, self.accepts = _residual_ladder(p, q, n)

    def sample(self, tuples, rng: np.random.Generator) -> np.ndarray:
        return _first_accepted(_batch(tuples), self.accepts, self.residuals[self.n], rng)

    def conditional(self, tokens) -> np.ndarray:
        vec = np.zeros(self.p.vocab_size)
        weight = 1.0
        for k, t in enumerate(tokens):
            a = self.accepts[k][t]
            vec[t] += weight * a
            weight *= 1.0 - a
        vec += weight * self.residuals[self.n]
        return vec


class RrsWoKernel:
    """Recursive rejection sampling for drafts sampled without replacement:
    stage k compares the running residual against q renormalized to exclude
    the drafts already rejected."""

    tag = "rrs-wo"

    def __init__(self, p: Dist, q: Dist, n: int):
        if p.vocab_size != q.vocab_size:
            raise ValueError("size mismatch between p and q")
        self.p, self.q, self.n = p, q, n

    def _stages(self, tokens):
        if len(set(int(t) for t in tokens)) != len(tokens):
            raise ValueError("without-replacement tuple has duplicate tokens")
        r = self.p
        for k, t in enumerate(tokens):
            qk = exclude_renorm(self.q, tokens[:k]) if k else self.q
            yield int(t), r, qk
            r = residual_dist(r, qk)
        yield None, r, None

    def sample(self, tuples, rng: np.random.Generator) -> np.ndarray:
        tuples = _batch(tuples)
        m, n = tuples.shape
        ordered = np.sort(tuples, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValueError("without-replacement tuple has duplicate tokens")
        rows = np.arange(m)
        r = np.tile(self.p.mass, (m, 1))
        qw = np.tile(self.q.mass, (m, 1))
        out = np.full(m, -1, dtype=np.intp)
        done = np.zeros(m, dtype=bool)
        for k in range(n):
            tk = tuples[:, k]
            if k:
                qw[rows, tuples[:, k - 1]] = 0.0
            denom = np.maximum(qw.sum(axis=1), 1e-300)
            qk = qw / denom[:, None]
            a = _accept_probs(r[rows, tk], qk[rows, tk])
            hit = (rng.random(m) < a) & ~done
            out[hit] = tk[hit]
            done |= hit
            r = np.maximum(r - qk, 0.0)
            dead = r.sum(axis=1) <= 1e-15  # residual vanished: stage acceptance was 1
            r[dead] = 1.0
            r /= r.sum(axis=1)[:, None]
        u = rng.random(m)
        final = (np.cumsum(r, axis=1) < u[:, None]).sum(axis=1)
        np.minimum(final, self.p.vocab_size - 1, out=final)
        out[~done] = final[~done]
        return out

    def conditional(self, tokens) -> np.ndarray:
        vec = np.zeros(self.p.vocab_size)
        weight = 1.0
        for t, r, qk in self._stages(tokens):
            if t is None:
                vec += weight * r.mass
                break
            a = min(r.mass[t] / qk.mass[t], 1.0) if qk.mass[t] > 0.0 else 0.0
            vec[t] += weight * a
            weight *= 1.0 - a
        return vec


def rrs_w_rate_exact(p: Dist, q: Dist, n: int) -> float:
    """Exact acceptance rate of with-replacement rejection sampling.

    Valid because the stage residuals do not depend on which tokens were
    drawn: stage k accepts with probability sum min(r_k, q), so the overall
    rate is 1 - prod(1 - a_k).
    """
    if n < 1:
        raise ValueError("draft count must be >= 1")
    reject = 1.0
    r = p
    for _ in range(n):
        a = float(np.minimum(r.mass, q.mass).sum())
        reject *= 1.0 - a
        if reject <= 0.0:
            return 1.0
        r = residual_dist(r, q)
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


class KseqKernel:
    """Per-draft thresholded acceptance: each draft independently accepted
    with probability min(p/(rho q), 1); if all fail, sample the terminal
    distribution determined by rho."""

    tag = "kseq"

    def __init__(self, p: Dist, q: Dist, n: int, params: KseqParams | None = None):
        if p.vocab_size != q.vocab_size:
            raise ValueError("size mismatch between p and q")
        self.p, self.q, self.n = p, q, n
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

    def sample(self, tuples, rng: np.random.Generator) -> np.ndarray:
        tuples = _batch(tuples)
        return _first_accepted(tuples, [self.accept] * tuples.shape[1], self.fallback, rng)

    def conditional(self, tokens) -> np.ndarray:
        vec = np.zeros(self.p.vocab_size)
        weight = 1.0
        for t in tokens:
            a = self.accept[t]
            vec[t] += weight * a
            weight *= 1.0 - a
        if weight > 0.0:
            if self.fallback is None:
                raise ValueError("kseq numerical failure")
            vec += weight * self.fallback
        return vec


class GreedyKernel:
    """Verifier for greedy drafts: the deterministic top tokens make the
    problem single-draft, so the optimal transport against the last-draft
    distribution achieves the scheme's optimal acceptance rate exactly."""

    tag = "greedy"

    def __init__(self, p: Dist, q: Dist, n: int):
        self.n = n
        self.top, tail = greedy_tail(q, n)
        self.inner = OTSingleKernel(p, tail)

    def _check(self, tuples: np.ndarray) -> np.ndarray:
        if tuples.shape[1] != self.n or (tuples[:, : self.n - 1] != self.top).any():
            raise ValueError("draft tuple does not match the greedy top prefix")
        return tuples[:, -1:]

    def sample(self, tuples, rng: np.random.Generator) -> np.ndarray:
        return self.inner.sample(self._check(_batch(tuples)), rng)

    def conditional(self, tokens) -> np.ndarray:
        return self.inner.conditional(self._check(_batch([tokens]))[0])


class FirstDraftKernel:
    """Emits the first draft and ignores p, so its output follows the draft
    distribution instead of the target: the negative control of the
    target-preservation test."""

    tag = "first-draft"

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def sample(self, tuples, rng: np.random.Generator) -> np.ndarray:
        return _batch(tuples)[:, 0].copy()

    def conditional(self, tokens) -> np.ndarray:
        vec = np.zeros(self.vocab_size)
        vec[int(tokens[0])] = 1.0
        return vec


_WR, _WO = DraftKind.WITH_REPLACEMENT, DraftKind.WITHOUT_REPLACEMENT

# The one method/scheme table: the draft kinds each method verifies, and its
# kernel for target p and a scheme. ot-single also needs a single draft.
METHODS = {
    "ot-single": ((_WR, _WO), lambda p, s: OTSingleKernel(p, s.q)),
    "rrs-w": ((_WR,), lambda p, s: RrsWKernel(p, s.q, s.n)),
    "kseq": ((_WR,), lambda p, s: KseqKernel(p, s.q, s.n)),
    "rrs-wo": ((_WO,), lambda p, s: RrsWoKernel(p, s.q, s.n)),
    "greedy": ((DraftKind.GREEDY,), lambda p, s: GreedyKernel(p, s.q, s.n)),
    "first-draft": (tuple(DraftKind), lambda p, s: FirstDraftKernel(p.vocab_size)),
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
