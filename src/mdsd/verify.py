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

from .alpha import ratio_order
from .dists import _ZERO_MASS, Dist, _positive_part, residual_dist
from .drafts import AscendingQ, DraftKind, DraftScheme, greedy_tail

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
    drawn when every draft is rejected: one vector, a per-row residual
    (`_WoResidual`, with ``draw`` and ``row``), or None when that cannot
    happen. The first accepted draft is the output.
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
            if isinstance(final, np.ndarray):
                out[~done] = rng.choice(final.size, size=m, p=final)[~done]
            else:
                out[~done] = final.draw(~done, rng)
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
            vec += weight * (final if isinstance(final, np.ndarray) else final.row(0))
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
    stage k compares the running residual r_k against q_k, q renormalised
    to the tokens not yet drafted, and accepts draft t_k with probability
    min(r_k / q_k, 1) at t_k.

    The residual keeps one parameter per row. Over the tokens not yet
    drafted, r_k = max(p - c_k q, 0) / M_k, and c_{k+1} = c_k + M_k / s_k,
    where s_k is the undrafted q mass, summed over the runs between the
    drafts (`AscendingQ.undrawn`). A drafted token keeps the value it had
    after its own stage, which is 0 unless the stage accepted it surely
    (and then nothing later is read). M_k comes from prefix sums of p and q
    in descending p/q order plus O(n) corrections, so a batch costs
    O(n log V) per row after the O(V log V) sorts here, and no (rows, V)
    array is formed.

    On the tokens at the top ratio, the largest finite p/q, the residual is
    q u with u = max(top ratio - c, 0), and the row carries u beside c. As
    the residual shrinks onto those tokens, c nears the top ratio and
    p - c q cancels to rounding noise, while u keeps its relative
    precision.

    A residual vanishes, its mass falling to `_ZERO_MASS` of the stage's,
    in exact arithmetic only where r_k = q_k, and there the stage accepts
    its draft surely: such a row accepts that draft and stops.
    """

    tag = "rrs-wo"

    def __init__(self, p: Dist, q: Dist, n: int):
        super().__init__(p, q, n)
        v = p.vocab_size
        self.asc = AscendingQ(q)
        # Tokens by descending p/q; those with q = 0 lead (p > 0) or trail
        # (p = 0). ``keys`` are the negated ratios, ascending, to count the
        # tokens with p > c q. The tokens at the top ratio sit at positions
        # lead..top_end-1; the prefix sums ``sums`` of p and q leave them
        # out, and a third row sums their q.
        ratio = np.divide(p.mass, q.mass, out=np.where(p.mass > 0.0, np.inf, -1.0), where=q.mass > 0.0)
        self.order = (-ratio).argsort(kind="stable")
        self.keys = -ratio[self.order]
        lead = int(self.keys.searchsorted(-np.inf, side="right"))
        self.top_ratio = -self.keys[lead]
        self.top_end = int(self.keys.searchsorted(-self.top_ratio, side="right"))
        self.top = np.zeros(v, dtype=bool)
        self.top[self.order[lead : self.top_end]] = True
        self.sums = np.zeros((3, v + 1))
        mass = np.empty((2, v))
        p.mass.take(self.order, out=mass[0])
        q.mass.take(self.order, out=mass[1])
        at_top = self.sums[2]
        mass[1, lead : self.top_end].cumsum(out=at_top[lead + 1 : self.top_end + 1])
        mass[:, lead : self.top_end] = 0.0
        mass.cumsum(axis=1, out=self.sums[:2, 1:])
        at_top[self.top_end + 1 :] = at_top[self.top_end]
        self.q_top = at_top[-1]

    def _stages(self, tuples):
        m, n = tuples.shape
        v = self.p.vocab_size
        drafts = tuples.T
        ranks = self.asc.rank[drafts]
        qt = self.q.mass[drafts]
        pt = self.p.mass[drafts]
        top = self.top[drafts]
        # Stage 0: r_0 = p, as the top tokens plus the rest.
        c, up, q_top = 0.0, self.top_ratio, self.q_top
        other = self.sums[0, v]
        total = other + up * q_top
        drawn = []  # the ranks drafted before the stage, as `AscendingQ.insert` keeps them
        accept = np.empty((n, m))
        gone = None  # the rows whose residual has vanished
        # A draft with no q mass gives inf or nan here, and so does a row
        # after its residual vanished; `_walk` rejects the first, and the
        # second has stopped.
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(n):
                if k:
                    drawn = self.asc.insert(drawn, ranks[k - 1])
                s = self.asc.undrawn(drawn)
                # p - c q as the prefix sums take it, so that a residual left
                # on one token cancels the same way in both.
                value = np.where(top[k], qt[k] * up, np.maximum(pt[k] - c * qt[k], 0.0))
                accept[k] = np.minimum(value * s / (qt[k] * total), 1.0)
                # c + M / s, and u - M / s with the undrafted mass off the
                # top tokens taken as a whole, each in its own precision.
                c = c + total / s
                up = np.maximum((up * (s - q_top) - other) / s, 0.0)
                # j leading tokens of the order have p > c q; other sums
                # p - c q over them, leaving out the top tokens.
                j = self.keys.searchsorted(-c)
                other = self.sums[0, j] - c * self.sums[1, j]
                new = other + up * q_top
                # Vanished: in exact arithmetic r_k = q_k, so the draft is accepted surely.
                dead = new <= _ZERO_MASS * total
                if dead.any():
                    gone = dead if gone is None else gone | dead
                if gone is not None:
                    accept[k, gone] = 1.0
                total = new
        drawn = self.asc.insert(drawn, ranks[-1])
        if any((x == y).any() for x, y in zip(drawn, drawn[1:])):
            raise ValueError("without-replacement tuple has duplicate tokens")
        if gone is not None and gone.all():
            return tuples, accept.T, None
        if np.ndim(c) == 0:  # one draft: every row has the same residual
            final = self._dense(c, up)
            return tuples, accept.T, final / final.sum()
        return tuples, accept.T, _WoResidual(self, drafts, c, up, total, j)

    def _dense(self, c: float, up: float) -> np.ndarray:
        """The undrafted values over the whole vocabulary."""
        return np.where(self.top, self.q.mass * up, np.maximum(self.p.mass - c * self.q.mass, 0.0))


class _WoResidual:
    """The residual each row of an rrs-wo batch draws from when every draft
    is rejected: the undrafted tokens at their values and the drafts at 0,
    over their total."""

    def __init__(self, kernel, drafts, c, up, total, count):
        self.kernel, self.drafts = kernel, drafts
        self.c, self.up, self.total, self.count = c, up, total, count

    def row(self, i: int) -> np.ndarray:
        """Row i as a dense distribution over the vocabulary."""
        vec = self.kernel._dense(self.c[i], self.up[i])
        vec[self.drafts[:, i]] = 0.0
        return vec / vec.sum()

    def draw(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One token for each row selected by the mask ``rows``, found by
        bisection over the prefix sums."""
        kern = self.kernel
        c, up = self.c[rows], self.up[rows]
        y = rng.random(c.size) * self.total[rows]
        at_top = bool(up.any())
        lo = np.zeros(c.size, dtype=np.intp)
        hi = self.count[rows]
        if at_top:
            hi = np.where(up > 0.0, np.maximum(hi, kern.top_end), hi)
        for _ in range(int(hi.max(initial=0)).bit_length()):
            mid = (lo + hi) >> 1
            below = kern.sums[0, mid] - c * kern.sums[1, mid]
            if at_top:
                below += up * kern.sums[2, mid]
            go = below <= y
            lo = np.where(go, mid, lo)
            hi = np.where(go, hi, mid)
        return kern.order[lo]


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


def kseq_solve(p: Dist, q: Dist, n: int, order: np.ndarray | None = None) -> KseqParams:
    """Solve 1 - (1 - beta(rho))^n = rho * beta(rho) for rho >= 1, where
    beta(rho) = sum min(p/rho, q).

    ``order`` is `ratio_order(p, q)`, computed here when not given. Along it
    the breakpoints p_i/q_i ascend, and with the first k tokens of the order
    in the head, beta = a/rho + b between two of them: a is the head's p
    mass and b the tail's q mass. g(rho) = 1 - (1 - beta)^n - rho beta does
    not increase, is >= 0 at rho = 1 and <= 0 at rho = n. A binary search
    over the breakpoints finds the root's segment, and bisection solves
    g = 0 on it to adjacent floats.

    g = beta (sum_{j<n} (1 - beta)^j - rho), so for beta > 0 its sign is
    that of sum_{0<j<n} s^j - (rho - 1), with s = 1 - beta taken as
    (c - b) + a (rho - 1) / rho, c the tail's p mass. No step cancels, so
    the root keeps its relative precision both near rho = 1 and where beta
    is tiny.
    """
    if p.vocab_size != q.vocab_size:
        raise ValueError("size mismatch between p and q")
    if n < 1:
        raise ValueError("draft count must be >= 1")
    if order is None:
        order = ratio_order(p, q)
    pm, qm = p.mass.take(order), q.mass.take(order)

    def sign_g(rho: float, a: float, c: float, b: float) -> float:
        s = max(c - b, 0.0) + a * (rho - 1.0) / rho
        total = 0.0
        for _ in range(n - 1):
            total = s * (1.0 + total)
        return total - (rho - 1.0)

    def breakpoint(j: int) -> float:
        if qm[j] > 0.0:
            return float(pm[j] / qm[j])
        return np.inf if pm[j] > 0.0 else 0.0

    # The root lies in [1, n]. Find the first token whose breakpoint is past
    # n, or past 1 with g <= 0 there: the root's segment ends at it. The p
    # mass before lo and the p and q masses from hi on are kept, so each
    # step sums only the tokens between.
    lo, hi = 0, pm.size
    a, c, b = 0.0, 0.0, 0.0
    while lo < hi:
        mid = (lo + hi) // 2
        at = breakpoint(mid)
        head = a + float(pm[lo : mid + 1].sum())
        tail_p, tail_q = c + float(pm[mid + 1 : hi].sum()), b + float(qm[mid + 1 : hi].sum())
        if at >= n or (at > 1.0 and sign_g(at, head, tail_p, tail_q) <= 0.0):
            hi, c, b = mid, tail_p + float(pm[mid]), tail_q + float(qm[mid])
        else:
            lo, a = mid + 1, head
    left = max(breakpoint(lo - 1), 1.0) if lo else 1.0
    right = min(breakpoint(lo), float(n)) if lo < pm.size else float(n)
    # With beta = 0 everywhere (p and q disjoint) every rho solves; take 1.
    if sign_g(left, a, c, b) <= 0.0 or a == b == 0.0:
        right = left
    while True:
        mid = 0.5 * (left + right)
        if not left < mid < right:
            break
        if sign_g(mid, a, c, b) > 0.0:
            left = mid
        else:
            right = mid
    rho = min((left, right), key=lambda r: abs(sign_g(r, a, c, b)))
    beta = a / rho + b
    return KseqParams(rho=rho, beta_at_rho=beta, alpha_closed=1.0 - (1.0 - beta) ** n)


class KseqKernel(_Kernel):
    """Per-draft thresholded acceptance: each draft independently accepted
    with probability min(p/(rho q), 1); if all fail, sample the terminal
    distribution, the normalised positive part of p - rho q.

    Exactness needs the terminal T with (1 - miss)/beta min(q, p/rho) +
    miss T = p, where miss = (1 - beta)^n. At the root 1 - miss = rho beta,
    so T = max(p - rho q, 0)/miss, and the positive part's mass is
    1 - rho beta = miss. Normalising it avoids dividing by a tiny miss.
    """

    tag = "kseq"

    def __init__(self, p: Dist, q: Dist, n: int):
        super().__init__(p, q, n)
        self.params = kseq_solve(p, q, n)
        rho = self.params.rho
        self.accept = _accept_probs(p.mass / rho, q.mass)
        self.terminal = _positive_part(p.mass - rho * q.mass).mass

    def _stages(self, tuples):
        return tuples, self.accept[tuples], self.terminal


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
