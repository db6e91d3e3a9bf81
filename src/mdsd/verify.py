"""Verification algorithms.

Each verifier consumes a draft tuple and produces one output token whose
marginal over draft and verifier randomness is exactly the target
distribution p. Each kernel states its rule once, as stages (`_stages`:
the drafts it reads, the probability of accepting each, and the
distribution drawn when all are rejected). The shared base derives from
them one batched coin walk over an (m, n) array of draft tuples, which the
sampler (`sample`, m output tokens out) and the acceptance count
(`accepted`, which draws nothing after the coins) share, and the exact
conditional table (`conditional`), so the Monte Carlo path and the exact
enumeration cannot disagree. `METHODS` says which draft kinds each method
verifies, and `make_kernel` builds the kernel of a method for a scheme.

Exact acceptance rates: `rrs_w_rate_exact` at any draft count, and
`rrs_wo_rate_exact` at one or two drafts, which runs every first draft as a
row of the without-replacement kernel's residual update (`_next`, the one
the stage walk takes). rrs-wo at three or more drafts is estimated by
`mdsd.mc`.

Methods: recursive rejection sampling against a running residual (with- and
without-replacement variants; the optimal single-draft transport,
ot-single, is the with-replacement kernel at one draft), the per-draft
thresholded scheme with its fixed-point parameter rho, and the exact
verifier for greedy drafts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .alpha import alpha_single_draft, ratio_order
from .dists import _ZERO_MASS, Dist, _positive_part, residual_dist
from .drafts import DraftKind, DraftScheme, greedy_tail

__all__ = [
    "RrsWKernel",
    "RrsWoKernel",
    "KseqParams",
    "KseqKernel",
    "GreedyKernel",
    "METHODS",
    "supports",
    "make_kernel",
    "kseq_solve",
    "rrs_w_rate_exact",
    "rrs_wo_rate_exact",
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
    `_coins` walks the stages with coins, for `sample` and `accepted`, and
    `conditional` walks them as weights, so the Monte Carlo path and the
    exact table share one rule.
    ``q`` is the distribution the read drafts come from; a draft it cannot
    produce is an error.
    """

    def __init__(self, p: Dist, q: Dist, n: int):
        if p.vocab_size != q.vocab_size:
            raise ValueError("size mismatch between p and q")
        self.p, self.q, self.n = p, q, n

    def _walk(self, tuples):
        tuples = np.asarray(tuples, dtype=np.intp)
        if tuples.ndim != 2:
            raise ValueError("draft tuples must be an (m, n) array")
        cols, accept, final = self._stages(tuples)
        if (self.q.mass[cols] <= 0.0).any():
            raise ValueError("draft outside support")
        return cols, accept, final

    def _coins(self, tuples, rng: np.random.Generator):
        """The stage walk of an (m, n) batch with coins, m uniforms per
        stage: the read draft columns, whether each stage's coin accepts
        its draft (stages by rows), and the final distribution. A row's
        output is its first accepted draft."""
        cols, accept, final = self._walk(tuples)
        return cols, rng.random(cols.shape[::-1]) < accept.T, final

    def sample(self, tuples, rng: np.random.Generator) -> np.ndarray:
        """One output token per row of an (m, n) batch of draft tuples. The
        final distribution is drawn from only when some row needs it."""
        cols, hit, final = self._coins(tuples, rng)
        first = hit.argmax(axis=0)
        rows = np.arange(first.size)
        out = cols[rows, first]
        missed = ~hit[first, rows]
        if missed.any():
            if isinstance(final, np.ndarray):
                out[missed] = rng.choice(final.size, size=out.size, p=final)[missed]
            else:
                out[missed] = final.draw(missed, rng)
        return out

    def accepted(self, tuples, rng: np.random.Generator) -> float:
        """The number of rows of an (m, n) batch whose output lands in their
        own tuple, given the coins of `sample` and with nothing drawn after
        them: a row that accepts a draft counts 1, and a row that rejects
        every draft counts the final distribution's mass on its distinct
        drafts. That mass is 0 for a per-row residual, which zeroes the
        drafts, so only a vector final is read."""
        _, hit, final = self._coins(tuples, rng)
        missed = ~hit.any(axis=0)
        count = float(missed.size - np.count_nonzero(missed))
        if isinstance(final, np.ndarray) and missed.any():
            drafts = np.sort(np.asarray(tuples)[missed], axis=1)
            mass = final[drafts]
            mass[:, 1:][drafts[:, 1:] == drafts[:, :-1]] = 0.0
            count += float(mass.sum())
        return count

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
    O(n log V) per row after `ratio_order`'s O(V log V) sort, shared with
    the scans, and q's ascending view, shared with the draft sampler, and
    no (rows, V) array is formed.

    On the tokens at the top ratio, the largest finite p/q, the residual is
    q u with u = max(top ratio - c, 0), and the row carries u beside c. As
    the residual shrinks onto those tokens, c nears the top ratio and
    p - c q cancels to rounding noise, while u keeps its relative
    precision.

    A residual vanishes, its mass falling to `_ZERO_MASS` of the stage's,
    in exact arithmetic only where r_k = q_k, and there the stage accepts
    its draft surely: such a row accepts that draft and stops.
    """

    def __init__(self, p: Dist, q: Dist, n: int):
        super().__init__(p, q, n)
        v = p.vocab_size
        self.asc = q.ascending
        # Tokens by descending p/q, `ratio_order` reversed; those with q = 0
        # lead (p > 0) or trail (p = 0). ``keys`` are the negated ratios,
        # ascending, to count the tokens with p > c q. The tokens at the top
        # ratio sit at positions lead..top_end-1; the prefix sums ``sums``
        # of p and q leave them out, and a third row sums their q.
        order, ratios = ratio_order(p, q)
        self.order, self.keys = order[::-1].copy(), -ratios[::-1]
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

    def _start(self):
        """Stage 0's residual, r_0 = p, as (c, u, other, M): ``other`` sums
        p - c q over the tokens off the top ratio, and M adds u q there."""
        other = self.sums[0, -1]
        return 0.0, self.top_ratio, other, other + self.top_ratio * self.q_top

    def _next(self, c, up, other, total, s):
        """The residual after a stage rejects its draft, from the stage's
        (c, u, other, M) and its undrafted q mass s: the next stage's
        (c, u, other, M), the count j of leading tokens of the order with
        p > c q, and whether the residual vanished, which makes the stage
        accept its draft surely."""
        # c + M / s, and u - M / s with the undrafted mass off the top
        # tokens taken as a whole, each in its own precision.
        c = c + total / s
        up = np.maximum((up * (s - self.q_top) - other) / s, 0.0)
        # j leading tokens of the order have p > c q; other sums p - c q
        # over them, leaving out the top tokens.
        j = self.keys.searchsorted(-c)
        other = self.sums[0, j] - c * self.sums[1, j]
        new = other + up * self.q_top
        # Vanished: in exact arithmetic r_k = q_k, so the draft is accepted surely.
        return c, up, other, new, j, new <= _ZERO_MASS * total

    def _stages(self, tuples):
        m, n = tuples.shape
        drafts = tuples.T
        ranks = self.asc.rank[drafts]
        qt = self.q.mass[drafts]
        pt = self.p.mass[drafts]
        top = self.top[drafts]
        c, up, other, total = self._start()
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
                c, up, other, new, j, dead = self._next(c, up, other, total, s)
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
    over their total. Only `sample` draws from it: `accepted` needs its mass
    on the drafts, which is 0 by this rule."""

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


def rrs_wo_rate_exact(p: Dist, q: Dist, n: int) -> float:
    """Exact acceptance rate of rrs-wo for n = 1 or 2 drafts.

    One draft is ot-single's rule, so the rate is the overlap. With two,
    the rate is sum_a q_a [a_1(a) + (1 - a_1(a)) A_2(a)] over the first
    draft a, with a_1(a) = min(p_a / q_a, 1). The second stage accepts
    A_2(a) = sum min(r_1, q_1) = 1 - M_2(a) / M_1, where M_1 is the
    residual mass after the first stage and M_2(a) the mass after the
    second with a drafted: every first draft is one row of the kernel's
    residual update, at O(log V) a row. The kernel's vanishing rule holds:
    a stage whose residual vanishes accepts surely.
    """
    if n == 1:
        return alpha_single_draft(p, q)
    if n != 2:
        raise ValueError("the exact rrs-wo rate needs n = 1 or 2")
    DraftScheme.without_replacement(q, n)  # the scheme's support rule
    first = np.flatnonzero(q.mass > 0.0)
    kern = RrsWoKernel(p, q, n)
    asc = kern.asc
    c, up, other, one, _, dead = kern._next(*kern._start(), asc.undrawn([]))
    if dead:
        return 1.0
    *_, two, _, dead = kern._next(c, up, other, one, asc.undrawn([asc.rank[first]]))
    second = np.where(dead, 1.0, 1.0 - two / one)
    qa = q.mass[first]
    a1 = _accept_probs(p.mass[first], qa)
    return float(qa @ (a1 + (1.0 - a1) * second))


@dataclass(frozen=True)
class KseqParams:
    """Solved threshold parameter rho, the overlap beta at rho, and the
    closed-form acceptance rate 1 - (1 - beta)^n."""

    rho: float
    beta_at_rho: float
    alpha_closed: float


def kseq_solve(p: Dist, q: Dist, n: int) -> KseqParams:
    """Solve 1 - (1 - beta(rho))^n = rho * beta(rho) for rho >= 1, where
    beta(rho) = sum min(p/rho, q).

    The breakpoints p_i/q_i are the ascending ratios of `ratio_order(p, q)`
    (-1 for a token with neither mass, below 1 like any other p = 0). With
    the first k tokens of the order in the head, beta = a/rho + b between
    two of them: a is the head's p mass and b the tail's q mass.
    g(rho) = 1 - (1 - beta)^n - rho beta does not increase, is >= 0 at
    rho = 1 and <= 0 at rho = n. A binary search over the breakpoints finds
    the root's segment, and bisection solves g = 0 on it to adjacent floats.

    g = beta (sum_{j<n} (1 - beta)^j - rho), so for beta > 0 its sign is
    that of sum_{0<j<n} s^j - (rho - 1), with s = 1 - beta taken as
    (c - b) + a (rho - 1) / rho, c the tail's p mass. No step cancels, so
    the root keeps its relative precision both near rho = 1 and where beta
    is tiny.
    """
    if n < 1:
        raise ValueError("draft count must be >= 1")
    order, ratios = ratio_order(p, q)
    pm, qm = p.mass.take(order), q.mass.take(order)

    def sign_g(rho: float, a: float, c: float, b: float) -> float:
        s = max(c - b, 0.0) + a * (rho - 1.0) / rho
        total = 0.0
        for _ in range(n - 1):
            total = s * (1.0 + total)
        return total - (rho - 1.0)

    # The root lies in [1, n]. Find the first token whose breakpoint is past
    # n, or past 1 with g <= 0 there: the root's segment ends at it. The p
    # mass before lo and the p and q masses from hi on are kept, so each
    # step sums only the tokens between.
    lo, hi = 0, pm.size
    a, c, b = 0.0, 0.0, 0.0
    while lo < hi:
        mid = (lo + hi) // 2
        at = float(ratios[mid])
        head = a + float(pm[lo : mid + 1].sum())
        tail_p, tail_q = c + float(pm[mid + 1 : hi].sum()), b + float(qm[mid + 1 : hi].sum())
        if at >= n or (at > 1.0 and sign_g(at, head, tail_p, tail_q) <= 0.0):
            hi, c, b = mid, tail_p + float(pm[mid]), tail_q + float(qm[mid])
        else:
            lo, a = mid + 1, head
    left = max(float(ratios[lo - 1]), 1.0) if lo else 1.0
    right = min(float(ratios[lo]), float(n)) if lo < pm.size else float(n)
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

    def __init__(self, p: Dist, q: Dist, n: int):
        super().__init__(p, q, n)
        self.params = kseq_solve(p, q, n)
        rho = self.params.rho
        self.accept = _accept_probs(p.mass / rho, q.mass)
        self.terminal = _positive_part(p.mass - rho * q.mass).mass

    def _stages(self, tuples):
        return tuples, self.accept[tuples], self.terminal


class GreedyKernel(RrsWKernel):
    """Verifier for greedy drafts: the deterministic top tokens make the
    problem single-draft, so rejection sampling of the last draft against
    its distribution, the optimal single-draft transport, achieves the
    scheme's optimal acceptance rate exactly."""

    def __init__(self, p: Dist, q: Dist, n: int):
        self.top, tail = greedy_tail(q, n)
        super().__init__(p, tail, 1)
        self.n = n

    def _stages(self, tuples):
        if tuples.shape[1] != self.n or (tuples[:, : self.n - 1] != self.top).any():
            raise ValueError("draft tuple does not match the greedy top prefix")
        return super()._stages(tuples[:, -1:])


_WR, _WO = DraftKind.WITH_REPLACEMENT, DraftKind.WITHOUT_REPLACEMENT

# The one method/scheme table: the draft kinds each method verifies, and its
# kernel for target p and a scheme. ot-single also needs a single draft,
# and is rejection sampling of it.
METHODS = {
    "ot-single": ((_WR, _WO), lambda p, s: RrsWKernel(p, s.q, 1)),
    "rrs-w": ((_WR,), lambda p, s: RrsWKernel(p, s.q, s.n)),
    "kseq": ((_WR,), lambda p, s: KseqKernel(p, s.q, s.n)),
    "rrs-wo": ((_WO,), lambda p, s: RrsWoKernel(p, s.q, s.n)),
    "greedy": ((DraftKind.GREEDY,), lambda p, s: GreedyKernel(p, s.q, s.n)),
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
