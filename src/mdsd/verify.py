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
enumeration cannot disagree. A tuple may open with fixed drafts, greedy's
top-q tokens, which the base checks and strips before the stages. `METHODS`
says which kinds and how many drafts each method verifies, and
`make_kernel` builds a method's kernel for a scheme.

Recursive rejection sampling is stated once, as the without-replacement
walk of `RrsWoKernel`: one residual table per (p, q) pair
(`mdsd.alpha.residual_table`) and its residual update
(`ResidualTable.next`) at the undrafted q mass s. With replacement nothing
is drafted out, s = 1, and that walk is `RrsWKernel`; ot-single is it at
one draft, and greedy's verifier is it at the one draft after the fixed
prefix. `rrs_rate_exact` states its exact rate once: the fixed drafts' p
mass plus the overlap at one drawn draft, and at more the same update n
times with replacement, or a walk of the tree of rejected draft prefixes
through it without. The report takes that walk where its tree is small,
and estimates rrs-wo by `mdsd.mc` elsewhere. kseq's stages and terminal
read the same table (`KseqKernel`).

Methods: recursive rejection sampling against a running residual (with- and
without-replacement variants, ot-single and greedy's verifier), and the
per-draft thresholded scheme with its fixed-point parameter rho.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .alpha import alpha_single_draft, residual_table, residual_value
from .dists import _ZERO_MASS, Dist
from .drafts import DraftKind, DraftScheme

__all__ = [
    "RrsWKernel",
    "RrsWoKernel",
    "KseqParams",
    "KseqKernel",
    "METHODS",
    "supports",
    "make_kernel",
    "kseq_solve",
    "rrs_rate_exact",
]


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
    produce is an error. A tuple of n drafts may open with the fixed drafts
    ``top`` (greedy's top-q tokens): `_walk` checks and strips them, so the
    stages read only the drafts after them, and `accepted`, which reads the
    whole tuple, still counts a final draw that lands on one. Every stage
    rule reads the rejection residual from ``table``, the `residual_table`
    of (p, q).
    """

    def __init__(self, p: Dist, q: Dist, n: int, top: tuple[int, ...] = ()):
        if p.vocab_size != q.vocab_size:
            raise ValueError("size mismatch between p and q")
        self.p, self.q, self.n, self.top = p, q, n, top
        self.table = residual_table(p, q)

    def _walk(self, tuples):
        tuples = np.asarray(tuples, dtype=np.intp)
        if tuples.ndim != 2 or tuples.shape[1] != self.n:
            raise ValueError(f"draft tuples must be an (m, {self.n}) array")
        k = len(self.top)
        if (tuples[:, :k] != self.top).any():
            raise ValueError("draft tuple does not match the greedy top prefix")
        cols, accept, final = self._stages(tuples[:, k:])
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
        drafts, fixed ones included. That mass is 0 for a per-row residual,
        which zeroes the drafts, so only a vector final is read."""
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


def _rrs_accept(pt, qt, top, c, up, total, s):
    """min(r_k / q_k, 1) at drafts of masses pt and qt, at the top ratio
    where ``top``: the chance that a stage of `ResidualTable` state
    (c, u, M) and undrafted q mass s accepts each. The residual is
    `residual_value`, as the table's sums take it, so that a residual left
    on one token cancels the same way in both."""
    return np.minimum(residual_value(pt, qt, top, c, up) * s / (qt * total), 1.0)


class RrsWoKernel(_Kernel):
    """Recursive rejection sampling for drafts sampled without replacement:
    stage k compares the running residual r_k against q_k, q renormalised
    to the tokens not yet drafted, and accepts draft t_k with probability
    min(r_k / q_k, 1) at t_k.

    The residual keeps one parameter per row, the `ResidualTable` state:
    over the tokens not yet drafted, r_k = max(p - c_k q, 0) / M_k, and
    c_{k+1} = c_k + M_k / s_k, where s_k is the undrafted q mass, summed
    over the runs between the drafts (`AscendingQ.undrawn`). A drafted
    token keeps the value it had after its own stage, which is 0 unless the
    stage accepted it surely (and then nothing later is read). M_k comes
    from the table's prefix sums, so a batch costs O(n log V) per row after
    the table's O(V log V) sort, shared with the scans, and q's ascending
    view, shared with the draft sampler, and no (rows, V) array is formed.

    A residual vanishes, its mass falling to `_ZERO_MASS` of the stage's,
    in exact arithmetic only where r_k = q_k, and there the stage accepts
    its draft surely: such a row accepts that draft and stops.

    This walk is the one statement of recursive rejection sampling: with
    ``replace`` (`RrsWKernel`) nothing is drafted out, and s = 1 at every
    stage.
    """

    replace = False

    def _undrafted(self, drafts):
        """The undrafted q mass s of each stage of (n, m) drafts: 1 with
        replacement, else summed over the runs between the ranks drafted
        before the stage. Without replacement, a tuple that repeats a token
        is an error once its last stage is read."""
        if self.replace:
            yield from itertools.repeat(1.0, len(drafts))
            return
        asc = self.q.ascending
        drawn = []  # the ranks drafted before the stage, as `AscendingQ.insert` keeps them
        for ranks in asc.rank[drafts]:
            yield asc.undrawn(drawn)
            drawn = asc.insert(drawn, ranks)
        if any((x == y).any() for x, y in zip(drawn, drawn[1:])):
            raise ValueError("without-replacement tuple has duplicate tokens")

    def _stages(self, tuples):
        m, n = tuples.shape
        table = self.table
        drafts = tuples.T
        pt, qt, top = self.p.mass[drafts], self.q.mass[drafts], table.top[drafts]
        c, up, other, total = table.start()
        accept = np.empty((n, m))
        gone = None  # the rows whose residual has vanished
        # A draft with no q mass gives inf or nan here, and so does a row
        # after its residual vanished; `_walk` rejects the first, and the
        # second has stopped.
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, s in enumerate(self._undrafted(drafts)):
                accept[k] = _rrs_accept(pt[k], qt[k], top[k], c, up, total, s)
                c, up, other, total, j, dead = table.next(c, up, other, total, s)
                if dead.any():
                    gone = dead if gone is None else gone | dead
                if gone is not None:
                    accept[k, gone] = 1.0
        if gone is not None and gone.all():
            return tuples, accept.T, None
        if np.ndim(c) == 0:  # with replacement or one draft: every row has the same residual
            final = table.dense(c, up)
            return tuples, accept.T, final / final.sum()
        return tuples, accept.T, _WoResidual(table, drafts, c, up, total, j)


class RrsWKernel(RrsWoKernel):
    """Recursive rejection sampling for drafts sampled with replacement:
    stage k accepts its draft with probability min(r_k/q, 1), where r_1 = p
    and r_{k+1} is the normalised positive part of r_k - q. It is the rrs-wo
    walk with nothing drafted out (s = 1): the residuals do not depend on
    which tokens were drawn, so every row keeps one scalar state and the
    final distribution is one vector. ot-single is this kernel at one
    draft, and greedy's verifier is it at the draft after the fixed prefix
    ``top``, against q renormalised off that prefix."""

    replace = True


class _WoResidual:
    """The residual each row of an rrs-wo batch draws from when every draft
    is rejected: the undrafted tokens at their values and the drafts at 0,
    over their total. Only `sample` draws from it: `accepted` needs its mass
    on the drafts, which is 0 by this rule."""

    def __init__(self, table, drafts, c, up, total, count):
        self.table, self.drafts = table, drafts
        self.c, self.up, self.total, self.count = c, up, total, count

    def row(self, i: int) -> np.ndarray:
        """Row i as a dense distribution over the vocabulary."""
        vec = self.table.dense(self.c[i], self.up[i])
        vec[self.drafts[:, i]] = 0.0
        return vec / vec.sum()

    def draw(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One token for each row selected by the mask ``rows``
        (`ResidualTable.draw`)."""
        y = rng.random(np.count_nonzero(rows)) * self.total[rows]
        return self.table.draw(self.c[rows], self.up[rows], self.count[rows], y)


def rrs_rate_exact(p: Dist, scheme: DraftScheme) -> float:
    """Exact acceptance rate of recursive rejection sampling of the scheme's
    drafts: rrs-w, rrs-wo, ot-single and greedy's verifier.

    The fixed drafts of ``scheme.prefix_law`` add their p mass, and one
    drawn draft (every greedy scheme) is single-draft rejection sampling
    against its law, whose rate is the overlap. More drawn drafts are
    walked with none fixed. With r_k the residual before stage k, of mass
    M_k, a stage accepts sum min(r_k, q_k) = 1 - M_{k+1} / M_k whichever
    token it drafts, one `ResidualTable.next` step, and a stage whose
    residual vanishes accepts surely. With replacement the residuals do not
    depend on the drafts, so the rate telescopes to 1 - M_n / M_0, or is 1
    where a stage vanishes. Without replacement the walk goes through the
    tree of rejected draft prefixes level by level: level k holds every
    k-draft prefix drafted and rejected, with its weight, the chance of
    that, and its residual, and each row adds its stage's acceptance times
    its weight. Its children are the undrafted tokens t, each of weight
    (q_t / s) (1 - min(r_k(t) / q_k(t), 1)); a child accepted surely has
    weight 0 and is dropped, and a row whose residual vanished has none.
    The last level holds up to perm(s, n - 1) rows, s the tokens of
    positive q mass, at O(n + log V) each after the table's set-up.
    """
    fixed, law = scheme.prefix_law
    n = scheme.n - len(fixed)
    if n == 1:
        mass = float(p.mass[list(fixed)].sum()) if fixed else 0.0
        return min(1.0, mass + alpha_single_draft(p, law))
    assert not fixed, "the walk adds no fixed drafts' mass"  # greedy draws one draft
    table = residual_table(p, law)
    state = table.start()
    if scheme.replace:
        first = state[3]
        for _ in range(n):
            *state, _, dead = table.next(*state, 1.0)
            if dead:
                return 1.0
        return 1.0 - float(state[3]) / first
    asc = law.ascending
    tokens = np.flatnonzero(law.mass > 0.0)
    rank, pt, qt, top = asc.rank[tokens], p.mass[tokens], law.mass[tokens], table.top[tokens]
    # A level's rows are columns (rows, 1): a row's weight, its stage's
    # (c, u, other, M) and its drafted ranks, as `AscendingQ.insert` keeps
    # them; against ``tokens`` they span the (rows, tokens) children. The
    # root's state, which its children share, stays scalar.
    weight = np.ones((1, 1))
    drawn = []
    rate = 0.0
    for k in range(n):
        s = asc.undrawn(drawn)
        c, up, other, total = state
        *state, _, dead = table.next(c, up, other, total, s)
        rate += float((weight * (1.0 - state[3] / total * ~dead)).sum())
        if k == n - 1:
            break
        child = weight * (qt / s) * (1.0 - _rrs_accept(pt, qt, top, c, up, total, s))
        child *= ~dead
        for d in drawn:
            child[d == rank] = 0.0
        rows, cols = np.nonzero(child)
        weight = child[rows, cols, None]
        drawn = asc.insert([d[rows] for d in drawn], rank[cols, None])
        if k:
            state = [x[rows] for x in state]
    return rate


@dataclass(frozen=True)
class KseqParams:
    """Solved threshold parameter rho, the overlap beta at rho, and the
    closed-form acceptance rate 1 - (1 - beta)^n."""

    rho: float
    beta_at_rho: float
    alpha_closed: float


def kseq_solve(p: Dist, scheme: DraftScheme) -> KseqParams:
    """Solve 1 - (1 - beta(rho))^n = rho * beta(rho) for rho >= 1, where
    beta(rho) = sum min(p/rho, q), for the n drafts of a with-replacement
    ``scheme`` from q; a scheme of another kind raises ValueError.

    The breakpoints p_i/q_i are the ascending ratios of the
    `residual_table` of (p, q), ``ratios`` (-1 for a token with neither
    mass, below 1 like any other p = 0). With the tokens whose breakpoint
    is below rho in the head, beta = a/rho + b: a is the head's p mass and
    b the tail's q mass, both read from the same table at rho.
    g(rho) = 1 - (1 - beta)^n - rho beta does not increase, is >= 0 at
    rho = 1 and <= 0 at rho = n, and safeguarded Newton (`_root`) solves
    g = 0 on [1, n] to adjacent floats; its bracket carries it across the
    kinks at the breakpoints.

    g = beta (sum_{j<n} (1 - beta)^j - rho), so for beta > 0 its sign is
    that of h = sum_{0<j<n} s^j - (rho - 1), with s = 1 - beta taken as
    (c - b) + a (rho - 1) / rho, c the tail's p mass. No step cancels, so
    the root keeps its relative precision both near rho = 1 and where beta
    is tiny.
    """
    if scheme.kind is not DraftKind.WITH_REPLACEMENT:
        raise ValueError(f"kseq verifies with-replacement drafts, not {scheme.kind.value}")
    n = scheme.n
    table = residual_table(p, scheme.q)

    def h(rho: float) -> tuple[float, float, float]:
        # h, its derivative in rho, and beta.
        k = int(table.ratios.searchsorted(rho))
        a = float(table.p_cum[k - 1]) if k else 0.0
        c, b = table.tail(table.size - k)
        s = max(c - b, 0.0) + a * (rho - 1.0) / rho
        total = slope = 0.0
        for _ in range(n - 1):
            slope = 1.0 + total + s * slope
            total = s * (1.0 + total)
        return total - (rho - 1.0), slope * a / (rho * rho) - 1.0, a / rho + b

    rho = 1.0
    h_one, slope, beta = h(1.0)
    # The root is 1 where h(1) <= 0. With beta = 0 everywhere (p and q
    # disjoint) every rho solves; take 1.
    if h_one > 0.0 and beta > 0.0:
        rho = _root(lambda x: h(x)[:2], 1.0, float(n), h_one, slope)
        beta = h(rho)[2]
    return KseqParams(rho=rho, beta_at_rho=beta, alpha_closed=1.0 - (1.0 - beta) ** n)


# The Newton and galloping steps `_root` takes before it only bisects.
_NEWTON_STEPS = 20


def _root(f, left: float, right: float, f_left: float, slope: float) -> float:
    """The root of h in [left, right] to adjacent floats, where f(x) gives
    h(x) and its slope, and h(left) = f_left > 0 >= h(right) with ``slope``
    at left: the end of the last bracket where |h| is smaller.

    Safeguarded Newton: a step that leaves the bracket, or one from where h
    rises, bisects it instead, and after _NEWTON_STEPS steps only bisection
    is left. Once a step is below one float, Newton has converged from one
    side, and the iterate gallops toward the root, 1, 2, 4... floats at a
    time until h changes sign, so that the bracket closes from both sides.
    """
    f_right = None
    x, fx, reach = left, f_left, 0.0
    for steps in itertools.count():
        y = math.nan
        if slope < 0.0 and steps < _NEWTON_STEPS:
            y = x - fx / slope
            one = abs(math.nextafter(x, math.inf if fx > 0.0 else -math.inf) - x)
            if abs(y - x) < one:
                reach = 2.0 * reach if reach else one
                y = x + reach if fx > 0.0 else x - reach
            else:
                reach = 0.0
        if not left < y < right:
            y = 0.5 * (left + right)
            if not left < y < right:
                break
        fy, slope = f(y)
        if (fy > 0.0) != (fx > 0.0):
            reach = 0.0
        x, fx = y, fy
        if fx > 0.0:
            left, f_left = x, fx
        else:
            right, f_right = x, fx
    if f_right is None:
        f_right = f(right)[0]
    return left if abs(f_left) <= abs(f_right) else right


class KseqKernel(_Kernel):
    """Per-draft thresholded acceptance of the n drafts of a
    with-replacement ``scheme``: each draft independently accepted with
    probability min(p/(rho q), 1), rho from `kseq_solve`; if all fail,
    sample the terminal distribution, the normalised positive part of
    p - rho q.

    Both are the residual table's: a stage accepts as the table's start
    state would at mass rho and s = 1 (`_rrs_accept`), and the terminal is
    the residual at c = rho (`ResidualTable.dense`).

    Exactness needs the terminal T with (1 - miss)/beta min(q, p/rho) +
    miss T = p, where miss = (1 - beta)^n. At the root 1 - miss = rho beta,
    so T = max(p - rho q, 0)/miss, and the positive part's mass is
    1 - rho beta = miss. Normalising it avoids dividing by a tiny miss.
    A terminal of mass at most `_ZERO_MASS` has vanished (in exact
    arithmetic only at p = q), and the last stage then accepts surely, as a
    rejection-sampling stage whose residual vanished does.
    """

    def __init__(self, p: Dist, scheme: DraftScheme):
        super().__init__(p, scheme.q, scheme.n)
        self.params = kseq_solve(p, scheme)

    def _stages(self, tuples):
        table, rho = self.table, self.params.rho
        pt, qt, top = self.p.mass[tuples], self.q.mass[tuples], table.top[tuples]
        # A draft with no q mass gives inf or nan here; `_walk` rejects it.
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = _rrs_accept(pt, qt, top, 0.0, table.top_ratio, rho, 1.0)
        terminal = table.dense(rho, max(table.top_ratio - rho, 0.0))
        mass = terminal.sum()
        if mass <= _ZERO_MASS:
            accept[:, -1] = 1.0
            return tuples, accept, None
        return tuples, accept, terminal / mass


def _rrs_w(p: Dist, scheme: DraftScheme) -> RrsWKernel:
    """rrs-w of the scheme's drawn drafts against their law, behind its
    fixed prefix (greedy's top n - 1 tokens, none for the other kinds)."""
    top, law = scheme.prefix_law
    return RrsWKernel(p, law, scheme.n, top)


_WR, _WO = DraftKind.WITH_REPLACEMENT, DraftKind.WITHOUT_REPLACEMENT

# The one method/scheme table: the draft kinds each method verifies, the
# most drafts it verifies, and its kernel for target p and a scheme.
# ot-single is rejection sampling of a single draft.
METHODS = {
    "ot-single": ((_WR, _WO), 1, lambda p, s: RrsWKernel(p, s.q, 1)),
    "rrs-w": ((_WR,), math.inf, _rrs_w),
    "kseq": ((_WR,), math.inf, KseqKernel),
    "rrs-wo": ((_WO,), math.inf, lambda p, s: RrsWoKernel(p, s.q, s.n)),
    "greedy": ((DraftKind.GREEDY,), math.inf, _rrs_w),
}


def supports(method: str, kind: DraftKind, n: int) -> bool:
    """Whether ``method`` verifies n drafts of ``kind``."""
    kinds, most, _ = METHODS.get(method, ((), 0, None))
    return kind in kinds and n <= most


def make_kernel(method: str, p: Dist, scheme: DraftScheme):
    """The kernel of ``method`` for target p and ``scheme``."""
    kinds, most, kernel = METHODS.get(method, ((), 0, None))
    if scheme.kind not in kinds:
        raise ValueError(f"method {method!r} does not apply to {scheme.kind.value} drafts")
    if scheme.n > most:
        raise ValueError(f"method {method!r} verifies at most {most} draft(s), not {scheme.n}")
    return kernel(p, scheme)
