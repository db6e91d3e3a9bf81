"""Property tests on degenerate inputs (exact zeros, ties, masses near
1e-12 or subnormal, one-hot q, p == q, and as many drafts as q has
support): the without-replacement sampler, verifier and exact rate, the
with-replacement verifier and rate against a rational ladder, the kseq
fixed point and kernel, weak duality of the with-replacement optimum
against the verifiers' exact rates, the Monte Carlo count against sampled
outputs, the one tie rule of every sorted order, a finite value from
every report function, and the without-replacement optimum against the
with-replacement one."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsd.alpha import (
    alpha_greedy_closed,
    alpha_scan,
    alpha_single_draft,
    ratio_order,
    residual_table,
)
from mdsd.dists import Dist, stable_argsort, tv_distance
from mdsd.drafts import DraftScheme, iter_support, sample_tuples, tuple_prob
from mdsd.mc import _blocks, estimate_alpha
from mdsd.oracle import MAX_TUPLE_NODES, verifier_marginal_exact
from mdsd.verify import (
    KseqKernel,
    RrsWKernel,
    RrsWoKernel,
    kseq_solve,
    make_kernel,
    rrs_w_rate_exact,
    rrs_wo_rate_exact,
)

from conftest import (
    VANISHED_TABLE_BOUND,
    bisected_rho,
    root_noise,
    rrs_w_ladder,
    rrs_w_ladder_conditional,
    rrs_w_ladder_rate,
    rrs_wo_table,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# One token's mass before normalisation: an exact zero, a tie-prone small
# integer, a mass near 1e-12, or an arbitrary positive float.
MASS = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 2.0, 3.0]),
    st.floats(3e-13, 3e-12),
    st.floats(1e-3, 1.0),
)


@st.composite
def instances(draw):
    """(p, q, n) with n at most the support of q, often equal to it."""
    v = draw(st.integers(2, 6))
    shape = st.lists(MASS, min_size=v, max_size=v).filter(lambda m: sum(m) > 1e-10)
    if draw(st.booleans()):
        q = np.zeros(v)
        q[draw(st.integers(0, v - 1))] = 1.0
        q += np.array(draw(st.lists(st.sampled_from([0.0, 1e-12]), min_size=v, max_size=v)))
        q = Dist(q)
    else:
        q = Dist(np.array(draw(shape)))
    p = q if draw(st.booleans()) else Dist(np.array(draw(shape)))
    support = np.count_nonzero(q.mass)
    n = draw(st.one_of(st.just(support), st.integers(1, support)))
    return p, q, n


@PROPERTY
@given(instances(), st.integers(0, 2**32 - 1))
def test_sampler_never_repeats_or_draws_zero_mass(case, seed):
    _, q, n = case
    tuples = sample_tuples(DraftScheme.without_replacement(q, n), 500, np.random.default_rng(seed))
    assert tuples.shape == (500, n)
    ordered = np.sort(tuples, axis=1)
    assert not (ordered[:, 1:] == ordered[:, :-1]).any()
    assert (q.mass[tuples] > 0.0).all()


@PROPERTY
@given(instances())
def test_table_sums_to_one_and_matches_reference(case):
    # Against the exact walk, weighted by the tuple's draft probability, to
    # VANISHED_TABLE_BOUND: a residual that vanishes accepts its draft
    # surely. Unweighted, a tuple that reaches a residual of mass r
    # (relative to the last) also carries rounding of relative size
    # 1e-16 / r, and reaching it has probability at most r.
    p, q, n = case
    scheme = DraftScheme.without_replacement(q, n)
    kern = RrsWoKernel(p, q, n)
    for t in iter_support(scheme):
        got = kern.conditional(t)
        assert abs(got.sum() - 1.0) <= 1e-12
        assert (got >= 0.0).all()
        err = np.abs(got - rrs_wo_table(p, q, t)).max()
        assert tuple_prob(scheme, t) * err <= VANISHED_TABLE_BOUND, (t, err)


@PROPERTY
@given(instances())
def test_rrs_wo_exact_rate_matches_reference(case):
    # One to four drafts: the overlap at one and the walk over the tree of
    # rejected draft prefixes at more, against the exact walk of the
    # oracle, summed over the whole support, to VANISHED_TABLE_BOUND, as a
    # residual that vanishes accepts its stage's draft surely; each
    # vanished stage moves the rate by at most its relative mass.
    p, q, _ = case
    for n in range(1, min(np.count_nonzero(q.mass), 4) + 1):
        scheme = DraftScheme.without_replacement(q, n)
        exact = sum(
            tuple_prob(scheme, t) * float(sum(rrs_wo_table(p, q, t)[x] for x in set(t)))
            for t in iter_support(scheme)
        )
        assert abs(rrs_wo_rate_exact(p, q, n) - exact) <= VANISHED_TABLE_BOUND, (n, exact)


@PROPERTY
@given(instances())
def test_rrs_w_matches_rational_ladder(case):
    # The exact rate and the kernel's tables against the ladder in
    # Fractions, which shares no code with the residual table, the tables
    # weighted by the tuple's probability, to VANISHED_TABLE_BOUND: a stage
    # whose residual vanishes accepts its draft surely.
    p, q, n = case
    n = min(n, 3)
    ladder = rrs_w_ladder(p, q, n)
    assert abs(rrs_w_rate_exact(p, q, n) - float(rrs_w_ladder_rate(ladder, q))) <= VANISHED_TABLE_BOUND
    scheme = DraftScheme.with_replacement(q, n)
    kern = RrsWKernel(p, q, n)
    for t in iter_support(scheme):
        exact = np.array(rrs_w_ladder_conditional(ladder, q, t), dtype=float)
        err = np.abs(kern.conditional(t) - exact).max()
        assert tuple_prob(scheme, t) * err <= VANISHED_TABLE_BOUND, (t, err)


@PROPERTY
@given(instances())
def test_rrs_wo_kernel_preserves_target(case):
    # Wherever the tuples can be enumerated, the kernel's exact output
    # marginal is p, residuals that vanish included.
    p, q, n = case
    if p.vocab_size**n <= MAX_TUPLE_NODES:
        scheme = DraftScheme.without_replacement(q, n)
        marg = verifier_marginal_exact(p, scheme, RrsWoKernel(p, q, n))
        assert tv_distance(marg, p) <= 1e-9


@PROPERTY
@given(instances())
def test_verifier_rates_within_optimum(case):
    # No verifier of n drafts with replacement beats their optimum, and
    # neither does the optimum of the first draft alone.
    p, q, n = case
    star = alpha_scan(p, DraftScheme.with_replacement(q, n)).alpha_star
    assert 0.0 <= star <= 1.0
    assert 0.0 <= alpha_greedy_closed(p, q, n) <= 1.0
    assert rrs_w_rate_exact(p, q, n) <= star + 1e-9
    assert kseq_solve(p, q, n).alpha_closed <= star + 1e-9
    assert alpha_single_draft(p, q) <= star + 1e-9


@PROPERTY
@given(instances())
def test_kseq_newton_root_matches_bisection(case):
    # Within 2 ulps of the bisection root, plus the span of h's rounding
    # noise, which is wide where h is flat (near-one-hot p and q).
    p, q, n = case
    rho, ref = kseq_solve(p, q, n).rho, bisected_rho(p, q, n)
    assert abs(rho - ref) <= 2 * math.ulp(ref) + root_noise(p, q, n, ref), (rho, ref)


@PROPERTY
@given(instances())
def test_kseq_solves_its_fixed_point(case):
    # The root of h, whose masses are read from the residual table, is a
    # root of the direct definition.
    p, q, n = case
    params = kseq_solve(p, q, n)
    rho, beta = params.rho, params.beta_at_rho
    assert rho >= 1.0
    assert abs(1.0 - (1.0 - beta) ** n - rho * beta) <= 1e-12
    direct = float(np.minimum(p.mass / rho, q.mass).sum())
    assert abs(beta - direct) <= 1e-15 * direct


@PROPERTY
@given(instances())
def test_kseq_kernel_preserves_target(case):
    # The terminal the stages give is a distribution, or None where it
    # vanished and the last stage accepts surely, and wherever the tuples
    # can be enumerated the kernel's exact output marginal is p, however
    # small the miss probability (1 - beta)^n gets.
    p, q, n = case
    kern = KseqKernel(p, q, n)
    _, accept, final = kern._stages(np.full((1, n), int(q.mass.argmax())))
    if final is None:
        assert (accept[:, -1] == 1.0).all()
    else:
        assert ((final >= 0.0) & (final <= 1.0)).all()
        assert abs(final.sum() - 1.0) <= 1e-12
    if p.vocab_size**n <= MAX_TUPLE_NODES:
        marg = verifier_marginal_exact(p, DraftScheme.with_replacement(q, n), kern)
        assert tv_distance(marg, p) <= 1e-9


@PROPERTY
@given(instances(), st.integers(0, 2**32 - 1))
def test_estimate_counts_the_sampled_outputs_in_their_tuples(case, seed):
    # The estimate draws the stage coins and no final token. On the same
    # blocks and seed, its count is the number of sampled outputs, final
    # draws included, that land in their own tuples.
    p, q, n = case
    trials = 200
    for scheme, method in (
        (DraftScheme.without_replacement(q, n), "rrs-wo"),
        (DraftScheme.with_replacement(q, n), "rrs-w"),
        (DraftScheme.with_replacement(q, n), "kseq"),
        (DraftScheme.with_replacement(q, 1), "ot-single"),
    ):
        kernel = make_kernel(method, p, scheme)
        landed = sum(
            int((kernel.sample(tuples, rng)[:, None] == tuples).any(axis=1).sum())
            for tuples, rng in _blocks(scheme, trials, seed)
        )
        assert estimate_alpha(p, scheme, method, trials, seed).acceptance_mean == landed / trials, method


@st.composite
def tied_pairs(draw):
    """(p, q) with masses from a small set, so that masses and ratios tie
    often; q keeps at least one positive mass."""
    v = draw(st.integers(2, 40))
    masses = st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 6.0]), min_size=v, max_size=v)
    positive = masses.filter(lambda m: sum(m) > 0.0)
    return Dist(np.array(draw(positive))), Dist(np.array(draw(positive)))


@PROPERTY
@given(tied_pairs())
def test_sorted_orders_break_ties_by_lowest_id(pair):
    # One tie rule: every order equals a stable sort of its keys, and the
    # residual table sums the ratio order reversed.
    p, q = pair
    pm, qm = p.mass, q.mass
    assert np.array_equal(stable_argsort(qm), np.argsort(qm, kind="stable"))
    assert np.array_equal(q.ascending.order, np.argsort(qm, kind="stable"))
    ratio = np.divide(pm, qm, out=np.where(pm > 0.0, np.inf, -1.0), where=qm > 0.0)
    order, _ = ratio_order(p, q)
    assert np.array_equal(order, np.argsort(ratio, kind="stable"))
    table = residual_table(p, q)
    assert np.array_equal(table.descending, order[::-1])
    assert np.array_equal(table.top, ratio == table.top_ratio)


@PROPERTY
@given(
    st.lists(
        st.one_of(
            st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf]),
            st.floats(allow_nan=False),
        ),
        min_size=1,
        max_size=200,
    )
)
def test_stable_argsort_matches_a_stable_sort(keys):
    # Ties (-0.0 equal to 0.0 among them) and +-inf, in runs of any length
    # and anywhere in the order.
    keys = np.array(keys)
    assert np.array_equal(stable_argsort(keys), np.argsort(keys, kind="stable"))


def _without_replacement_scan(p, q, n):
    return alpha_scan(p, DraftScheme.without_replacement(q, n)).alpha_star


# Every function whose value the report prints, as (p, q, n) -> float.
REPORTS = {
    "alpha_scan with-replacement": lambda p, q, n: alpha_scan(
        p, DraftScheme.with_replacement(q, n)
    ).alpha_star,
    "alpha_scan without-replacement": _without_replacement_scan,
    "alpha_greedy_closed": alpha_greedy_closed,
    "rrs_w_rate_exact": rrs_w_rate_exact,
    "rrs_wo_rate_exact": rrs_wo_rate_exact,
    "kseq_solve": lambda p, q, n: kseq_solve(p, q, n).alpha_closed,
    "estimate_alpha rrs-wo": lambda p, q, n: estimate_alpha(
        p, DraftScheme.without_replacement(q, n), "rrs-wo", 64, 0
    ).acceptance_mean,
}
WITHOUT_REPLACEMENT = {"alpha_scan without-replacement", "rrs_wo_rate_exact", "estimate_alpha rrs-wo"}
# The conditional-Poisson recurrence of the without-replacement scan loses
# products of tiny masses that underflow before it rescales them, and then
# finds fewer than n tokens of support (ROADMAP item 1).
CP_UNDERFLOW = pytest.mark.xfail(
    strict=True, raises=ValueError, reason="the scan's CP recurrence underflows (ROADMAP item 1)"
)


def subnormal_instances(seed: int = 2, count: int = 1200):
    """(p, q, n) with V from 3 to 6, n of 2 or 3, and masses log-uniform
    from 1 down to 1e-323, subnormal ones among them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v, n = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        p, q = (Dist(10.0 ** (e - e.max())) for e in rng.uniform(-323.0, 0.0, (2, v)))
        yield p, q, n


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=CP_UNDERFLOW) if name == "alpha_scan without-replacement" else name
        for name in REPORTS
    ],
)
def test_report_functions_finite_on_subnormal_masses(name):
    # A finite value in [0, 1] and no RuntimeWarning (an error under this
    # suite's settings), or, without replacement, the support error where q
    # has fewer than n tokens of normal mass. A support error where q has n
    # of them is the scan's underflow, raised once every instance is checked.
    report = REPORTS[name]
    underflows = []
    for p, q, n in subnormal_instances():
        try:
            value = report(p, q, n)
        except ValueError as exc:
            if name not in WITHOUT_REPLACEMENT or "exceeds support size" not in str(exc):
                raise
            if n <= np.count_nonzero(q.mass):
                underflows.append(exc)
            continue
        assert math.isfinite(value) and -1e-12 <= value <= 1.0 + 1e-12, (p.mass, q.mass, n, value)
    if underflows:
        raise underflows[0]


@CP_UNDERFLOW
def test_without_replacement_scan_keeps_products_of_tiny_masses():
    # Every tuple of three distinct drafts holds token 0, so alpha* = 1.
    p, q = Dist(np.array([1.0, 0.0, 0.0])), Dist(np.array([1.0, 1e-200, 1e-200]))
    assert _without_replacement_scan(p, q, 3) == pytest.approx(1.0)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the scan takes the conditional-Poisson law for the successive sampler's (ROADMAP item 1)",
)
def test_without_replacement_optimum_at_least_with_replacement():
    # ROADMAP item 1's done-criterion: n distinct drafts cover at least as
    # much as n independent ones, so alpha*_wo >= alpha*_wr. A seeded sweep,
    # not hypothesis draws, so that it fails every time while the scan
    # reads the conditional-Poisson law: 6 of these 2000 pairs fall below,
    # the first at V = 3, n = 2 (0.93859 against 0.93929).
    rng = np.random.default_rng(0)
    below = []
    for _ in range(2000):
        v, n = int(rng.integers(3, 9)), int(rng.integers(2, 4))
        conc = float(rng.choice([0.1, 0.3, 1.0]))
        p, q = (Dist(rng.dirichlet(np.full(v, conc))) for _ in range(2))
        if np.count_nonzero(q.mass) < n:
            continue
        wo = _without_replacement_scan(p, q, n)
        wr = alpha_scan(p, DraftScheme.with_replacement(q, n)).alpha_star
        if wo < wr - 1e-12:
            below.append((v, n, wo, wr))
    assert not below, below[:3]
