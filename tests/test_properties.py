"""Property tests on degenerate inputs (exact zeros, ties, masses near
1e-12, one-hot q, p == q, and as many drafts as q has support): the
without-replacement sampler and verifier, the kseq fixed point and kernel,
and weak duality of the with-replacement optimum against the verifiers'
exact rates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsd.alpha import alpha_greedy_closed, alpha_scan, alpha_single_draft
from mdsd.dists import Dist, tv_distance
from mdsd.drafts import DraftScheme, iter_support, sample_tuples, tuple_prob
from mdsd.oracle import MAX_TUPLE_NODES, verifier_marginal_exact
from mdsd.verify import KseqKernel, RrsWoKernel, kseq_solve, rrs_w_rate_exact

from conftest import VANISHED_TABLE_BOUND, rrs_wo_table

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
    support = q.support().size
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
def test_kseq_solves_its_fixed_point(case):
    # The root found on the breakpoint segment is a root of the direct
    # definition, and the scan's ratio order gives the same solve.
    p, q, n = case
    params = kseq_solve(p, q, n)
    rho, beta = params.rho, params.beta_at_rho
    assert rho >= 1.0
    assert abs(1.0 - (1.0 - beta) ** n - rho * beta) <= 1e-12
    direct = float(np.minimum(p.mass / rho, q.mass).sum())
    assert abs(beta - direct) <= 1e-15 * direct
    scan = alpha_scan(p, DraftScheme.with_replacement(q, n))
    assert kseq_solve(p, q, n, order=scan.ordering) == params


@PROPERTY
@given(instances())
def test_kseq_kernel_preserves_target(case):
    # The terminal is a distribution, and wherever the tuples can be
    # enumerated the kernel's exact output marginal is p, however small the
    # miss probability (1 - beta)^n gets.
    p, q, n = case
    kern = KseqKernel(p, q, n)
    assert ((kern.terminal >= 0.0) & (kern.terminal <= 1.0)).all()
    assert abs(kern.terminal.sum() - 1.0) <= 1e-12
    if p.vocab_size**n <= MAX_TUPLE_NODES:
        marg = verifier_marginal_exact(p, DraftScheme.with_replacement(q, n), kern)
        assert tv_distance(marg, p) <= 1e-9
