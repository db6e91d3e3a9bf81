"""Verification kernels: target preservation, acceptance formulas, and the
fixed-point solve."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mdsd.alpha import alpha_greedy_closed, alpha_scan, alpha_single_draft, residual_table
from mdsd.cli import _RATES, ExperimentConfig, _rrs_wo_exact, synth_positions
from mdsd.dists import _ZERO_MASS, Dist, softmax_temp, top_k_desc, tv_distance
from mdsd.drafts import DraftKind, DraftScheme, iter_support, sample_tuples, tuple_prob
from mdsd.mc import estimate_alpha
from mdsd.oracle import RationalScheme, alpha_subset_exact, rrs_wo_conditional, verifier_marginal_exact
from mdsd.verify import (
    KseqKernel,
    RrsWKernel,
    RrsWoKernel,
    METHODS,
    kseq_solve,
    make_kernel,
    rrs_w_rate_exact,
    rrs_wo_rate_exact,
    supports,
)

from conftest import (
    VANISHED_TABLE_BOUND,
    bisected_rho,
    dirichlet_dist,
    root_noise,
    rrs_w_ladder,
    rrs_w_ladder_conditional,
    rrs_w_ladder_rate,
    rrs_wo_table,
    subset_alpha,
    support_probs,
)

P559 = Dist(np.array([0.05, 0.05, 0.9]))
Q532 = Dist(np.array([0.5, 0.3, 0.2]))


def enumerated_acceptance(scheme, kernel):
    """P(output lands on one of the drafts), summed over the whole support."""
    acc = 0.0
    for t in iter_support(scheme):
        vec = kernel.conditional(t)
        acc += tuple_prob(scheme, t) * float(sum(vec[i] for i in set(t)))
    return acc


def random_pq(rng, v):
    return dirichlet_dist(rng, v), dirichlet_dist(rng, v)


class TestOTSingle:
    """ot-single is rejection sampling of one draft, `RrsWKernel` at n = 1."""

    def test_identical_always_accepts(self):
        kern = RrsWKernel(Q532, Q532, 1)
        rng = np.random.default_rng(0)
        for j in range(3):
            assert kern.sample([(j,)], rng)[0] == j
            assert kern.conditional((j,))[j] == 1.0

    def test_hand_conditional(self):
        p = Dist(np.array([0.6, 0.4]))
        q = Dist(np.array([0.4, 0.6]))
        vec = RrsWKernel(p, q, 1).conditional((1,))
        assert vec[1] == pytest.approx(2 / 3)
        assert vec[0] == pytest.approx(1 / 3)  # rejection resamples token 0

    def test_outside_support_errors(self):
        p = Dist(np.array([0.5, 0.5]))
        q = Dist(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="draft outside support"):
            RrsWKernel(p, q, 1).sample([(0,), (1,)], np.random.default_rng(0))
        # Every verifier refuses a draft its draft distribution cannot
        # produce, in `sample` and in `conditional`; token 0 has no draft
        # mass (greedy's fixed prefix is token 1).
        p = Dist(np.array([0.2, 0.3, 0.5]))
        q = Dist(np.array([0.0, 0.5, 0.5]))
        tuples = {"ot-single": (0,), "greedy": (1, 0)}
        for method, (kinds, _, _) in METHODS.items():
            t = tuples.get(method, (0, 1))
            kern = make_kernel(method, p, DraftScheme(kinds[0], q, len(t)))
            with pytest.raises(ValueError, match="draft outside support"):
                kern.sample([t], np.random.default_rng(0))
            with pytest.raises(ValueError, match="draft outside support"):
                kern.conditional(t)

    def test_draft_count_named(self):
        # The kind fits and only the count is wrong: the message says so.
        for kind in (DraftKind.WITH_REPLACEMENT, DraftKind.WITHOUT_REPLACEMENT):
            assert supports("ot-single", kind, 1) and not supports("ot-single", kind, 3)
            with pytest.raises(ValueError, match="'ot-single' verifies at most 1 draft.*not 3"):
                make_kernel("ot-single", P559, DraftScheme(kind, Q532, 3))
        with pytest.raises(ValueError, match="does not apply to greedy drafts"):
            make_kernel("ot-single", P559, DraftScheme.greedy(Q532, 1))

    def test_enumerated_acceptance_is_overlap(self, rng):
        for _ in range(100):
            p, q = random_pq(rng, 5)
            kern = RrsWKernel(p, q, 1)
            acc = sum(
                float(q.mass[j]) * kern.conditional((j,))[j] for j in range(5)
            )
            assert acc == pytest.approx(alpha_single_draft(p, q), abs=1e-12)

    def test_marginal_preserved(self, rng):
        for _ in range(50):
            p, q = random_pq(rng, 4)
            marg = verifier_marginal_exact(
                p, DraftScheme.with_replacement(q, 1), RrsWKernel(p, q, 1)
            )
            assert tv_distance(marg, p) <= 1e-9


class TestRrsWithReplacement:
    def test_identical_accepts_first(self):
        kern = RrsWKernel(Q532, Q532, 3)
        rng = np.random.default_rng(1)
        assert kern.sample([(2, 0, 1)], rng)[0] == 2

    def test_hand_rate(self):
        assert rrs_w_rate_exact(P559, Q532, 2) == pytest.approx(0.44)

    def test_rate_identical_is_one(self):
        assert rrs_w_rate_exact(Q532, Q532, 1) == 1.0

    def test_rate_matches_enumeration(self, rng):
        for _ in range(60):
            v = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            p, q = random_pq(rng, v)
            scheme = DraftScheme.with_replacement(q, n)
            kern = RrsWKernel(p, q, n)
            assert enumerated_acceptance(scheme, kern) == pytest.approx(
                rrs_w_rate_exact(p, q, n), abs=1e-9
            )

    def test_marginal_preserved(self, rng):
        for _ in range(50):
            v = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            p, q = random_pq(rng, v)
            marg = verifier_marginal_exact(
                p, DraftScheme.with_replacement(q, n), RrsWKernel(p, q, n)
            )
            assert tv_distance(marg, p) <= 1e-9

    def test_rate_and_tables_match_rational_ladder(self, rng):
        # Against the ladder in Fractions, which shares no code with the
        # residual table.
        for _ in range(40):
            v = int(rng.integers(2, 6))
            n = int(rng.integers(1, 4))
            p, q = random_pq(rng, v)
            ladder = rrs_w_ladder(p, q, n)
            assert rrs_w_rate_exact(p, q, n) == pytest.approx(float(rrs_w_ladder_rate(ladder, q)), abs=1e-14)
            kern = RrsWKernel(p, q, n)
            for t in iter_support(DraftScheme.with_replacement(q, n)):
                exact = np.array(rrs_w_ladder_conditional(ladder, q, t), dtype=float)
                assert np.abs(kern.conditional(t) - exact).max() <= 1e-12

    def test_vanished_stage_accepts_surely(self):
        # p is within 1e-13 of q, so the first stage's residual vanishes:
        # the stage accepts its draft surely and the rate is 1, where the
        # exact ladder falls short of 1 by 5e-14 (the residual (1, 0) meets
        # q at the second stage). Only the first stage can vanish: a later
        # residual is 0 wherever the one before it was below q.
        p = Dist(np.array([0.5 + 1e-13, 0.5 - 1e-13]))
        q = Dist(np.array([0.5, 0.5]))
        ladder = rrs_w_ladder(p, q, 2)
        assert rrs_w_rate_exact(p, q, 2) == 1.0
        assert 0.0 < 1.0 - float(rrs_w_ladder_rate(ladder, q)) <= VANISHED_TABLE_BOUND
        # On every tuple both stages accept surely and no final is drawn:
        # the output is the first draft.
        kern = RrsWKernel(p, q, 2)
        tuples = np.array(list(iter_support(DraftScheme.with_replacement(q, 2))))
        _, accept, final = kern._stages(tuples)
        assert final is None
        assert (accept == 1.0).all()
        for t in tuples:
            assert kern.conditional(t).tolist() == np.eye(2)[t[0]].tolist()
        assert (kern.sample(tuples, np.random.default_rng(0)) == tuples[:, 0]).all()

    def test_batch_shape(self):
        rng = np.random.default_rng(2)
        out = RrsWKernel(P559, Q532, 2).sample([(0, 1), (2, 2), (1, 0)], rng)
        assert out.shape == (3,)
        assert ((0 <= out) & (out < 3)).all()


class TestRrsWithoutReplacement:
    def test_identical_accepts_first(self):
        kern = RrsWoKernel(Q532, Q532, 2)
        rng = np.random.default_rng(1)
        assert kern.sample([(1, 0)], rng)[0] == 1

    def test_duplicate_tokens_error(self):
        with pytest.raises(ValueError, match="duplicate"):
            RrsWoKernel(P559, Q532, 2).sample([(0, 1), (1, 1)], np.random.default_rng(0))

    def test_draft_below_zero_mass_threshold(self):
        # Token 1 carries 5e-13 of q, below the 1e-12 threshold, yet the
        # sampler draws it: the scheme, the verifier and the optimum all
        # cover the tuples (0, 1) and (1, 0).
        p = Dist(np.array([0.3, 0.7]))
        q = Dist(np.array([1.0, 5e-13]))
        scheme = DraftScheme.without_replacement(q, 2)
        assert sum(tuple_prob(scheme, t) for t in iter_support(scheme)) == pytest.approx(1.0, abs=1e-15)
        marg = verifier_marginal_exact(p, scheme, RrsWoKernel(p, q, 2))
        assert tv_distance(marg, p) <= 1e-9

        def rational(d):
            exact = [Fraction(float(x)) for x in d.mass]
            return tuple(x / sum(exact) for x in exact)

        # At V = 2, n = 2 the scan's law and successive sampling agree.
        exact = alpha_subset_exact(
            rational(p), RationalScheme(DraftKind.WITHOUT_REPLACEMENT, rational(q), 2)
        )
        assert alpha_scan(p, scheme).alpha_star == pytest.approx(float(exact), abs=1e-12)

    def test_full_vocab_uniform_always_accepts(self):
        q = Dist.uniform(3)
        scheme = DraftScheme.without_replacement(q, 3)
        kern = RrsWoKernel(P559, q, 3)
        assert enumerated_acceptance(scheme, kern) == pytest.approx(1.0, abs=1e-9)

    def test_marginal_preserved(self, rng):
        for _ in range(50):
            v = int(rng.integers(2, 5))
            n = int(rng.integers(1, v + 1))
            p, q = random_pq(rng, v)
            marg = verifier_marginal_exact(
                p, DraftScheme.without_replacement(q, n), RrsWoKernel(p, q, n)
            )
            assert tv_distance(marg, p) <= 1e-9

    def test_table_matches_reference(self, rng):
        # The batched stages against the exact walk of the oracle, on every
        # support tuple: Dirichlet draws, integer ties and p == q to 1e-12;
        # instances with zeros or masses near 1e-12, where a residual can
        # vanish, to VANISHED_TABLE_BOUND once weighted by the tuple's
        # probability.
        def check(p, q, n, weighted):
            kern = RrsWoKernel(p, q, n)
            scheme = DraftScheme.without_replacement(q, n)
            count = 0
            for t in iter_support(scheme):
                err = np.abs(kern.conditional(t) - rrs_wo_table(p, q, t)).max()
                if weighted:
                    assert tuple_prob(scheme, t) * err <= VANISHED_TABLE_BOUND, (p, q, t, err)
                else:
                    assert err <= 1e-12, (p, q, t, err)
                count += 1
            return count

        # After draft 2 the residual keeps a relative mass of 9e-13, so the
        # kernel accepts draft 2 surely. The exact rule accepts it with
        # probability 0.4 and then ends on token 1: the table is off by 0.6
        # on a tuple of probability 7.5e-13.
        check(
            Dist(np.array([0.5, 0.5 - 6e-13, 6e-13])),
            Dist(np.array([0.5, 0.5 - 1.5e-12, 1.5e-12])),
            2,
            weighted=True,
        )
        # The residual stays on token 2 while its mass, relative to the stage
        # before, falls to 4e-12 and then 2e-12: above the vanishing rule, so
        # drafts (0, 1, 2) end on token 2, provided the shrinking is tracked
        # in relative precision.
        check(Dist(np.array([0.0, 0.0, 1.0])), Dist(np.array([2.1e-12, 2.1e-12, 1.0])), 3, weighted=False)

        def draw(v, style):
            if style == 0:
                return rng.dirichlet(np.ones(v))
            if style == 1:
                return rng.integers(1, 4, size=v).astype(float)
            mass = rng.dirichlet(np.ones(v))
            mass[rng.random(v) < 0.4] = 0.0 if style == 2 else 1e-12 * rng.uniform(0.3, 3.0)
            return mass if mass.sum() > _ZERO_MASS else np.ones(v)

        tuples = 0
        for i in range(240):
            v = int(rng.integers(2, 6))
            p = Dist(draw(v, i % 4))
            same = i % 5 == 0
            q = p if same else Dist(draw(v, (i // 4) % 4))
            support = np.count_nonzero(q.mass)
            n = int(rng.integers(1, min(support, 3) + 1))
            tuples += check(p, q, n, weighted=not same and max(i % 4, (i // 4) % 4) >= 2)
        assert tuples > 1000

    def test_vanished_stage_accepts_its_draft(self):
        # Draft 0 is rejected, and the residual, about (0, 0.6, 0.4, 0), is
        # within 1e-12 of q renormalised without token 0, so it vanishes at
        # the stage of the tiny draft 3, which the kernel then accepts
        # surely. The exact rule rejects every draft and ends on token 2, on
        # a tuple of probability 2e-13.
        p = Dist(np.array([0.0, 0.6, 0.4, 0.0]))
        q = Dist(np.array([0.5, 0.3, 0.2 - 2e-13, 2e-13]))
        t = (0, 3, 1)
        kern = RrsWoKernel(p, q, 3)
        table = kern.conditional(t)
        assert table.tolist() == [0.0, 0.0, 0.0, 1.0]
        assert rrs_wo_conditional(p, q, t) == (0, 0, 1, 0)
        prob = tuple_prob(DraftScheme.without_replacement(q, 3), t)
        assert prob * np.abs(table - rrs_wo_table(p, q, t)).max() <= VANISHED_TABLE_BOUND
        m = 200_000
        counts = np.bincount(kern.sample(np.tile(t, (m, 1)), np.random.default_rng(5)), minlength=4)
        sd = np.sqrt(np.maximum(m * table * (1.0 - table), 1e-300))
        assert (np.abs(counts - m * table) <= 5.0 * sd).all(), counts

    @pytest.mark.parametrize(
        "vocab, n, positions",
        [pytest.param(1000, 3, 10, id="1000-3"), pytest.param(32000, 8, 2, id="32000-8")],
    )
    def test_table_matches_reference_large_vocab(self, vocab, n, positions):
        # The one-parameter residual against the exact walk at the
        # benchmark's vocabulary sizes: zipf p and q at T = 0.7, 2 sampled
        # tuples per position. An exact walk at V = 32000 and n = 8 takes
        # about 0.3 s, so that size runs 2 positions.
        rng = np.random.default_rng(vocab)
        for pd, qd in synth_positions("zipf", 1.0, vocab, positions, vocab + n):
            p = softmax_temp(np.log(pd.mass), 0.7)
            q = softmax_temp(np.log(qd.mass), 0.7)
            kern = RrsWoKernel(p, q, n)
            for t in sample_tuples(DraftScheme.without_replacement(q, n), 2, rng):
                assert np.abs(kern.conditional(t) - rrs_wo_table(p, q, t)).max() <= 1e-12, t


class TestRrsWoRateExact:
    def rational_rate(self, p, q, n):
        """The rate from the exact walk of the oracle over the whole support."""
        scheme = DraftScheme.without_replacement(q, n)
        return sum(
            tuple_prob(scheme, t) * float(sum(rrs_wo_table(p, q, t)[x] for x in set(t)))
            for t in iter_support(scheme)
        )

    def test_identical_accepts_surely(self):
        q = Dist(np.array([0.5, 0.25, 0.125, 0.125]))
        assert rrs_wo_rate_exact(q, q, 1) == 1.0
        assert rrs_wo_rate_exact(q, q, 2) == 1.0

    def test_disjoint_supports_never_accept(self):
        p = Dist(np.array([0.5, 0.5, 0.0, 0.0]))
        q = Dist(np.array([0.0, 0.0, 0.5, 0.5]))
        assert rrs_wo_rate_exact(p, q, 1) == 0.0
        assert rrs_wo_rate_exact(p, q, 2) == 0.0

    def test_hand_rate(self):
        # The residual after the first stage is (0, 0, 1) whichever draft
        # it rejected. First draft 0 (q 0.5) is accepted with probability
        # 0.1, and then the residual meets q without token 0, (0, 0.6, 0.4):
        # stage 2 accepts 0.4. Draft 1 (q 0.3) is accepted with probability
        # 1/6, and then 2/7 of (5/7, 0, 2/7). Draft 2 is accepted surely.
        rate = 0.5 * (0.1 + 0.9 * 0.4) + 0.3 * (1 / 6 + 5 / 6 * 2 / 7) + 0.2
        assert rrs_wo_rate_exact(P559, Q532, 2) == pytest.approx(rate, abs=1e-15)
        assert rrs_wo_rate_exact(P559, Q532, 1) == pytest.approx(0.3, abs=1e-15)

    def test_vanished_second_stage_accepts_surely(self):
        # After first draft 0 the residual on tokens 1 and 2 is within
        # 4e-13 (relative) of q without token 0, so the second stage
        # vanishes and accepts surely, as the kernel does; the exact rule
        # accepts it with probability 1 - 4e-13. Drafts 1 and 2 are
        # accepted at the first stage.
        p = Dist(np.array([0.1, 0.45, 0.45 + 3e-13]))
        q = Dist(np.array([0.5, 0.25, 0.25]))
        rate = rrs_wo_rate_exact(p, q, 2)
        exact = self.rational_rate(p, q, 2)
        assert rate == pytest.approx(1.0, abs=1e-15)
        assert exact < 1.0 - 1e-14
        assert abs(rate - exact) <= VANISHED_TABLE_BOUND
        assert rate == pytest.approx(
            enumerated_acceptance(DraftScheme.without_replacement(q, 2), RrsWoKernel(p, q, 2)), abs=1e-15
        )

    def test_bad_draft_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            rrs_wo_rate_exact(P559, Q532, 0)
        with pytest.raises(ValueError, match="support"):
            rrs_wo_rate_exact(P559, Dist(np.array([1.0, 0.0, 0.0])), 2)

    def test_matches_monte_carlo_large_vocab(self):
        # At V = 1000 the estimate of 200k trials lies within 5 sigma of the
        # exact rate, sigma floored at 1 / trials.
        trials = 200_000
        rng = np.random.default_rng(1000)
        for _ in range(2):
            p, q = dirichlet_dist(rng, 1000), dirichlet_dist(rng, 1000)
            rate = rrs_wo_rate_exact(p, q, 2)
            rep = estimate_alpha(p, DraftScheme.without_replacement(q, 2), "rrs-wo", trials, seed=11)
            sd = max(rep.acceptance_stderr, 1.0 / trials)
            assert abs(rep.acceptance_mean - rate) <= 5.0 * sd, (rep.acceptance_mean, rate)


EXACT_RATES = {
    "rrs_w_rate_exact": rrs_w_rate_exact,
    "rrs_wo_rate_exact": rrs_wo_rate_exact,
    "kseq_solve": lambda p, q, n: kseq_solve(p, q, n).alpha_closed,
}


@pytest.mark.parametrize("name", EXACT_RATES)
def test_exact_rates_take_the_schemes_draft_count(name):
    # The `DraftScheme` rule: an integral count of at least 1, taken as a
    # plain int, so a NumPy count gives a plain float.
    rate = EXACT_RATES[name]
    for count in (2.5, 1.0):
        with pytest.raises(ValueError, match="draft count must be an integer"):
            rate(P559, Q532, count)
    with pytest.raises(ValueError, match="draft count must be >= 1"):
        rate(P559, Q532, 0)
    value = rate(P559, Q532, np.int64(2))
    assert type(value) is float
    assert value == rate(P559, Q532, 2)


class TestKseqSolve:
    def test_newton_root_matches_bisection(self, rng):
        # Within 2 ulps of the bisection root, plus the span of h's
        # rounding noise; within 2 ulps outright nearly always.
        close = 0
        for _ in range(300):
            v = int(rng.integers(2, 40))
            n = int(rng.integers(1, 9))
            p, q = random_pq(rng, v)
            rho, ref = kseq_solve(p, q, n).rho, bisected_rho(p, q, n)
            noise = root_noise(p, q, n, ref)
            assert abs(rho - ref) <= 2 * math.ulp(ref) + noise, (rho, ref, noise)
            close += abs(rho - ref) <= 2 * math.ulp(ref)
        assert close >= 270

    def test_one_search_across_many_breakpoints(self):
        # One Newton search on [1, n] crosses every kink of h between 1 and
        # the root; at up to 2000 tokens there are hundreds of them. The
        # bounds are those above, the share 9 in 10.
        rng = np.random.default_rng(5)
        close = 0
        for _ in range(300):
            v = int(rng.integers(2, 2001))
            n = int(rng.integers(1, 9))
            p, q = random_pq(rng, v)
            rho, ref = kseq_solve(p, q, n).rho, bisected_rho(p, q, n)
            noise = root_noise(p, q, n, ref)
            assert abs(rho - ref) <= 2 * math.ulp(ref) + noise, (v, n, rho, ref, noise)
            close += abs(rho - ref) <= 2 * math.ulp(ref)
        assert close >= 270

    def test_identical_fixed_point_at_one(self):
        params = kseq_solve(Q532, Q532, 3)
        assert params.rho == 1.0
        assert params.beta_at_rho == 1.0
        assert params.alpha_closed == 1.0

    def test_analytic_case(self):
        # One-hot target with q at 1/2 on that token: beta stays 1/2 until
        # rho = 2, so the fixed point solves 1 - 1/4 = rho / 2.
        p = Dist(np.array([1.0, 0.0, 0.0]))
        q = Dist(np.array([0.5, 0.25, 0.25]))
        params = kseq_solve(p, q, 2)
        assert params.rho == pytest.approx(1.5, abs=1e-10)
        assert params.alpha_closed == pytest.approx(0.75, abs=1e-10)

    def test_no_false_root_at_one(self):
        # g(1) is only about 1.1e-13 here; a solve that accepts a small
        # residual stops at rho = 1. The root solves (rho - 1)^2 ~ p_0.
        eps = 1.075e-13
        p = Dist(np.array([eps, 1.0 - eps]))
        q = Dist(np.array([0.0, 1.0]))
        params = kseq_solve(p, q, 2)
        assert params.rho - 1.0 == pytest.approx(3.28e-7, rel=1e-3)
        beta = params.beta_at_rho
        assert abs(1 - (1 - beta) ** 2 - params.rho * beta) <= 1e-15

    def test_disjoint_supports(self):
        p = Dist(np.array([1.0, 0.0, 0.0]))
        q = Dist(np.array([0.0, 0.5, 0.5]))
        params = kseq_solve(p, q, 3)
        assert (params.rho, params.beta_at_rho, params.alpha_closed) == (1.0, 0.0, 0.0)

    def test_residual_tolerance(self, rng):
        for _ in range(100):
            v = int(rng.integers(2, 8))
            n = int(rng.integers(1, 5))
            p, q = random_pq(rng, v)
            params = kseq_solve(p, q, n)
            g = 1 - (1 - params.beta_at_rho) ** n - params.rho * params.beta_at_rho
            assert abs(g) <= 1e-10
            assert params.alpha_closed == pytest.approx(
                1 - (1 - params.beta_at_rho) ** n
            )
            assert params.rho >= 1.0

    def test_approximation_guarantee(self, rng):
        bound = 1 - np.exp(-1.0)
        for _ in range(100):
            v = int(rng.integers(2, 8))
            n = int(rng.integers(1, 4))
            p, q = random_pq(rng, v)
            star = alpha_scan(p, DraftScheme.with_replacement(q, n)).alpha_star
            assert kseq_solve(p, q, n).alpha_closed >= bound * star - 1e-9


class TestKseqKernel:
    def test_identical_accepts_first(self):
        kern = KseqKernel(Q532, Q532, 2)
        rng = np.random.default_rng(0)
        assert kern.sample([(1, 2)], rng)[0] == 1

    def test_enumerated_acceptance_matches_closed_form(self, rng):
        # The terminal distribution only carries tokens whose per-draft
        # acceptance is 1, so it can never land on a rejected draft and the
        # closed form is exact.
        for _ in range(60):
            v = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            p, q = random_pq(rng, v)
            scheme = DraftScheme.with_replacement(q, n)
            kern = KseqKernel(p, q, n)
            assert enumerated_acceptance(scheme, kern) == pytest.approx(
                kern.params.alpha_closed, abs=1e-9
            )

    def test_marginal_preserved(self, rng):
        for _ in range(50):
            v = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            p, q = random_pq(rng, v)
            marg = verifier_marginal_exact(
                p, DraftScheme.with_replacement(q, n), KseqKernel(p, q, n)
            )
            assert tv_distance(marg, p) <= 1e-9

    @pytest.mark.parametrize(
        "p",
        [Q532, Dist(np.array([0.5 + 1e-14, 0.3 - 1e-14, 0.2]))],
        ids=["equal", "near-equal"],
    )
    def test_vanished_terminal_accepts_surely(self, p):
        # Where rho q meets p the terminal's mass is at most _ZERO_MASS: it
        # has vanished, the last stage accepts surely, and no final is
        # drawn, so `sample` draws only the stage coins.
        for n in (1, 2, 3):
            kern = KseqKernel(p, Q532, n)
            table = kern.table
            terminal = table.dense(kern.params.rho, max(table.top_ratio - kern.params.rho, 0.0))
            assert terminal.sum() <= _ZERO_MASS
            tuples = np.array(list(iter_support(DraftScheme.with_replacement(Q532, n))))
            _, accept, final = kern._stages(tuples)
            assert final is None
            assert (accept[:, -1] == 1.0).all()
            for t in tuples:
                assert kern.conditional(t).sum() == pytest.approx(1.0, abs=1e-15)
            rng, coins = np.random.default_rng(5), np.random.default_rng(5)
            kern.sample(tuples, rng)
            coins.random((n, len(tuples)))
            assert rng.random() == coins.random()

    def test_reads_the_solvers_table(self):
        # kseq's stages and terminal read the residual table that
        # `kseq_solve` built for the pair: no second sort.
        p, q = Dist(P559.mass.copy()), Dist(Q532.mass.copy())
        kseq_solve(p, q, 2)
        misses = residual_table.cache_info().misses
        kern = KseqKernel(p, q, 2)
        kern.sample([(0, 1), (2, 2)], np.random.default_rng(0))
        assert residual_table.cache_info().misses == misses
        assert kern.table is residual_table(p, q)

    def test_batch_shape(self):
        kern = KseqKernel(P559, Q532, 2)
        out = kern.sample([(0, 1), (2, 2), (1, 0)], np.random.default_rng(3))
        assert out.shape == (3,)
        assert ((0 <= out) & (out < 3)).all()


class TestGreedyVerify:
    def test_acceptance_includes_top_tokens(self):
        p = Dist(np.array([0.2, 0.3, 0.5]))
        kern = make_kernel("greedy", p, DraftScheme.greedy(Q532, 2))
        # Last draft 1 is rejected half the time; the resampled token can be
        # the deterministic draft 0, which still counts as accepted.
        vec = kern.conditional((0, 1))
        assert vec[1] == pytest.approx(0.5)
        assert vec[0] == pytest.approx(0.5 * (0.2 / 0.3))
        assert vec[0] + vec[1] > vec[1]

    def test_hand_acceptance(self):
        p = Dist(np.array([0.2, 0.3, 0.5]))
        scheme = DraftScheme.greedy(Q532, 2)
        kern = make_kernel("greedy", p, scheme)
        assert enumerated_acceptance(scheme, kern) == pytest.approx(0.9, abs=1e-12)
        assert enumerated_acceptance(scheme, kern) == pytest.approx(
            alpha_greedy_closed(p, Q532, 2), abs=1e-12
        )

    def test_matches_optimum_everywhere(self, rng):
        for _ in range(60):
            v = int(rng.integers(2, 5))
            n = int(rng.integers(1, v + 1))
            p, q = random_pq(rng, v)
            scheme = DraftScheme.greedy(q, n)
            kern = make_kernel("greedy", p, scheme)
            closed = alpha_greedy_closed(p, q, n)
            assert enumerated_acceptance(scheme, kern) == pytest.approx(closed, abs=1e-9)
            assert subset_alpha(p, support_probs(scheme)) == pytest.approx(closed, abs=1e-9)

    def test_marginal_preserved(self, rng):
        for _ in range(50):
            v = int(rng.integers(2, 5))
            n = int(rng.integers(1, v + 1))
            p, q = random_pq(rng, v)
            scheme = DraftScheme.greedy(q, n)
            marg = verifier_marginal_exact(p, scheme, make_kernel("greedy", p, scheme))
            assert tv_distance(marg, p) <= 1e-9

    def test_invalid_prefix_errors(self):
        kern = make_kernel("greedy", P559, DraftScheme.greedy(Q532, 2))
        with pytest.raises(ValueError, match="greedy top prefix"):
            kern.sample([(0, 1), (1, 0)], np.random.default_rng(0))

    def test_conditional_matches_unfolded_formula(self, rng):
        # Spell the three-case conditional out from scratch: scale p by the
        # untopped mass, threshold on the last draft, split the rejection
        # mass between top tokens (weight p*u) and the rest (weight
        # (p*u - q)+), then compare to the kernel term by term.
        for _ in range(40):
            v = int(rng.integers(2, 6))
            n = int(rng.integers(2, v + 1))
            p, q = random_pq(rng, v)
            top = top_k_desc(q, n - 1)
            u = 1.0 - float(q.mass[list(top)].sum())
            if u <= 1e-9:
                continue
            in_top = np.zeros(v, dtype=bool)
            in_top[list(top)] = True
            z = np.where(
                in_top, p.mass * u, np.maximum(p.mass * u - q.mass, 0.0)
            )
            kern = make_kernel("greedy", p, DraftScheme.greedy(q, n))
            for last in range(v):
                if in_top[last] or q.mass[last] <= 1e-12:
                    continue
                reject = max(1.0 - p.mass[last] * u / q.mass[last], 0.0)
                expect = reject * z / z.sum()
                expect[last] = min(p.mass[last] * u / q.mass[last], 1.0)
                got = kern.conditional(top + (last,))
                assert np.allclose(got, expect, atol=1e-9), (top, last)


class TestMethodTables:
    """`METHODS` and the report's `cli._RATES` state the same methods: each
    row's kernel, enumerated over its scheme's support at V <= 5, reaches
    the rate the report gives it, at every kind it verifies. A method with
    a kernel and no rate, or a rate its kernel does not reach, fails here."""

    def test_kernel_reaches_reported_rate(self, rng):
        assert set(_RATES) == set(METHODS)
        cfg = ExperimentConfig()
        checked = 0
        for i in range(30):
            v = int(rng.integers(2, 6))
            if i % 2:
                p, q = random_pq(rng, v)
            else:  # integer masses, with ties
                p, q = (Dist(rng.integers(1, 4, size=v).astype(float)) for _ in range(2))
            for method, (kinds, most, _) in METHODS.items():
                for kind in kinds:
                    for n in range(1, min(most, v, 3) + 1):
                        scheme = DraftScheme(kind, q, n)
                        if scheme.q_form is None:
                            alpha_star = alpha_greedy_closed(p, q, n)
                        else:
                            alpha_star = alpha_scan(p, scheme).alpha_star
                        # rrs-wo is covered where the report walks it exactly.
                        assert method != "rrs-wo" or _rrs_wo_exact(q, n, cfg.trials)
                        rate, stderr = _RATES[method](p, scheme, alpha_star, cfg, 0)
                        assert stderr == 0.0
                        kern = make_kernel(method, p, scheme)
                        assert enumerated_acceptance(scheme, kern) == pytest.approx(rate, abs=1e-12), (
                            method, kind, n, p.mass, q.mass,
                        )
                        checked += 1
        assert checked >= 300

    def test_tuple_width_checked(self):
        # A kernel built for n drafts refuses a tuple one draft wider or
        # narrower, in `sample` and in `conditional`.
        for method, (kinds, most, _) in METHODS.items():
            n = min(most, 2)
            kern = make_kernel(method, P559, DraftScheme(kinds[0], Q532, n))
            for t in ((0, 1, 2)[: n + 1], (0, 1, 2)[: n - 1]):
                with pytest.raises(ValueError, match=rf"\(m, {n}\) array"):
                    kern.sample([t], np.random.default_rng(0))
                with pytest.raises(ValueError, match=rf"\(m, {n}\) array"):
                    kern.conditional(t)

    def test_replacement_kernels_leave_q_unsorted(self, rng):
        # The ascending sort of q is the without-replacement walk's alone:
        # rrs-w, ot-single and greedy's verifier, built and walked, leave
        # q and greedy's law without it.
        for method, kind, n in (
            ("rrs-w", DraftKind.WITH_REPLACEMENT, 3),
            ("ot-single", DraftKind.WITH_REPLACEMENT, 1),
            ("greedy", DraftKind.GREEDY, 3),
        ):
            p, q = random_pq(rng, 6)
            scheme = DraftScheme(kind, q, n)
            kern = make_kernel(method, p, scheme)
            tuples = sample_tuples(scheme, 64, rng)
            kern.sample(tuples, rng)
            kern.accepted(tuples, rng)
            kern.conditional(tuples[0])
            for dist in (q, scheme.prefix_law[1]):
                assert "ascending" not in dist.__dict__, method


class TestDeterminism:
    def test_same_seed_same_output(self):
        for make in (
            lambda: RrsWKernel(P559, Q532, 1),
            lambda: RrsWKernel(P559, Q532, 2),
            lambda: RrsWoKernel(P559, Q532, 2),
            lambda: KseqKernel(P559, Q532, 2),
            lambda: make_kernel("greedy", P559, DraftScheme.greedy(Q532, 2)),
        ):
            kern = make()
            t = [(0, 1), (0, 2)] if kern.n > 1 else [(1,), (2,)]
            a = kern.sample(t, np.random.default_rng(42))
            b = kern.sample(t, np.random.default_rng(42))
            assert np.array_equal(a, b)


class TestSamplerMatchesTable:
    """The batched `sample`, which is the Monte Carlo path, against the exact
    `conditional` table: each support tuple of tiny instances is repeated M
    times and every token count must lie within 5 sigma of M times its
    conditional probability."""

    M = 20_000
    INSTANCES = 8

    def test_every_method(self):
        rng = np.random.default_rng(31)
        tuples = 0
        for method, (kinds, most, _) in METHODS.items():
            for _ in range(self.INSTANCES):
                v = int(rng.integers(3, 5))
                n = 1 if most == 1 else int(rng.integers(1, 4))
                # The third draw is dropped; it keeps the seed's instances.
                p, q, _ = (dirichlet_dist(rng, v) for _ in range(3))
                for kind in kinds:
                    scheme = DraftScheme(kind, q, n)
                    if not supports(method, kind, scheme.n):
                        continue
                    kern = make_kernel(method, p, scheme)
                    for t in iter_support(scheme):
                        out = kern.sample(np.tile(t, (self.M, 1)), rng)
                        counts = np.bincount(out, minlength=v)
                        c = kern.conditional(t)
                        sd = np.sqrt(np.maximum(self.M * c * (1.0 - c), 1e-300))
                        z = np.abs(counts - self.M * c) / sd
                        assert z.max() <= 5.0, (method, kind, t, counts, c)
                        tuples += 1
        assert tuples >= 493
