"""Monte Carlo harness: determinism, agreement with exact rates, and the
total variation preservation test on sampled marginals."""

import numpy as np
import pytest

from mdsd.alpha import alpha_greedy_closed, alpha_single_draft
from mdsd.dists import Dist
from mdsd.drafts import DraftScheme
from mdsd.mc import BLOCK_TRIALS, _block_rng, estimate_alpha
from mdsd.verify import kseq_solve, rrs_w_rate_exact

from conftest import dirichlet_dist, first_draft_marginal, sampled_marginal, tv_test

P559 = Dist(np.array([0.05, 0.05, 0.9]))
Q532 = Dist(np.array([0.5, 0.3, 0.2]))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        scheme = DraftScheme.with_replacement(Q532, 2)
        a = estimate_alpha(P559, scheme, "rrs-w", 30_000, seed=9)
        b = estimate_alpha(P559, scheme, "rrs-w", 30_000, seed=9)
        assert a.acceptance_mean == b.acceptance_mean
        assert a.acceptance_stderr == b.acceptance_stderr
        ma = sampled_marginal(P559, scheme, "rrs-w", 30_000, seed=9)
        mb = sampled_marginal(P559, scheme, "rrs-w", 30_000, seed=9)
        assert np.array_equal(ma.mass, mb.mass)

    def test_different_seed_differs(self):
        scheme = DraftScheme.with_replacement(Q532, 2)
        a = estimate_alpha(P559, scheme, "rrs-w", 30_000, seed=9)
        b = estimate_alpha(P559, scheme, "rrs-w", 30_000, seed=10)
        assert a.acceptance_mean != b.acceptance_mean
        assert not np.array_equal(
            sampled_marginal(P559, scheme, "rrs-w", 30_000, seed=9).mass,
            sampled_marginal(P559, scheme, "rrs-w", 30_000, seed=10).mass,
        )

    def test_block_stream_is_the_jumped_philox(self):
        for seed in (0, 3, 2**63 + 5, 2**64 - 1):
            for block in range(4):
                want = np.random.Generator(np.random.Philox(key=seed).jumped(block))
                got = _block_rng(seed, block)
                assert np.array_equal(got.random(64), want.random(64))
                assert np.array_equal(got.integers(0, 1000, 64), want.integers(0, 1000, 64))

    def test_block_boundary_sizes(self):
        scheme = DraftScheme.with_replacement(Q532, 2)
        for trials in (1, BLOCK_TRIALS, BLOCK_TRIALS + 7):
            rep = estimate_alpha(P559, scheme, "rrs-w", trials, seed=0)
            assert rep.trials == trials


class TestReportInvariants:
    def test_fields(self):
        scheme = DraftScheme.with_replacement(Q532, 2)
        rep = estimate_alpha(P559, scheme, "kseq", 10_000, seed=4)
        assert 0.0 <= rep.acceptance_mean <= 1.0
        assert rep.acceptance_stderr == pytest.approx(
            np.sqrt(rep.acceptance_mean * (1 - rep.acceptance_mean) / rep.trials)
        )
        marginal = sampled_marginal(P559, scheme, "kseq", 10_000, seed=4)
        assert 0.0 <= tv_test(marginal, P559, 10_000).statistic <= 1.0

    def test_identical_distributions_always_accept(self):
        for method, scheme in [
            ("rrs-w", DraftScheme.with_replacement(Q532, 2)),
            ("kseq", DraftScheme.with_replacement(Q532, 2)),
            ("rrs-wo", DraftScheme.without_replacement(Q532, 2)),
            ("ot-single", DraftScheme.with_replacement(Q532, 1)),
        ]:
            rep = estimate_alpha(Q532, scheme, method, 10_000, seed=1)
            assert rep.acceptance_mean == 1.0, method

    def test_incompatible_pair_errors(self):
        scheme = DraftScheme.with_replacement(Q532, 2)
        with pytest.raises(ValueError, match="does not apply"):
            estimate_alpha(P559, scheme, "greedy", 100, seed=0)


class TestAgreementWithExactRates:
    TRIALS = 100_000

    def within_3_sigma(self, rep, expect):
        sigma = max(rep.acceptance_stderr, 1e-12)
        return abs(rep.acceptance_mean - expect) <= 3 * sigma

    def test_rrs_w_hand_instance(self):
        scheme = DraftScheme.with_replacement(Q532, 2)
        rep = estimate_alpha(P559, scheme, "rrs-w", self.TRIALS, seed=21)
        assert self.within_3_sigma(rep, 0.44)

    def test_ot_single(self):
        scheme = DraftScheme.with_replacement(Q532, 1)
        rep = estimate_alpha(P559, scheme, "ot-single", self.TRIALS, seed=22)
        assert self.within_3_sigma(rep, alpha_single_draft(P559, Q532))

    def test_kseq(self):
        scheme = DraftScheme.with_replacement(Q532, 3)
        rep = estimate_alpha(P559, scheme, "kseq", self.TRIALS, seed=23)
        assert self.within_3_sigma(rep, kseq_solve(P559, Q532, 3).alpha_closed)

    def test_greedy(self, rng):
        p = dirichlet_dist(rng, 20)
        q = dirichlet_dist(rng, 20)
        scheme = DraftScheme.greedy(q, 3)
        rep = estimate_alpha(p, scheme, "greedy", self.TRIALS, seed=24)
        assert self.within_3_sigma(rep, alpha_greedy_closed(p, q, 3))

    def test_rrs_w_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            v = int(rng.integers(3, 30))
            n = int(rng.integers(1, 4))
            p = dirichlet_dist(rng, v)
            q = dirichlet_dist(rng, v)
            scheme = DraftScheme.with_replacement(q, n)
            rep = estimate_alpha(p, scheme, "rrs-w", 50_000, seed=int(rng.integers(1 << 30)))
            assert self.within_3_sigma(rep, rrs_w_rate_exact(p, q, n))


class TestTvTest:
    def test_threshold_value(self):
        p = Dist.uniform(100)
        scheme = DraftScheme.with_replacement(p, 2)
        res = tv_test(sampled_marginal(p, scheme, "rrs-w", 1000, seed=0), p, 1_000_000)
        assert res.threshold == pytest.approx(3 * np.sqrt(100 / 1_000_000))

    def test_correct_kernel_passes(self, rng):
        p = dirichlet_dist(rng, 50)
        q = dirichlet_dist(rng, 50)
        scheme = DraftScheme.with_replacement(q, 3)
        assert tv_test(sampled_marginal(p, scheme, "rrs-w", 200_000, seed=5), p, 200_000).passed

    def test_biased_kernel_fails(self, rng):
        # Negative control: always emitting the first draft reproduces q,
        # not p, so the preservation test must reject it.
        p = dirichlet_dist(rng, 50)
        q = dirichlet_dist(rng, 50)
        scheme = DraftScheme.with_replacement(q, 3)
        assert not tv_test(first_draft_marginal(scheme, 200_000, seed=6), p, 200_000).passed

    def test_one_hot_target(self):
        p = Dist.one_hot(4, 2)
        q = Dist(np.array([0.1, 0.2, 0.4, 0.3]))
        scheme = DraftScheme.with_replacement(q, 2)
        res = tv_test(sampled_marginal(p, scheme, "rrs-w", 5_000, seed=7), p, 5_000)
        assert res.statistic == 0.0
        assert res.passed
