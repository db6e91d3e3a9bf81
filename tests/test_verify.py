"""Verification kernels: target preservation, acceptance formulas, and the
fixed-point solve."""

import numpy as np
import pytest

from mdsd.alpha import alpha_greedy_closed, alpha_scan, alpha_single_draft
from mdsd.cli import synth_positions
from mdsd.dists import Dist, softmax_temp, top_k_desc, tv_distance
from mdsd.drafts import DraftKind, DraftScheme, iter_support, sample_tuples, tuple_prob
from mdsd.oracle import rrs_wo_conditional, verifier_marginal_exact
from mdsd.verify import (
    GreedyKernel,
    KseqKernel,
    OTSingleKernel,
    RrsWKernel,
    RrsWoKernel,
    METHODS,
    kseq_solve,
    make_kernel,
    rrs_w_rate_exact,
    supports,
)

from conftest import VANISHED_TABLE_BOUND, dirichlet_dist, rrs_wo_table, subset_alpha, support_probs

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
    def test_identical_always_accepts(self):
        kern = OTSingleKernel(Q532, Q532)
        rng = np.random.default_rng(0)
        for j in range(3):
            assert kern.sample([(j,)], rng)[0] == j
            assert kern.conditional((j,))[j] == 1.0

    def test_hand_conditional(self):
        p = Dist(np.array([0.6, 0.4]))
        q = Dist(np.array([0.4, 0.6]))
        vec = OTSingleKernel(p, q).conditional((1,))
        assert vec[1] == pytest.approx(2 / 3)
        assert vec[0] == pytest.approx(1 / 3)  # rejection resamples token 0

    def test_outside_support_errors(self):
        p = Dist(np.array([0.5, 0.5]))
        q = Dist(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="draft outside support"):
            OTSingleKernel(p, q).sample([(0,), (1,)], np.random.default_rng(0))
        # Every verifier but the first-draft control refuses a draft its draft
        # distribution cannot produce, in `sample` and in `conditional`;
        # token 0 has no draft mass (greedy's fixed prefix is token 1).
        p = Dist(np.array([0.2, 0.3, 0.5]))
        q = Dist(np.array([0.0, 0.5, 0.5]))
        tuples = {"ot-single": (0,), "greedy": (1, 0)}
        for method, (kinds, _) in METHODS.items():
            t = tuples.get(method, (0, 1))
            kern = make_kernel(method, p, DraftScheme(kinds[0], q, len(t)))
            if method == "first-draft":
                assert kern.sample([t], np.random.default_rng(0))[0] == 0
                continue
            with pytest.raises(ValueError, match="draft outside support"):
                kern.sample([t], np.random.default_rng(0))
            with pytest.raises(ValueError, match="draft outside support"):
                kern.conditional(t)

    def test_enumerated_acceptance_is_overlap(self, rng):
        for _ in range(100):
            p, q = random_pq(rng, 5)
            kern = OTSingleKernel(p, q)
            acc = sum(
                float(q.mass[j]) * kern.conditional((j,))[j] for j in range(5)
            )
            assert acc == pytest.approx(alpha_single_draft(p, q), abs=1e-12)

    def test_marginal_preserved(self, rng):
        for _ in range(50):
            p, q = random_pq(rng, 4)
            marg = verifier_marginal_exact(
                p, DraftScheme.with_replacement(q, 1), OTSingleKernel(p, q)
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
            return mass if mass.sum() > 0.0 else np.ones(v)

        tuples = 0
        for i in range(240):
            v = int(rng.integers(2, 6))
            p = Dist(draw(v, i % 4))
            same = i % 5 == 0
            q = p if same else Dist(draw(v, (i // 4) % 4))
            support = q.support().size
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


class TestKseqSolve:
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

    def test_batch_shape(self):
        kern = KseqKernel(P559, Q532, 2)
        out = kern.sample([(0, 1), (2, 2), (1, 0)], np.random.default_rng(3))
        assert out.shape == (3,)
        assert ((0 <= out) & (out < 3)).all()


class TestGreedyVerify:
    def test_acceptance_includes_top_tokens(self):
        p = Dist(np.array([0.2, 0.3, 0.5]))
        kern = GreedyKernel(p, Q532, 2)
        # Last draft 1 is rejected half the time; the resampled token can be
        # the deterministic draft 0, which still counts as accepted.
        vec = kern.conditional((0, 1))
        assert vec[1] == pytest.approx(0.5)
        assert vec[0] == pytest.approx(0.5 * (0.2 / 0.3))
        assert vec[0] + vec[1] > vec[1]

    def test_hand_acceptance(self):
        p = Dist(np.array([0.2, 0.3, 0.5]))
        scheme = DraftScheme.greedy(Q532, 2)
        kern = GreedyKernel(p, Q532, 2)
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
            kern = GreedyKernel(p, q, n)
            closed = alpha_greedy_closed(p, q, n)
            assert enumerated_acceptance(scheme, kern) == pytest.approx(closed, abs=1e-9)
            assert subset_alpha(p, support_probs(scheme)) == pytest.approx(closed, abs=1e-9)

    def test_marginal_preserved(self, rng):
        for _ in range(50):
            v = int(rng.integers(2, 5))
            n = int(rng.integers(1, v + 1))
            p, q = random_pq(rng, v)
            marg = verifier_marginal_exact(
                p, DraftScheme.greedy(q, n), GreedyKernel(p, q, n)
            )
            assert tv_distance(marg, p) <= 1e-9

    def test_invalid_prefix_errors(self):
        with pytest.raises(ValueError, match="greedy top prefix"):
            GreedyKernel(P559, Q532, 2).sample([(0, 1), (1, 0)], np.random.default_rng(0))

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
            kern = GreedyKernel(p, q, n)
            for last in range(v):
                if in_top[last] or q.mass[last] <= 1e-12:
                    continue
                reject = max(1.0 - p.mass[last] * u / q.mass[last], 0.0)
                expect = reject * z / z.sum()
                expect[last] = min(p.mass[last] * u / q.mass[last], 1.0)
                got = kern.conditional(top + (last,))
                assert np.allclose(got, expect, atol=1e-9), (top, last)


class TestDeterminism:
    def test_same_seed_same_output(self):
        for make in (
            lambda: OTSingleKernel(P559, Q532),
            lambda: RrsWKernel(P559, Q532, 2),
            lambda: RrsWoKernel(P559, Q532, 2),
            lambda: KseqKernel(P559, Q532, 2),
            lambda: GreedyKernel(P559, Q532, 2),
        ):
            kern = make()
            t = [(0, 1), (0, 2)] if kern.tag != "ot-single" else [(1,), (2,)]
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
        for method, (kinds, _) in METHODS.items():
            for _ in range(self.INSTANCES):
                v = int(rng.integers(3, 5))
                n = 1 if method == "ot-single" else int(rng.integers(1, 4))
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
        assert tuples > 500
