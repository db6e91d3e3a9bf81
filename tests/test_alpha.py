"""Optimal acceptance rate solvers against hand values, the float subset
brute force and the exact rational oracle."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from mdsd.alpha import (
    alpha_greedy_closed,
    alpha_scan,
    alpha_single_draft,
    ratio_order,
    residual_table,
)
from mdsd.dists import Dist, softmax_temp
from mdsd.drafts import DraftKind, DraftScheme
from mdsd.oracle import RationalScheme, alpha_subset_exact

from conftest import (
    conditional_poisson_probs,
    dirichlet_dist,
    grid_dist,
    grid_fracs,
    grid_weights,
    subset_alpha,
    support_probs,
)

P631 = Dist(np.array([0.6, 0.3, 0.1]))
Q253 = Dist(np.array([0.2, 0.5, 0.3]))
P559 = Dist(np.array([0.05, 0.05, 0.9]))
Q532 = Dist(np.array([0.5, 0.3, 0.2]))


def random_case(rng, max_vocab=8, max_n=3):
    v = int(rng.integers(2, max_vocab + 1))
    n = int(rng.integers(1, max_n + 1))
    p = dirichlet_dist(rng, v)
    q = dirichlet_dist(rng, v)
    return v, n, p, q


class TestAlphaSingleDraft:
    def test_identical(self):
        assert alpha_single_draft(Q253, Q253) == 1.0

    def test_hand_value(self):
        assert alpha_single_draft(P631, Q253) == pytest.approx(0.6)

    def test_disjoint_supports(self):
        p = Dist(np.array([1.0, 0.0]))
        q = Dist(np.array([0.0, 1.0]))
        assert alpha_single_draft(p, q) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            alpha_single_draft(Dist(np.array([1.0])), Q253)


class TestRatioOrder:
    def test_hand_order(self):
        assert list(ratio_order(P631, Q253)[0]) == [2, 1, 0]

    def test_ties_break_by_id(self):
        assert list(ratio_order(Q253, Q253)[0]) == [0, 1, 2]

    def test_zero_target_mass_leads(self):
        p = Dist(np.array([0.5, 0.5, 0.0]))
        assert ratio_order(p, Q532)[0][0] == 2

    def test_joint_zero_mass_leads(self):
        p = Dist(np.array([0.5, 0.5, 0.0]))
        q = Dist(np.array([0.5, 0.5, 0.0]))
        assert ratio_order(p, q)[0][0] == 2

    def test_matches_stable_lexsort_on_ties(self, rng):
        # Integer masses in 0..3 tie often, and zeros give ratio 0 (p = 0),
        # +inf (q = 0) and -1 (both): the unstable sort must still break
        # every tie by id.
        for _ in range(300):
            v = int(rng.integers(2, 40))
            wp = grid_weights(rng, v, 3 * v)
            wq = grid_weights(rng, v, 3 * v)
            p, q = grid_dist(wp), grid_dist(wq)
            pm, qm = p.mass, q.mass
            ratio = np.divide(pm, qm, out=np.where(pm > 0.0, np.inf, -1.0), where=qm > 0.0)
            want = np.lexsort((np.arange(v), ratio))
            order, ratios = ratio_order(p, q)
            assert (order == want).all()
            assert (ratios == ratio[want]).all()

    def test_read_only_and_kept_for_the_last_pair(self):
        # One sort serves every reader of a pair, so none may write to it:
        # the residual table keeps it for the last pair.
        order, ratios = ratio_order(P631, Q253)
        assert not order.flags.writeable and not ratios.flags.writeable
        with pytest.raises(ValueError):
            order[0] = 1
        table = residual_table(P631, Q253)
        hits = residual_table.cache_info().hits
        assert residual_table(P631, Q253).order is table.order
        assert residual_table.cache_info().hits == hits + 1
        assert not table.order.flags.writeable and not table.ratios.flags.writeable


class TestAlphaScan:
    def test_with_replacement_hand_case(self):
        res = alpha_scan(P631, DraftScheme.with_replacement(Q253, 2))
        assert res.alpha_star == pytest.approx(0.76, abs=1e-12)
        assert res.argmin_prefix_len == 2
        assert res.f_values[2] == pytest.approx(-0.24, abs=1e-12)
        assert set(res.ordering[:2]) == {1, 2}

    def test_with_replacement_second_case(self):
        res = alpha_scan(P559, DraftScheme.with_replacement(Q532, 2))
        assert res.alpha_star == pytest.approx(0.46, abs=1e-12)

    def test_without_replacement_hand_case(self):
        res = alpha_scan(P559, DraftScheme.without_replacement(Q532, 2))
        assert res.alpha_star == pytest.approx(1.0 + 0.1 - 0.15 / 0.31, abs=1e-12)

    def test_structural_invariants(self, rng):
        for _ in range(50):
            v, n, p, q = random_case(rng)
            schemes = [DraftScheme.with_replacement(q, n)]
            if np.count_nonzero(q.mass) >= n:
                schemes.append(DraftScheme.without_replacement(q, n))
            for scheme in schemes:
                res = alpha_scan(p, scheme)
                min_f = res.f_values[res.argmin_prefix_len]
                assert min_f == res.f_values.min() <= 0.0
                assert res.alpha_star == pytest.approx(1.0 + min_f)
                assert res.f_values[0] == 0.0
                assert res.f_values[-1] == pytest.approx(0.0, abs=1e-9)
                assert res.f_values.size == v + 1
                assert sorted(res.ordering) == list(range(v))

    def test_rejects_greedy(self):
        # The greedy optimum has its closed form, alpha_greedy_closed.
        with pytest.raises(ValueError, match="no prefix scan for greedy"):
            alpha_scan(P631, DraftScheme.greedy(Q253, 2))


class TestScanMatchesBruteForce:
    """The prefix scan and the greedy closed form must agree with optima
    computed by full subset enumeration."""

    N_INSTANCES = 1000

    def test_all_fast_schemes(self):
        # With replacement against the scheme's own draft law; without
        # replacement against the conditional-Poisson law, whose subset mass
        # is the scan's coefficient ratio.
        rng = np.random.default_rng(5150)
        checked = 0
        for _ in range(self.N_INSTANCES):
            v, n, p, q = random_case(rng)
            laws = [(DraftScheme.with_replacement(q, n), None)]
            if np.count_nonzero(q.mass) >= n:
                laws.append(
                    (
                        DraftScheme.without_replacement(q, n),
                        conditional_poisson_probs(q.mass, n),
                    )
                )
            for scheme, probs in laws:
                fast = alpha_scan(p, scheme).alpha_star
                slow = subset_alpha(p, probs or support_probs(scheme))
                assert fast == pytest.approx(slow, abs=1e-9), scheme.kind
                checked += 1
        assert checked >= self.N_INSTANCES

    def test_without_replacement_tiny_masses(self):
        # Eight tokens of mass e^-138.6 each: the product of any seven
        # underflows, so W_8 does too unless the scan rescales it. Against
        # the conditional-Poisson law of the same q in exact rationals.
        p = softmax_temp(np.array([0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 0.7)
        q = softmax_temp(np.array([0.0] + [-97.0] * 8), 0.7)
        law = conditional_poisson_probs([Fraction(x) for x in q.mass], 8)
        fast = alpha_scan(p, DraftScheme.without_replacement(q, 8)).alpha_star
        assert fast == pytest.approx(subset_alpha(p, law), abs=1e-12)
        assert fast < 0.9

    def test_greedy_closed_form(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            v = int(rng.integers(2, 9))
            n = min(int(rng.integers(1, 4)), v)
            denom = int(rng.integers(5, 30))
            wp = grid_weights(rng, v, denom)
            wq = grid_weights(rng, v, denom)
            exact = alpha_subset_exact(
                grid_fracs(wp), RationalScheme(DraftKind.GREEDY, grid_fracs(wq), n)
            )
            closed = alpha_greedy_closed(grid_dist(wp), grid_dist(wq), n)
            assert closed == pytest.approx(float(exact), abs=1e-9)

    def test_adversarial_greedy_ordering(self):
        # The deterministic top token sits last in the plain mass-ratio
        # order; the optimum must still be found.
        wp, wq = [30, 1, 18, 1], [6, 5, 5, 4]
        assert ratio_order(grid_dist(wp), grid_dist(wq))[0][-1] == 0
        exact = alpha_subset_exact(
            grid_fracs(wp), RationalScheme(DraftKind.GREEDY, grid_fracs(wq), 2)
        )
        closed = alpha_greedy_closed(grid_dist(wp), grid_dist(wq), 2)
        assert closed == pytest.approx(float(exact), abs=1e-12)


class TestAlphaGreedyClosed:
    def test_hand_value(self):
        p = Dist(np.array([0.2, 0.3, 0.5]))
        assert alpha_greedy_closed(p, Q532, 2) == pytest.approx(0.9)

    def test_n1_reduces_to_single_draft(self, rng):
        for _ in range(50):
            p = dirichlet_dist(rng, 5)
            q = dirichlet_dist(rng, 5)
            assert alpha_greedy_closed(p, q, 1) == pytest.approx(
                alpha_single_draft(p, q), abs=1e-12
            )

    def test_target_inside_deterministic_drafts(self):
        p = Dist(np.array([1.0, 0.0, 0.0]))
        assert alpha_greedy_closed(p, Q532, 2) == pytest.approx(1.0)

    def test_at_most_one_when_drafts_cover_everything(self):
        # n = V: the top n-1 tokens plus the last draft cover the vocabulary,
        # so the sum of the two terms is 1 up to rounding; unclamped it is
        # 1 + 2.2e-16 here.
        p = Dist(np.array([
            0.0018461445471135488, 0.07125627228747278, 0.03129149798233222,
            0.0460139284165736, 0.1310106947947761, 0.7185814619717319,
        ]))
        q = Dist(np.array([
            0.0012886980304085364, 0.28212011367733625, 0.05888961732470188,
            0.5919415879517816, 0.001692937834746239, 0.06406704518102543,
        ]))
        assert alpha_greedy_closed(p, q, 6) == 1.0

    def test_no_token_left_for_the_last_draft(self):
        # n - 1 = V: the greedy scheme's own check, not a 0/0 rate of 1.
        with pytest.raises(ValueError) as scheme_err:
            DraftScheme.greedy(Q532, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as closed_err:
                alpha_greedy_closed(P631, Q532, 4)
        assert str(closed_err.value) == str(scheme_err.value)

    def test_tiny_remainder_is_not_exhausted(self):
        # The top token leaves 3e-13 of q's mass: the last draft is drawn
        # from that rest renormalised, (0, 1/3, 2/3), however small it is,
        # so the optimum is 1/2 + 1/3, not the 1 of a uniform last draft.
        q_exact = (1 - Fraction(3, 10**13), Fraction(1, 10**13), Fraction(2, 10**13))
        p_exact = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        exact = alpha_subset_exact(p_exact, RationalScheme(DraftKind.GREEDY, q_exact, 2))
        assert exact == pytest.approx(5 / 6, abs=1e-12)
        p, q = (Dist(np.array([float(x) for x in d])) for d in (p_exact, q_exact))
        assert alpha_greedy_closed(p, q, 2) == pytest.approx(float(exact), abs=1e-12)


class TestOrderingProperties:
    def test_monotone_in_draft_count(self, rng):
        for _ in range(100):
            v = int(rng.integers(2, 8))
            p = dirichlet_dist(rng, v)
            q = dirichlet_dist(rng, v)
            prev = 0.0
            for n in range(1, 5):
                cur = alpha_scan(p, DraftScheme.with_replacement(q, n)).alpha_star
                assert cur >= prev - 1e-12
                prev = cur

    def test_at_least_single_draft_rate(self, rng):
        for _ in range(100):
            v, n, p, q = random_case(rng)
            lo = alpha_single_draft(p, q)
            for scheme in (
                DraftScheme.with_replacement(q, n),
                DraftScheme.without_replacement(q, n)
                if np.count_nonzero(q.mass) >= n
                else None,
            ):
                if scheme is None:
                    continue
                a = alpha_scan(p, scheme).alpha_star
                assert lo - 1e-9 <= a <= 1.0 + 1e-12


class TestPairwiseDraftSpecialCase:
    """For two drafts with replacement the optimum can be written as a
    single minimization of P(H) + q(not H)^2 + 2 q(H) q(not H); check it
    against the scan."""

    def quoted_min(self, p, q):
        v = p.vocab_size
        best = np.inf
        for mask in range(1 << v):
            members = [i for i in range(v) if mask >> i & 1]
            ph = float(p.mass[members].sum())
            qh = float(q.mass[members].sum())
            best = min(best, ph + (1 - qh) ** 2 + 2 * qh * (1 - qh))
        return best

    def test_matches_scan(self, rng):
        for _ in range(200):
            v = int(rng.integers(2, 8))
            p = dirichlet_dist(rng, v)
            q = dirichlet_dist(rng, v)
            scan = alpha_scan(p, DraftScheme.with_replacement(q, 2)).alpha_star
            assert scan == pytest.approx(self.quoted_min(p, q), abs=1e-9)
