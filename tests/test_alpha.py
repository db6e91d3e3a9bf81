"""Optimal acceptance rate solvers against hand values and the subset
brute force."""

import itertools

import numpy as np
import pytest

from mdsd.alpha import (
    alpha_bruteforce,
    alpha_greedy_closed,
    alpha_scan,
    alpha_single_draft,
    ratio_order,
    subset_q_fn,
)
from mdsd.dists import Dist
from mdsd.drafts import DraftScheme

from conftest import dirichlet_dist

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
        assert list(ratio_order(P631, Q253)) == [2, 1, 0]

    def test_ties_break_by_id(self):
        assert list(ratio_order(Q253, Q253)) == [0, 1, 2]

    def test_zero_target_mass_leads(self):
        p = Dist(np.array([0.5, 0.5, 0.0]))
        assert list(ratio_order(p, Q532))[0] == 2

    def test_joint_zero_mass_leads(self):
        p = Dist(np.array([0.5, 0.5, 0.0]))
        q = Dist(np.array([0.5, 0.5, 0.0]))
        assert list(ratio_order(p, q))[0] == 2


class TestAlphaScan:
    def test_with_replacement_hand_case(self):
        res = alpha_scan(P631, DraftScheme.with_replacement(Q253, 2))
        assert res.alpha_star == pytest.approx(0.76, abs=1e-12)
        assert res.min_f == pytest.approx(-0.24, abs=1e-12)
        assert res.argmin_prefix_len == 2
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
            schemes = [
                DraftScheme.with_replacement(q, n),
                DraftScheme.greedy(q, min(n, v)),
            ]
            if q.support().size >= n:
                schemes.append(DraftScheme.without_replacement(q, n))
            for scheme in schemes:
                res = alpha_scan(p, scheme)
                assert res.alpha_star == pytest.approx(1.0 + res.min_f)
                assert res.min_f <= 0.0
                assert res.f_values[0] == 0.0
                assert res.f_values[-1] == pytest.approx(0.0, abs=1e-9)
                assert res.f_values.size == v + 1
                assert sorted(res.ordering) == list(range(v))

    def test_rejects_product_and_spechub(self):
        with pytest.raises(ValueError):
            alpha_scan(P631, DraftScheme.product([Q253, Q253]))
        with pytest.raises(ValueError):
            alpha_scan(P631, DraftScheme.spechub(Q253))


class TestScanMatchesBruteForce:
    """The prefix scan must agree with full subset enumeration."""

    N_INSTANCES = 1000

    def test_all_fast_schemes(self):
        rng = np.random.default_rng(5150)
        checked = 0
        for _ in range(self.N_INSTANCES):
            v, n, p, q = random_case(rng)
            schemes = [
                DraftScheme.with_replacement(q, n),
                DraftScheme.greedy(q, min(n, v)),
            ]
            if q.support().size >= n:
                schemes.append(DraftScheme.without_replacement(q, n))
            for scheme in schemes:
                fast = alpha_scan(p, scheme).alpha_star
                slow = alpha_bruteforce(p, subset_q_fn(scheme))
                assert fast == pytest.approx(slow, abs=1e-9), scheme.kind
                checked += 1
        assert checked >= 2 * self.N_INSTANCES

    def test_greedy_closed_form(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            v, n, p, q = random_case(rng)
            n = min(n, v)
            scheme = DraftScheme.greedy(q, n)
            closed = alpha_greedy_closed(p, q, n)
            assert closed == pytest.approx(
                alpha_bruteforce(p, subset_q_fn(scheme)), abs=1e-9
            )

    def test_adversarial_greedy_ordering(self):
        # Top tokens can sit low in the plain mass-ratio order; the scan must
        # still find the optimum.
        p = Dist(np.array([0.6, 0.02, 0.36, 0.02]))
        q = Dist(np.array([0.3, 0.25, 0.25, 0.2]))
        scheme = DraftScheme.greedy(q, 2)
        res = alpha_scan(p, scheme)
        assert res.alpha_star == pytest.approx(
            alpha_bruteforce(p, subset_q_fn(scheme)), abs=1e-12
        )
        assert res.alpha_star == pytest.approx(alpha_greedy_closed(p, q, 2), abs=1e-12)


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


class TestAlphaBruteForce:
    def test_empty_set_bound(self, rng):
        for _ in range(20):
            v, n, p, q = random_case(rng, max_vocab=5)
            scheme = DraftScheme.with_replacement(q, n)
            assert alpha_bruteforce(p, subset_q_fn(scheme)) <= 1.0 + 1e-12

    def test_degenerate_one_hot(self):
        p = Dist(np.array([1.0, 0.0]))
        scheme = DraftScheme.with_replacement(p, 2)
        assert alpha_bruteforce(p, subset_q_fn(scheme)) == pytest.approx(1.0)

    def test_vocab_guard(self):
        p = Dist.uniform(21)
        with pytest.raises(ValueError, match="brute force"):
            alpha_bruteforce(p, lambda h: 0.0)


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
                if q.support().size >= n
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
