"""Exact rational oracles: transport LP value via max flow, subset
enumeration, and the sequential without-replacement subset mass."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from mdsd.alpha import alpha_scan
from mdsd.dists import Dist
from mdsd.drafts import DraftKind, DraftScheme
from mdsd.oracle import (
    RationalScheme,
    alpha_maxflow,
    alpha_subset_exact,
    q_sequential_exact,
    rational_dist,
    tuple_probs_exact,
)

from conftest import conditional_poisson_probs, grid_dist, grid_fracs, grid_weights, kind_cases

Q532 = rational_dist([5, 3, 2])


def random_grid_case(rng, max_vocab=6, max_n=3):
    v = int(rng.integers(2, max_vocab + 1))
    n = int(rng.integers(1, max_n + 1))
    denom = int(rng.integers(5, 30))
    wp = grid_weights(rng, v, denom)
    wq = grid_weights(rng, v, denom, min_positive=min(v, max_n))
    return v, n, wp, wq


class TestRationalDist:
    def test_normalizes(self):
        assert rational_dist([1, 3]) == (Fraction(1, 4), Fraction(3, 4))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            rational_dist([0, 0])
        with pytest.raises(ValueError):
            rational_dist([-1, 2])


class TestTupleProbsExact:
    def test_matches_float_tuple_probs(self, rng):
        from mdsd.drafts import tuple_prob

        for _ in range(25):
            v, n, wp, wq = random_grid_case(rng)
            q_frac = grid_fracs(wq)
            q_dist = grid_dist(wq)
            pairs = [
                (RationalScheme(kind, q_frac, m), DraftScheme(kind, q_dist, m))
                for kind, m in kind_cases(v, n, np.count_nonzero(wq))
            ]
            for rat, flo in pairs:
                probs = tuple_probs_exact(rat)
                assert sum(probs.values()) == 1
                for t, pr in probs.items():
                    assert float(pr) == pytest.approx(tuple_prob(flo, t), abs=1e-12)

    def test_guard(self):
        q = rational_dist([1] * 30)
        with pytest.raises(ValueError, match="too large"):
            tuple_probs_exact(RationalScheme(DraftKind.WITH_REPLACEMENT, q, 4))


class TestAlphaMaxflow:
    def test_identity_transport(self):
        s = RationalScheme(DraftKind.WITH_REPLACEMENT, Q532, 1)
        assert alpha_maxflow(Q532, s) == 1

    def test_hand_case(self):
        p = rational_dist([6, 3, 1])
        q = rational_dist([2, 5, 3])
        s = RationalScheme(DraftKind.WITH_REPLACEMENT, q, 2)
        assert alpha_maxflow(p, s) == Fraction(19, 25)

    def test_one_hot_target(self):
        p = rational_dist([1, 0, 0])
        q = rational_dist([2, 1, 1])
        s = RationalScheme(DraftKind.WITH_REPLACEMENT, q, 2)
        assert alpha_maxflow(p, s) == Fraction(3, 4)

    def test_order_invariance(self, rng):
        p = rational_dist([6, 3, 1])
        q = rational_dist([2, 5, 3])
        s = RationalScheme(DraftKind.WITH_REPLACEMENT, q, 2)
        probs = tuple_probs_exact(s)
        base = alpha_maxflow(p, s, probs)
        items = list(probs.items())
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(len(items))
            shuffled = {items[i][0]: items[i][1] for i in order}
            assert alpha_maxflow(p, s, shuffled) == base


class TestDualityTriangle:
    """Max flow (primal LP) and subset enumeration (integral dual) must agree
    exactly, and the float fast paths must match to 1e-9."""

    def test_all_schemes_exact(self, rng):
        for _ in range(60):
            v, n, wp, wq = random_grid_case(rng)
            p = grid_fracs(wp)
            q = grid_fracs(wq)
            schemes = [RationalScheme(kind, q, m) for kind, m in kind_cases(v, n, np.count_nonzero(wq))]
            for s in schemes:
                assert alpha_maxflow(p, s) == alpha_subset_exact(p, s), s.kind

    def test_fast_paths_match_rational(self, rng):
        for _ in range(40):
            v, n, wp, wq = random_grid_case(rng)
            p_f, q_f = grid_fracs(wp), grid_fracs(wq)
            p_d, q_d = grid_dist(wp), grid_dist(wq)
            exact = alpha_maxflow(p_f, RationalScheme(DraftKind.WITH_REPLACEMENT, q_f, n))
            fast = alpha_scan(p_d, DraftScheme.with_replacement(q_d, n)).alpha_star
            assert fast == pytest.approx(float(exact), abs=1e-9)


class TestQSequentialExact:
    def test_whole_vocab_is_one(self):
        assert q_sequential_exact(Q532, [0, 1, 2], 2) == 1

    def test_hand_value(self):
        got = q_sequential_exact(Q532, [0, 1], 2)
        assert got == Fraction(3, 10) + Fraction(15, 100) / Fraction(7, 10)
        assert got == Fraction(18, 35)

    def test_single_draw(self):
        assert q_sequential_exact(Q532, [0, 2], 1) == Fraction(7, 10)

    def test_float_route_matches(self):
        q = Dist(np.array([0.5, 0.3, 0.2]))
        assert q_sequential_exact(q, [0, 1], 2) == pytest.approx(18 / 35)

    def test_float_route_near_one_hot(self):
        # Two large masses and two tiny ones: the mass left after the large
        # draws must be summed, not found by subtracting them from 1.
        q = Dist(np.array([9.3e-5, 0.483, 1.7e-10, 0.517]))
        exact = [Fraction(float(x)) for x in q.mass]
        exact = [x / sum(exact) for x in exact]
        for size in range(1, 5):
            for members in itertools.combinations(range(4), size):
                for n in range(1, 5):
                    want = float(q_sequential_exact(exact, members, n))
                    assert q_sequential_exact(q, members, n) == pytest.approx(want, abs=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError, match="too large"):
            q_sequential_exact(rational_dist([1] * 12), range(11), 2)
        with pytest.raises(ValueError, match="too large"):
            q_sequential_exact(Q532, [0, 1], 5)
        with pytest.raises(ValueError, match="support"):
            q_sequential_exact(rational_dist([1, 1, 0]), [0, 1, 2], 3)

    def test_matches_enumerated_tuple_probs(self, rng):
        for _ in range(25):
            v, n, wp, wq = random_grid_case(rng)
            if sum(1 for w in wq if w > 0) < n:
                continue
            q = grid_fracs(wq)
            s = RationalScheme(DraftKind.WITHOUT_REPLACEMENT, q, n)
            probs = tuple_probs_exact(s)
            members = sorted(
                int(i) for i in rng.permutation(v)[: rng.integers(1, v + 1)]
            )
            via_tuples = sum(
                pr for t, pr in probs.items() if set(t) <= set(members)
            )
            assert q_sequential_exact(q, members, n) == via_tuples


class TestWithoutReplacementDuality:
    """Sequential tuple probabilities close the LP duality loop for the
    sampler's draft law, while the scan's coefficient-ratio Q is the subset
    mass of conditional Poisson sampling, a different law; the two subset
    masses are reported side by side, never asserted equal."""

    def test_maxflow_equals_sequential_subset(self, rng):
        for _ in range(40):
            v, n, wp, wq = random_grid_case(rng)
            if sum(1 for w in wq if w > 0) < n:
                continue
            p, q = grid_fracs(wp), grid_fracs(wq)
            s = RationalScheme(DraftKind.WITHOUT_REPLACEMENT, q, n)
            assert alpha_maxflow(p, s) == alpha_subset_exact(p, s)

    def test_scan_matches_ratio_bruteforce(self, rng):
        # The exact LP over the conditional-Poisson law, P(S) ∝ prod q_i,
        # is the optimum for the coefficient-ratio Q.
        for _ in range(40):
            v, n, wp, wq = random_grid_case(rng)
            if sum(1 for w in wq if w > 0) < n:
                continue
            q_f = grid_fracs(wq)
            exact = alpha_maxflow(
                grid_fracs(wp),
                RationalScheme(DraftKind.WITHOUT_REPLACEMENT, q_f, n),
                tuple_probs=conditional_poisson_probs(q_f, n),
            )
            scheme = DraftScheme.without_replacement(grid_dist(wq), n)
            assert alpha_scan(grid_dist(wp), scheme).alpha_star == pytest.approx(
                float(exact), abs=1e-9
            )

    def test_known_divergence_between_q_variants(self, capsys):
        # q = (0.5, 0.3, 0.2), H = {0, 1}, n = 2: sequential mass 18/35
        # versus coefficient ratio 15/31. Both are legitimate readings of
        # "all drafts land in H" and they genuinely differ.
        seq = q_sequential_exact(Q532, [0, 1], 2)
        ratio = sum(
            pr
            for s, pr in conditional_poisson_probs(Q532, 2).items()
            if set(s) <= {0, 1}
        )
        # The scan's prefix Q matches: p puts tokens 0 and 1 first in the
        # ratio order, so its length-2 prefix is H.
        p = Dist(np.array([0.1, 0.3, 0.6]))
        q = Dist(np.array([0.5, 0.3, 0.2]))
        res = alpha_scan(p, DraftScheme.without_replacement(q, 2))
        assert list(res.ordering[:2]) == [0, 1]
        assert 0.4 - res.f_values[2] == pytest.approx(15 / 31, abs=1e-12)
        assert seq == Fraction(18, 35)
        assert ratio == Fraction(15, 31)
        assert abs(seq - ratio) > Fraction(3, 100)
        print(
            f"\nwithout-replacement Q variants on q=(.5,.3,.2), H={{0,1}}, n=2: "
            f"sequential={float(seq):.6f} coefficient-ratio={float(ratio):.6f}"
        )
