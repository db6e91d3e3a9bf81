"""Distribution primitives: construction, softmax and the k most likely
tokens; and kseq's terminal, the residual these once held."""

import math

import numpy as np
import pytest

from mdsd.dists import (
    Dist,
    softmax_temp,
    top_k_desc,
    tv_distance,
)
from mdsd.verify import KseqKernel

from conftest import dirichlet_dist


class TestDist:
    def test_renormalizes_on_construction(self):
        d = Dist(np.array([2.0, 2.0]))
        assert np.allclose(d.mass, [0.5, 0.5])

    def test_mass_is_readonly(self):
        d = Dist(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.mass[0] = 1.0

    @pytest.mark.parametrize(
        "bad", [[], [-0.1, 1.1], [np.nan, 1.0], [np.inf, 0.0], [0.0, 0.0]]
    )
    def test_rejects_invalid_mass(self, bad):
        with pytest.raises(ValueError):
            Dist(np.asarray(bad, dtype=np.float64))

    @pytest.mark.parametrize(
        "bad, message",
        [
            pytest.param([np.nan, -1.0, 2.0], "mass must be finite", id="nan-and-negative"),
            pytest.param([np.inf, 1.0], "mass must be finite", id="plus-inf"),
            pytest.param([-np.inf, 1.0], "mass must be finite", id="minus-inf"),
            pytest.param([np.inf, -np.inf], "mass must be finite", id="both-infs"),
            pytest.param([1e308, 1e308, -1.0], "mass must be non-negative", id="overflow-and-negative"),
            pytest.param([-0.5, 1.0], "mass must be non-negative", id="negative"),
            pytest.param([0.0, 0.0], "has no mass", id="all-zeros"),
            pytest.param([1e-12, 0.0], "has no mass", id="zero-mass-total"),
        ],
    )
    def test_invalid_mass_message(self, bad, message):
        # Each input fails on the first of: finite, non-negative, some mass.
        with pytest.raises(ValueError, match=f"^distribution {message}$"):
            Dist(np.asarray(bad, dtype=np.float64))

    def test_helpers(self):
        assert np.allclose(Dist.uniform(4).mass, 0.25)
        assert Dist.one_hot(3, 2).mass[2] == 1.0

    def test_overflowing_total_normalises(self):
        # The finite masses sum to inf; they are scaled by the largest first,
        # with no RuntimeWarning (an error under this suite's settings).
        assert np.array_equal(Dist(np.array([1e308, 1e308, 0.0])).mass, [0.5, 0.5, 0.0])
        d = Dist(np.array([1.5e308, 1e308, 5e307]))
        assert np.allclose(d.mass, [0.5, 1 / 3, 1 / 6], rtol=1e-15, atol=0)

    def test_mass_below_the_smallest_normal_is_none(self):
        # Subnormal once normalised, as given or by the division: set to 0.
        tiny = np.finfo(np.float64).tiny
        assert np.array_equal(Dist(np.array([1.0, 5e-320, tiny, 0.0])).mass, [1.0, 0.0, tiny, 0.0])
        assert np.array_equal(Dist(np.array([1e300, 1e-10])).mass, [1.0, 0.0])

    def test_finite_total_keeps_its_bits(self, rng):
        for _ in range(20):
            arr = rng.random(7) * 10.0 ** rng.integers(-6, 300)
            assert np.array_equal(Dist(arr).mass, arr / arr.sum())


class TestSoftmaxTemp:
    def test_symmetric_logits(self):
        assert np.allclose(softmax_temp([0.0, 0.0, 0.0], 1.0).mass, 1 / 3)

    def test_zero_temperature_is_argmax(self):
        assert np.allclose(softmax_temp([5.0, 1.0, 1.0], 0.0).mass, [1, 0, 0])

    def test_zero_temperature_tie_breaks_low(self):
        assert np.allclose(softmax_temp([3.0, 3.0], 0.0).mass, [1, 0])

    def test_hand_value(self):
        assert np.allclose(softmax_temp([math.log(2), 0.0], 1.0).mass, [2 / 3, 1 / 3])

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty distribution"):
            softmax_temp([], 1.0)

    def test_negative_temperature_errors(self):
        with pytest.raises(ValueError):
            softmax_temp([0.0, 1.0], -0.5)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf])
    def test_non_finite_temperature_errors(self, temperature):
        # The CLI's rule and wording. At +inf a masked logit would give
        # -inf / inf, and NaN would surface as a mass error.
        for logits in ([0.0, 1.0], [0.0, 1.0, -math.inf]):
            with pytest.raises(ValueError, match=r"temperature must be finite and >= 0 \(got"):
                softmax_temp(logits, temperature)

    def test_tiny_temperature_does_not_overflow(self):
        # logits / 1e-310 overflow; the result is the argmax, ties shared.
        assert np.array_equal(softmax_temp([1.0, 0.0, -np.inf], 1e-310).mass, [1, 0, 0])
        assert np.array_equal(softmax_temp([2.0, 2.0, 1.0], 1e-310).mass, [0.5, 0.5, 0])
        assert np.array_equal(softmax_temp([-1.0, -2.0], 1e-310).mass, [1, 0])
        assert np.array_equal(softmax_temp([1e308, -1e308], 1e-300).mass, [1, 0])

    def test_working_temperature_keeps_its_bits(self, rng):
        # Every temperature whose quotient does not overflow takes the plain
        # path: divide, subtract the largest quotient, exponentiate.
        for temperature in (1e-3, 0.7, 1.0, 50.0):
            logits = rng.normal(size=9) * 5
            scaled = logits / temperature
            expect = np.exp(scaled - scaled.max())
            assert np.array_equal(softmax_temp(logits, temperature).mass, expect / expect.sum())

    def test_shift_invariance(self, rng):
        for _ in range(50):
            logits = rng.normal(size=8) * 5
            shift = rng.normal() * 10
            a = softmax_temp(logits, 0.7)
            b = softmax_temp(logits + shift, 0.7)
            assert tv_distance(a, b) <= 1e-12


def kseq_terminal(p: Dist, q: Dist, n: int):
    """`KseqKernel`'s rho and the terminal its stages give (None where it
    vanished), for a tuple of q's likeliest token."""
    kern = KseqKernel(p, q, n)
    _, _, final = kern._stages(np.full((1, n), int(q.mass.argmax())))
    return kern.params.rho, final


class TestResidualDist:
    """kseq's terminal, the normalised positive part of p - rho q, read
    from the residual table; None where it vanishes."""

    def test_single_positive_residual(self):
        p = Dist(np.array([0.6, 0.4]))
        q = Dist(np.array([0.4, 0.6]))
        for n in (1, 2, 3):
            assert np.array_equal(kseq_terminal(p, q, n)[1], [1.0, 0.0])

    def test_equal_terminal_vanishes(self):
        d = Dist(np.array([0.5, 0.5]))
        for n in (1, 2, 3):
            assert kseq_terminal(d, d, n)[1] is None

    def test_hand_value(self):
        p = Dist(np.array([0.5, 0.3, 0.2]))
        q = Dist(np.array([0.2, 0.5, 0.3]))
        for n in (1, 2, 3):
            assert np.array_equal(kseq_terminal(p, q, n)[1], [1.0, 0.0, 0.0])

    def test_always_valid_and_zero_where_q_dominates(self, rng):
        for _ in range(200):
            p = dirichlet_dist(rng, 6)
            q = dirichlet_dist(rng, 6)
            n = int(rng.integers(1, 4))
            rho, r = kseq_terminal(p, q, n)
            assert np.all(r >= 0)
            assert abs(r.sum() - 1.0) <= 1e-12
            assert np.all(r[rho * q.mass >= p.mass] == 0.0)


class TestTopK:
    def test_unique_maximum(self):
        assert top_k_desc(Dist(np.array([0.5, 0.3, 0.2])), 1) == (0,)

    def test_tie_breaks_low(self):
        assert top_k_desc(Dist(np.array([0.4, 0.4, 0.2])), 1) == (0,)

    def test_sorted_by_mass(self):
        assert top_k_desc(Dist(np.array([0.1, 0.2, 0.3, 0.4])), 2) == (3, 2)

    def test_desc_order(self):
        assert top_k_desc(Dist(np.array([0.1, 0.2, 0.3, 0.4])), 3) == (3, 2, 1)

    def test_nesting(self, rng):
        for _ in range(50):
            q = dirichlet_dist(rng, 8)
            for k in range(8):
                assert top_k_desc(q, k) == top_k_desc(q, k + 1)[:k]
        # Tie-heavy integer masses: every prefix is the full sort's prefix.
        mass = rng.integers(0, 40, size=3000).astype(float)
        q = Dist(mass)
        full = np.lexsort((np.arange(mass.size), -q.mass))
        for k in (0, 1, 7, 100, 2999, 3000):
            assert top_k_desc(q, k) == tuple(int(t) for t in full[:k])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_desc(Dist.uniform(3), 4)

