"""Draft schemes: tuple probabilities, samplers, and the convexity structure
of the closed-form subset masses that the prefix scan relies on."""

import itertools

import numpy as np
import pytest

from mdsd.dists import Dist
from mdsd.drafts import (
    DraftKind,
    DraftScheme,
    greedy_tail,
    iter_support,
    sample_tuples,
    tuple_prob,
)

from conftest import dirichlet_dist, kind_cases

Q532 = Dist(np.array([0.5, 0.3, 0.2]))


def all_schemes(q, n):
    """One scheme of every kind over the same base distribution."""
    cases = kind_cases(q.vocab_size, n, np.count_nonzero(q.mass))
    return [DraftScheme(kind, q, m) for kind, m in cases]


class TestSchemeValidation:
    def test_without_replacement_needs_support(self):
        q = Dist(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError):
            DraftScheme.without_replacement(q, 3)

    def test_greedy_needs_room_for_last_draft(self):
        with pytest.raises(ValueError):
            DraftScheme.greedy(Dist(np.array([0.5, 0.5])), 3)

    def test_draft_count_is_an_int(self):
        scheme = DraftScheme.without_replacement(Q532, np.int64(2))
        assert type(scheme.n) is int
        assert len(list(iter_support(scheme))) == 6
        for bad in (2.0, "2", None):
            with pytest.raises(ValueError, match="draft count must be an integer"):
                DraftScheme.with_replacement(Q532, bad)

    def test_kind_is_coerced(self):
        assert DraftScheme("greedy", Q532, 2).kind is DraftKind.GREEDY
        with pytest.raises(ValueError):
            DraftScheme("product", Q532, 2)


class TestTupleProb:
    def test_with_replacement(self):
        s = DraftScheme.with_replacement(Q532, 2)
        assert tuple_prob(s, (0, 1)) == pytest.approx(0.15)

    def test_without_replacement(self):
        s = DraftScheme.without_replacement(Q532, 2)
        assert tuple_prob(s, (0, 1)) == pytest.approx(0.3)
        assert tuple_prob(s, (1, 1)) == 0.0

    def test_greedy_off_prefix_is_zero(self):
        s = DraftScheme.greedy(Q532, 2)
        assert tuple_prob(s, (1, 0)) == 0.0
        assert tuple_prob(s, (0, 1)) == pytest.approx(0.6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tuple_prob(DraftScheme.with_replacement(Q532, 2), (0, 1, 2))

    # Near one-hot draft distributions, where the mass left after a draw
    # must not be found by subtraction; 5e-13 is below the 1e-12 zero-mass
    # threshold and still a token the sampler draws.
    NEAR_ONE_HOT = [
        (Dist(np.array([1.0, 2.687e-12])), 2),
        (Dist(np.array([1.0, 5e-13])), 2),
        (Dist(np.array([0.7, 0.3 - 3e-11, 3e-11])), 3),
    ]

    def random_cases(self, rng, count, max_vocab):
        for _ in range(count):
            v = int(rng.integers(2, max_vocab + 1))
            n = int(rng.integers(1, 4))
            yield dirichlet_dist(rng, v), n
        yield from self.NEAR_ONE_HOT

    def test_sums_to_one_all_schemes(self, rng):
        for q, n in self.random_cases(rng, 40, 6):
            v = q.vocab_size
            for scheme in all_schemes(q, n):
                total = sum(
                    tuple_prob(scheme, t)
                    for t in itertools.product(range(v), repeat=scheme.n)
                )
                assert total == pytest.approx(1.0, abs=1e-9), scheme.kind

    def test_support_iterator_matches(self, rng):
        for q, n in self.random_cases(rng, 20, 5):
            for scheme in all_schemes(q, n):
                support = list(iter_support(scheme))
                assert len(support) == len(set(support))
                total = sum(tuple_prob(scheme, t) for t in support)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_support_holds_tokens_below_zero_mass_threshold(self):
        # Tokens 3 and 4 carry less than 1e-12 each, yet the sampler draws
        # (2, 4) with probability 0.14: the support holds every token with
        # positive mass, in every scheme.
        q = Dist(np.array([0.0, 0.0, 1.0, 1.9e-12, 3e-13]))
        for scheme in all_schemes(q, 2):
            support = set(iter_support(scheme))
            assert sum(tuple_prob(scheme, t) for t in support) == pytest.approx(1.0, abs=1e-12)
            drawn = sample_tuples(scheme, 1000, np.random.default_rng(0))
            assert set(map(tuple, drawn.tolist())) <= support


class TestGreedyTail:
    def test_hand_value(self):
        top, tail = greedy_tail(Q532, 2)
        assert top == (0,)
        assert np.allclose(tail.mass, [0.0, 0.6, 0.4])

    def test_one_draft_is_identity(self):
        q = Dist.uniform(4)
        top, tail = greedy_tail(q, 1)
        assert top == ()
        assert np.array_equal(tail.mass, q.mass)

    def test_exhausted_rest_is_uniform(self):
        # The top tokens hold all of q's mass: the last draft is uniform
        # over the tokens that are not at the top.
        top, tail = greedy_tail(Dist(np.array([0.5, 0.5, 0.0, 0.0])), 3)
        assert top == (0, 1)
        assert np.array_equal(tail.mass, [0.0, 0.0, 0.5, 0.5])

    def test_proportional_on_complement(self, rng):
        for _ in range(100):
            q = dirichlet_dist(rng, 7)
            n = int(rng.integers(1, 7))
            top, tail = greedy_tail(q, n)
            assert (tail.mass[list(top)] == 0.0).all()
            kept = np.setdiff1d(np.arange(7), top)
            ratio = tail.mass[kept] / q.mass[kept]
            assert np.allclose(ratio, ratio[0])


class TestSamplers:
    N_DRAWS = 100_000

    def check_frequencies(self, scheme, draws):
        counts = {}
        for t in draws:
            counts[t] = counts.get(t, 0) + 1
        n_draws = len(draws)
        for t in itertools.product(range(scheme.vocab_size), repeat=scheme.n):
            prob = tuple_prob(scheme, t)
            freq = counts.pop(t, 0) / n_draws
            if prob == 0.0:
                assert freq == 0.0, f"off-support tuple {t} sampled"
            else:
                se = np.sqrt(prob * (1 - prob) / n_draws)
                assert abs(freq - prob) <= 4 * se + 1e-12, (t, freq, prob)
        assert not counts

    @pytest.mark.parametrize("kind", list(DraftKind), ids=lambda kind: kind.value)
    def test_batch_sampler_frequencies(self, kind):
        scheme = DraftScheme(kind, Q532, 2)
        rng = np.random.default_rng(12)
        arr = sample_tuples(scheme, self.N_DRAWS, rng)
        self.check_frequencies(scheme, [tuple(int(x) for x in row) for row in arr])
        one = sample_tuples(scheme, 1, rng)
        assert one.shape == (1, scheme.n)
        assert tuple_prob(scheme, one[0]) > 0.0

    def test_without_replacement_never_draws_a_subnormal_mass(self):
        # The third token's subnormal mass is no mass: three drafts exceed
        # the support, and two never draw it. Had it kept its mass, u * E
        # could round up to a subnormal undrawn total E and pick an empty run.
        q = Dist(np.array([0.6, 0.4, 5e-320]))
        with pytest.raises(ValueError, match="exceeds support size"):
            DraftScheme.without_replacement(q, 3)
        tuples = sample_tuples(DraftScheme.without_replacement(q, 2), 200_000, np.random.default_rng(3))
        assert not (tuples == 2).any() and (tuples[:, 0] != tuples[:, 1]).all()

    def test_draw_streams_are_pinned(self):
        # No benchmark workload samples greedy tuples, so this is what holds
        # their bytes: the top n - 1 tokens, then one `choice` from the rest
        # on the caller's generator. The random schemes' draws are pinned to
        # their values for this seed.
        q = Dist(np.array([0.1, 0.25, 0.05, 0.4, 0.2]))
        top, tail = greedy_tail(q, 3)
        drawn = sample_tuples(DraftScheme.greedy(q, 3), 6, np.random.default_rng(11))
        assert (drawn[:, :2] == top).all()
        assert (drawn[:, 2] == np.random.default_rng(11).choice(5, size=6, p=tail.mass)).all()
        pinned = {
            DraftKind.WITH_REPLACEMENT: [[1, 3, 3], [0, 1, 4], [0, 1, 4], [3, 2, 3]],
            DraftKind.WITHOUT_REPLACEMENT: [[0, 4, 3], [1, 3, 4], [3, 2, 4], [2, 4, 3]],
        }
        for kind, want in pinned.items():
            assert sample_tuples(DraftScheme(kind, q, 3), 4, np.random.default_rng(11)).tolist() == want

    def test_greedy_first_token_deterministic(self):
        scheme = DraftScheme.greedy(Q532, 2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = sample_tuples(scheme, 1, rng)[0]
            assert t[0] == 0

    def test_with_replacement_degenerate_q(self):
        q = Dist(np.array([0.0, 1.0, 0.0]))
        scheme = DraftScheme.with_replacement(q, 3)
        rng = np.random.default_rng(0)
        assert tuple(sample_tuples(scheme, 1, rng)[0]) == (1, 1, 1)

    def test_greedy_exhausted_top_falls_back_to_uniform(self):
        # Top token owns all the mass; the last draft becomes uniform over
        # the rest so sampling still works.
        q = Dist(np.array([1.0, 0.0, 0.0]))
        scheme = DraftScheme.greedy(q, 2)
        top, tail = greedy_tail(q, 2)
        assert top == (0,)
        assert np.allclose(tail.mass, [0.0, 0.5, 0.5])
        total = sum(
            tuple_prob(scheme, t) for t in itertools.product(range(3), repeat=2)
        )
        assert total == pytest.approx(1.0)

    def test_greedy_tiny_remainder_is_renormalised(self):
        # Only a remainder of exactly 0 falls back to uniform.
        q = Dist(np.array([1.0 - 3e-13, 1e-13, 2e-13]))
        top, tail = greedy_tail(q, 2)
        assert top == (0,)
        assert tail.mass == pytest.approx([0.0, 1 / 3, 2 / 3], abs=1e-12)


def closed_form_q(kind, q, n):
    """Q(H) as a function of a member list: q(H)**n with replacement, and
    e_n(q_H) / e_n(q) without (elementary symmetric sums by explicit
    combinations)."""
    if kind == "wr":
        return lambda members: float(q.mass[list(members)].sum()) ** n

    def esym(ids, k):
        return sum(
            float(np.prod([q.mass[i] for i in combo]))
            for combo in itertools.combinations(ids, k)
        )

    total = esym(range(q.vocab_size), n)
    return lambda members: esym(members, n) / total


class TestQConvexityStructure:
    """The ratio-order prefix scan is exact because both closed-form subset
    masses are q-convex and supermodular."""

    def marginal(self, q_of, members, x):
        return q_of(members + [x]) - q_of(members)

    @pytest.mark.parametrize("kind", ["wr", "wo"])
    def test_q_convexity(self, kind, rng):
        # Normalized marginal gains never decrease along an insertion order.
        for _ in range(150):
            v = int(rng.integers(3, 7))
            n = int(rng.integers(1, 4))
            q = dirichlet_dist(rng, v)
            q_of = closed_form_q(kind, q, n)
            ids = rng.permutation(v)
            x, y = int(ids[0]), int(ids[1])
            members = [int(i) for i in ids[2 : 2 + rng.integers(0, v - 1)]]
            lhs = self.marginal(q_of, members, x) / q.mass[x]
            rhs = self.marginal(q_of, members + [x], y) / q.mass[y]
            assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("kind", ["wr", "wo"])
    def test_supermodularity(self, kind, rng):
        for _ in range(150):
            v = int(rng.integers(3, 7))
            n = int(rng.integers(1, 4))
            q = dirichlet_dist(rng, v)
            q_of = closed_form_q(kind, q, n)
            ids = rng.permutation(v)
            x, y = int(ids[0]), int(ids[1])
            members = [int(i) for i in ids[2 : 2 + rng.integers(0, v - 1)]]
            assert self.marginal(q_of, members, x) <= (
                self.marginal(q_of, members + [y], x) + 1e-12
            )
