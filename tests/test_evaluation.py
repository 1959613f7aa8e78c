import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from influence_engine.evaluation import (
    ReferenceRanking,
    average_ranks,
    dcg,
    load_reference,
    ndcg,
    order_by_external_scores,
    rank_correlation,
    relevance_assignment,
)

from oracles import brute_ndcg


def ref(*entities, name="ref"):
    return ReferenceRanking(name=name, ordered_entities=tuple(entities))


class TestRelevance:
    def test_top_entity_gets_p(self):
        rel = relevance_assignment(ref("a", "b", "c", "d"), p=4)
        assert rel == {"a": 4.0, "b": 2.0, "c": 4.0 / 3.0, "d": 1.0}

    def test_cutoff_bounds_checked(self):
        with pytest.raises(ValueError):
            relevance_assignment(ref("a", "b"), p=0)
        with pytest.raises(ValueError):
            relevance_assignment(ref("a", "b"), p=3)

    def test_duplicate_entities_rejected(self):
        with pytest.raises(ValueError):
            ref("a", "a")


class TestDCG:
    def test_hand_value_two_positions(self):
        # 3/1 + 1/log2(3)
        value = dcg([2.0, 1.0], p=2)
        assert math.isclose(value, 3.0 + 1.0 / math.log2(3.0), rel_tol=1e-12)
        assert abs(value - 3.63093) < 1e-5

    def test_single_position_has_no_discount(self):
        assert dcg([3.0], p=1) == 7.0

    def test_zero_relevance_contributes_nothing(self):
        assert dcg([0.0, 0.0, 5.0], p=2) == 0.0

    def test_needs_enough_values(self):
        with pytest.raises(ValueError):
            dcg([1.0], p=2)


class TestNDCG:
    def test_identity_order_is_one(self):
        reference = ref("a", "b", "c", "d", "e")
        assert math.isclose(ndcg(reference, ["a", "b", "c", "d", "e"], p=5), 1.0, rel_tol=1e-12)

    def test_swap_hand_value(self):
        reference = ref("a", "b")
        value = ndcg(reference, ["b", "a"], p=2)
        ideal = 3.0 + 1.0 / math.log2(3.0)
        swapped = 1.0 + 3.0 / math.log2(3.0)
        assert math.isclose(value, swapped / ideal, rel_tol=1e-12)
        assert abs(value - 0.79671) < 1e-5

    def test_worse_order_scores_lower(self):
        reference = ref("a", "b", "c", "d")
        near = ndcg(reference, ["a", "b", "d", "c"], p=4)
        far = ndcg(reference, ["d", "c", "b", "a"], p=4)
        assert far < near < 1.0

    def test_missing_entity_fatal(self):
        with pytest.raises(ValueError, match="missing"):
            ndcg(ref("a", "b"), ["a"], p=2)

    def test_unknown_entity_fatal(self):
        with pytest.raises(ValueError):
            ndcg(ref("a", "b"), ["a", "b", "zz"], p=2)

    def test_below_cutoff_permutation_invariance(self):
        reference = ref(*[f"e{i}" for i in range(12)])
        base = [f"e{i}" for i in range(12)]
        shuffled_tail = base[:5] + base[5:][::-1]
        assert math.isclose(
            ndcg(reference, base, p=5), ndcg(reference, shuffled_tail, p=5), rel_tol=1e-12
        )

    def test_matches_independent_oracle_on_random_rankings(self):
        rng = random.Random(99)
        for _ in range(150):
            n = rng.randint(2, 20)
            entities = [f"e{i}" for i in range(n)]
            reference = ref(*entities)
            order = entities[:]
            rng.shuffle(order)
            p = rng.randint(1, n)
            assert math.isclose(
                ndcg(reference, order, p), brute_ndcg(entities, order, p), rel_tol=1e-12
            )


class TestCelebrityFixtures:
    # External top-10 lists scored by an independent service; the service's
    # published scores should reproduce the list orderings well but not
    # perfectly, since the lists rank by domain merit, not online influence.

    def fixture_ndcg(self, data_dir, stem):
        reference = load_reference(data_dir / f"{stem}.txt")
        order = order_by_external_scores(reference)
        return ndcg(reference, order, p=len(reference.ordered_entities))

    def test_tennis_list_agreement(self, data_dir):
        value = self.fixture_ndcg(data_dir, "atp_ranking")
        assert 0.5 < value <= 1.0

    def test_power_list_agreement(self, data_dir):
        value = self.fixture_ndcg(data_dir, "forbes_ranking")
        assert 0.5 < value <= 1.0

    def test_fixture_files_well_formed(self, data_dir):
        for stem in ("atp_ranking", "forbes_ranking"):
            reference = load_reference(data_dir / f"{stem}.txt")
            assert len(reference.ordered_entities) == 10
            assert all(s is not None for s in reference.external_scores)

    def test_contiguity_enforced(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("1\ta\t5.0\n3\tb\t4.0\n")
        with pytest.raises(ValueError, match="contiguous"):
            load_reference(path)


class TestRankCorrelation:
    def test_perfect_agreement(self):
        scores = {f"u{i}": float(i) for i in range(20)}
        latent = {f"u{i}": float(i) * 10.0 for i in range(20)}
        assert rank_correlation(scores, latent) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        scores = {f"u{i}": float(i) for i in range(20)}
        latent = {f"u{i}": float(-i) for i in range(20)}
        assert rank_correlation(scores, latent) == pytest.approx(-1.0)

    def test_only_shared_users_counted(self):
        scores = {f"u{i}": float(i) for i in range(15)}
        latent = {f"u{i}": float(i) for i in range(5, 25)}
        assert rank_correlation(scores, latent) == pytest.approx(1.0)

    def test_too_few_users_refused(self):
        small = {f"u{i}": float(i) for i in range(9)}
        with pytest.raises(ValueError, match="at least 10"):
            rank_correlation(small, small)

    def test_constant_side_or_nan_value_is_nan(self):
        scores = {f"u{i}": 50.0 for i in range(12)}
        latent = {f"u{i}": float(i) for i in range(12)}
        assert math.isnan(rank_correlation(scores, latent))
        assert math.isnan(rank_correlation(latent, scores))
        assert math.isnan(rank_correlation(latent, {**latent, "u3": math.nan}))
        assert math.isnan(rank_correlation({**latent, "u3": 3.0, "u4": 3.0, "u5": math.nan}, latent))


# scipy is the reference for the rank statistics, in the test extra only
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
distinct_values = st.lists(finite, min_size=1, max_size=60, unique=True)
tied_values = st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 1e-300, 3.0, 7.25]), min_size=1, max_size=60)
paired_with_ties = st.integers(min_value=10, max_value=60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n),
        st.lists(finite, min_size=n, max_size=n),
    )
)


class TestScipyParity:
    @given(values=st.one_of(distinct_values, tied_values))
    def test_average_ranks_equal_rankdata_bit_for_bit(self, values):
        stats = pytest.importorskip("scipy.stats")
        expected = stats.rankdata(values)
        got = average_ranks(values)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @given(pair=paired_with_ties)
    def test_ties_branch_matches_spearmanr(self, pair):
        stats = pytest.importorskip("scipy.stats")
        a, b = pair
        assume(len(set(a)) > 1 and len(set(b)) > 1)  # constant sides are pinned above
        users = [f"u{i}" for i in range(len(a))]
        rho = rank_correlation(dict(zip(users, a)), dict(zip(users, b)))
        assert rho == pytest.approx(stats.spearmanr(a, b).statistic, rel=0, abs=1e-14)
