import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from influence_engine.population import (
    CampaignParams,
    PopulationParams,
    SyntheticPopulation,
    desk_registry,
    draw_campaign_population,
    generate_events,
    generate_labels,
    generate_population,
    generate_profiles,
    load_latent,
    run_campaign,
    student_t_tail,
    write_dataset,
)


SMALL = PopulationParams(n_users=120, label_pairs=150)


class TestGeneration:
    def test_latent_is_positive_and_lognormal_scale(self):
        pop = generate_population(SMALL, seed=5)
        values = np.array(list(pop.latent.values()))
        assert np.all(values > 0)
        # ln L ~ Normal(mu, sigma); the sample log-mean should sit near mu
        assert abs(np.mean(np.log(values)) - SMALL.lognormal_mu) < 0.5

    def test_audience_grows_with_latent(self):
        pop = generate_population(PopulationParams(n_users=400), seed=5)
        ordered = sorted(pop.users, key=lambda u: pop.latent[u])
        low = np.mean([len(pop.audiences[u]) for u in ordered[:100]])
        high = np.mean([len(pop.audiences[u]) for u in ordered[-100:]])
        assert high > 2 * low

    def test_every_user_belongs_somewhere(self):
        pop = generate_population(SMALL, seed=9)
        assert all(len(pop.memberships[u]) >= 1 for u in pop.users)
        assert all(u not in pop.audiences[u] for u in pop.users)

    def test_event_volume_tracks_configured_mean(self):
        params = PopulationParams(n_users=1000, label_pairs=10)
        pop = generate_population(params, seed=2)
        events = generate_events(pop)
        expected = params.n_users * params.mean_reactions_per_user
        assert abs(len(events) - expected) < 0.05 * expected

    def test_events_fall_inside_window(self):
        pop = generate_population(SMALL, seed=3)
        for e in generate_events(pop):
            assert pop.params.reference_time - 90 * 86400 < e.timestamp < pop.params.reference_time
            assert e.actor != e.author
            assert e.actor in pop.audiences[e.author]

    def test_profiles_report_audience_size(self):
        pop = generate_population(SMALL, seed=3)
        followers = {}
        for p in generate_profiles(pop):
            followers[p.user] = dict(p.numeric_attrs)["followers"]
        for u, count in followers.items():
            assert count == len(pop.audiences[u])

    def test_labels_respect_margin_gate_and_winner_rule(self):
        pop = generate_population(SMALL, seed=11)
        labels = generate_labels(pop)
        assert len(labels) == SMALL.label_pairs
        for lab in labels:
            la = pop.latent[lab.user_a]
            lb = pop.latent[lab.user_b]
            assert abs(math.log(la) - math.log(lb)) >= SMALL.label_margin_gate
            # flip rate 0: votes always point at the higher latent user
            winner_a = lab.votes_a > lab.votes_b
            assert winner_a == (la > lb)

    def test_flip_rate_reverses_roughly_that_many(self):
        params = PopulationParams(n_users=300, label_pairs=1000, label_flip_rate=0.2)
        pop = generate_population(params, seed=11)
        labels = generate_labels(pop)
        wrong = sum(
            1
            for lab in labels
            if (lab.votes_a > lab.votes_b)
            != (pop.latent[lab.user_a] > pop.latent[lab.user_b])
        )
        assert abs(wrong / len(labels) - 0.2) < 0.05


class TestDeterminism:
    def test_same_seed_same_dataset_bytes(self, tmp_path):
        for run in ("a", "b"):
            write_dataset(generate_population(SMALL, seed=21), tmp_path / run)
        for name in ("events.txt", "profiles.txt", "edges.txt", "labels.txt",
                     "latent.txt", "registry.json", "tree.json", "population.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_different_events(self, tmp_path):
        a = write_dataset(generate_population(SMALL, seed=1), tmp_path / "a")
        b = write_dataset(generate_population(SMALL, seed=2), tmp_path / "b")
        assert (a / "events.txt").read_bytes() != (b / "events.txt").read_bytes()

    def test_latent_file_round_trip(self, tmp_path):
        pop = generate_population(SMALL, seed=21)
        out = write_dataset(pop, tmp_path / "d")
        assert load_latent(out / "latent.txt") == pop.latent


class TestCampaign:
    def scores_from_latent(self, pop, lo=10.0, hi=80.0):
        # ideal scores: a monotone map of latent influence into [lo, hi]
        ordered = sorted(pop.users, key=lambda u: pop.latent[u])
        n = len(ordered)
        return {u: lo + (hi - lo) * i / (n - 1) for i, u in enumerate(ordered)}

    def test_reaction_rate_rises_with_score(self):
        pop = generate_population(PopulationParams(n_users=2000, label_pairs=10), seed=6)
        result = run_campaign(pop, self.scores_from_latent(pop), CampaignParams(), seed=6)
        assert result.monotone_fraction >= 0.8
        assert result.slope > 0
        assert result.p_one_sided < 0.05
        assert len(result.bins) == 7

    def test_order_of_users_is_irrelevant(self):
        pop = generate_population(PopulationParams(n_users=500, label_pairs=10), seed=6)
        scores = self.scores_from_latent(pop)
        base = run_campaign(pop, scores, CampaignParams(), seed=4)
        again = run_campaign(pop, scores, CampaignParams(), seed=4)
        assert base.records == again.records
        assert base.bins == again.bins

    def test_unscored_and_out_of_range_users_excluded(self):
        pop = generate_population(SMALL, seed=6)
        scores = {u: 95.0 for u in pop.users[:30]}
        scores[pop.users[30]] = 50.0
        result = run_campaign(pop, scores, CampaignParams(), seed=1)
        assert len(result.records) == 1
        assert result.records[0][0] == pop.users[30]

    def test_null_model_shows_no_trend(self):
        # scores assigned independently of latent: slope should be ~0
        pop = generate_population(PopulationParams(n_users=2000, label_pairs=10), seed=8)
        rng = np.random.default_rng(8)
        scores = {u: float(rng.uniform(10, 80)) for u in pop.users}
        result = run_campaign(pop, scores, CampaignParams(), seed=8)
        assert result.p_one_sided > 0.01

    def test_post_rate_near_configured_probability(self):
        pop = generate_population(PopulationParams(n_users=3000, label_pairs=10), seed=9)
        result = run_campaign(pop, self.scores_from_latent(pop), CampaignParams(), seed=9)
        posted = sum(1 for r in result.records if r[2])
        assert abs(posted / len(result.records) - 0.25) < 0.03

    def test_report_lines_shape(self):
        pop = generate_population(SMALL, seed=10)
        result = run_campaign(pop, self.scores_from_latent(pop), CampaignParams(), seed=10)
        lines = result.report_lines()
        assert lines[0].startswith("campaign\t")
        assert len(lines) == 1 + len(result.bins)

    def test_flat_campaign_reports_no_trend(self):
        # every user posts, every audience member reacts and every audience
        # has three members, so each bin's mean is exactly 3 reactions
        users = tuple(f"u{i:02d}" for i in range(35))
        pop = SyntheticPopulation(
            params=PopulationParams(n_users=len(users)),
            seed=0,
            users=users,
            latent={u: 1.0 for u in users},
            audiences={u: ("x", "y", "z") for u in users},
            memberships={u: ("tw",) for u in users},
        )
        scores = {u: 10.0 + 2.0 * i for i, u in enumerate(users)}
        params = CampaignParams(post_prob=1.0, logistic_center=-1000.0)
        result = run_campaign(pop, scores, params, seed=3)
        assert {b.mean_reactions for b in result.bins} == {3.0}
        assert result.slope == 0.0
        assert result.p_one_sided == 1.0
        assert "nan" not in result.report_lines()[0]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_fit_matches_scipy_linregress(self, seed):
        stats = pytest.importorskip("scipy.stats")
        pop = generate_population(PopulationParams(n_users=600, label_pairs=10), seed=seed)
        # odd seeds score by latent rank (upward trend), even seeds at random
        if seed % 2:
            scores = self.scores_from_latent(pop)
        else:
            rng = np.random.default_rng(seed)
            scores = {u: float(rng.uniform(10, 80)) for u in pop.users}
        result = run_campaign(pop, scores, CampaignParams(), seed=seed)
        loggable = [b for b in result.bins if b.log_mean is not None]
        fit = stats.linregress([(b.lo + b.hi) / 2 for b in loggable], [b.log_mean for b in loggable])
        assert result.slope == fit.slope
        expected_p = fit.pvalue / 2 if fit.slope > 0 else 1 - fit.pvalue / 2
        assert result.p_one_sided == pytest.approx(expected_p, rel=1e-12)


class TestStudentTail:
    @pytest.mark.parametrize("t", [0.0, 1e-12, 1e-8, 1e-4, 0.3, 1.0, 2.5, 40.0, 100.0])
    def test_closed_forms_for_one_and_two_degrees_of_freedom(self, t):
        assert student_t_tail(t, 1) == pytest.approx(0.5 - math.atan(t) / math.pi, rel=1e-13)
        assert student_t_tail(t, 2) == pytest.approx(0.5 - t / (2 * math.sqrt(2 + t * t)), rel=1e-13)

    def test_matches_scipy_stdtr(self):
        special = pytest.importorskip("scipy.special")
        # stdtr itself loses precision for t below about 1e-6 (3e-9 relative
        # at t = 1e-8 against the df = 1 closed form), so small t is left to
        # the closed-form test above
        ts = np.linspace(0.0, 100.0, 401)
        for df in range(1, 61):
            expected = special.stdtr(df, -ts)
            got = np.array([student_t_tail(float(t), df) for t in ts])
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestRegistryShape:
    def test_desk_registry_is_compact(self):
        registry = desk_registry(("tw", "fb"))
        # 3 cohorts x 7 windows x 2 content x 3 actions = 126 dynamic keys
        assert len(registry.dynamic_keys("tw")) == 126
        assert set(registry.networks) == {"tw", "fb"}


class TestCampaignDraw:
    """``draw_campaign_population`` draws what ``run_campaign`` reads of
    ``generate_population``'s population, without sampling an audience."""

    @given(
        n_users=st.integers(min_value=2, max_value=40),
        mean_audience=st.one_of(st.sampled_from([0.5, 2.5, 3.5]), st.floats(min_value=0.1, max_value=60)),
        max_audience=st.integers(min_value=1, max_value=60),  # below and above n - 1
        sigma=st.sampled_from([0.0, 1.0, 2.0]),  # 0: every level alike, so 2.5 rounds at .5
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_the_draw_is_generate_populations(self, n_users, mean_audience, max_audience, sigma, seed):
        params = PopulationParams(
            n_users=n_users, mean_audience=mean_audience, max_audience=max_audience, lognormal_sigma=sigma
        )
        pop = generate_population(params, seed)
        drawn = draw_campaign_population(params, seed)
        assert drawn.users == pop.users
        assert drawn.latent == pop.latent
        sizes = tuple(len(pop.audiences[u]) for u in pop.users)
        assert drawn.audience_sizes == pop.audience_sizes == sizes
        # the one formula, with Python's round (to even at .5)
        mean = float(np.mean(list(pop.latent.values())))
        assert sizes == tuple(
            max(1, min(round(mean_audience * pop.latent[u] / mean), max_audience, n_users - 1)) for u in pop.users
        )
        scores = {u: 10.0 + 70.0 * i / (n_users - 1) for i, u in enumerate(sorted(pop.users, key=pop.latent.get))}
        assert run_campaign(drawn, scores, CampaignParams(post_prob=0.9), seed) == run_campaign(
            pop, scores, CampaignParams(post_prob=0.9), seed
        )

    def test_a_ratio_of_one_half_rounds_to_even(self):
        # eight equal levels: each level is the mean, so 2.5 and 3.5 audiences are exact
        for mean_audience, size in ((2.5, 2), (3.5, 4), (0.5, 1)):
            params = PopulationParams(n_users=8, mean_audience=mean_audience, lognormal_sigma=0.0)
            assert draw_campaign_population(params, seed=1).audience_sizes == (size,) * 8

    @pytest.mark.parametrize("n_users", [0, 1])
    def test_fewer_than_two_users_are_refused(self, n_users):
        params = PopulationParams(n_users=n_users)
        for draw in (generate_population, draw_campaign_population):
            with pytest.raises(ValueError, match="at least 2 users"):
                draw(params, 3)
