import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as sps

from aloha_noma import estimator
from aloha_noma.estimator import (
    HypothesisConfig,
    MonteCarloEstimation,
    _estimation_round,
    _first_draw,
    _frame_rejections,
    _rejections,
    _statistic_window,
    bonferroni_threshold,
    estimate_active_count,
    monte_carlo_estimation,
    p_value_from_statistic,
    prior_config_probability,
    simulate_estimation_round,
)


def config(m=50, alpha=0.05, mean_signal=5.0, noise_sigma=1.0, **kw):
    return HypothesisConfig(m, alpha, mean_signal, noise_sigma, **kw)


class TestPriorConfigProbability:
    def test_all_active_at_zero_alpha_limit(self):
        assert prior_config_probability(5, 5, 0.0) == 1.0

    def test_direct_substitution(self):
        assert prior_config_probability(2, 3, 0.5) == pytest.approx(0.125)
        assert prior_config_probability(0, 4, 0.5) == pytest.approx(0.0625)

    def test_rejects_count_above_population(self):
        with pytest.raises(ValueError):
            prior_config_probability(4, 3, 0.5)

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValueError):
            prior_config_probability(1, 3, 1.5)
        with pytest.raises(ValueError):
            prior_config_probability(1, 3, -0.1)


class TestBonferroniThreshold:
    def test_divides_level_across_hypotheses(self):
        assert bonferroni_threshold(0.05, 10) == pytest.approx(0.005)

    def test_single_hypothesis_keeps_level(self):
        assert bonferroni_threshold(0.05, 1) == 0.05

    def test_rejects_degenerate_level(self):
        with pytest.raises(ValueError):
            bonferroni_threshold(0.0, 5)
        with pytest.raises(ValueError):
            bonferroni_threshold(1.0, 5)


class TestPValueFromStatistic:
    def test_null_median(self):
        assert p_value_from_statistic(0.0, 1.0) == 0.5

    def test_tail_limit(self):
        assert p_value_from_statistic(math.inf, 1.0) == 0.0

    def test_standard_tail_against_numeric_integration(self):
        grid = np.linspace(1.645, 40.0, 400001)
        density = np.exp(-0.5 * grid * grid) / math.sqrt(2.0 * math.pi)
        oracle = float(np.trapezoid(density, grid))
        assert p_value_from_statistic(1.645, 1.0) == pytest.approx(oracle, abs=1e-9)
        assert p_value_from_statistic(1.645, 1.0) == pytest.approx(0.05, abs=1e-3)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            p_value_from_statistic(1.0, 0.0)

    @given(st.floats(min_value=-50.0, max_value=50.0), st.floats(min_value=-50.0, max_value=50.0))
    def test_monotone_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert p_value_from_statistic(hi, 2.0) <= p_value_from_statistic(lo, 2.0)


class TestEstimateActiveCount:
    def test_silence_detects_nothing(self):
        outcome = estimate_active_count([0.0] * 50, config())
        assert outcome.estimated_count == 0
        assert outcome.rejected == frozenset()

    def test_noiseless_separation(self):
        for k in (1, 3, 7):
            stats = [100.0] * k + [0.0] * (50 - k)
            outcome = estimate_active_count(stats, config())
            assert outcome.estimated_count == k
            assert outcome.rejected == frozenset(range(k))

    def test_threshold_is_inclusive(self):
        # statistic 0 has p exactly 0.5; alpha/M = 0.5 must reject it
        cfg = config(m=1, alpha=0.5)
        outcome = estimate_active_count([0.0], cfg)
        assert outcome.rejected == frozenset({0})

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            estimate_active_count([0.0] * 49, config())

    @given(
        st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=5, max_size=5),
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_raising_a_statistic_never_drops_the_count(self, stats, idx, bump):
        cfg = config(m=5, alpha=0.2)
        before = estimate_active_count(stats, cfg).estimated_count
        raised = list(stats)
        raised[idx] += bump
        after = estimate_active_count(raised, cfg).estimated_count
        assert after >= before


class TestSimulateEstimationRound:
    def test_deterministic_per_seed(self):
        cfg = config()
        first = simulate_estimation_round({1, 4, 9}, cfg, seed=123)
        second = simulate_estimation_round({1, 4, 9}, cfg, seed=123)
        assert first == second

    def test_overwhelming_signal_detects_everyone(self):
        cfg = config(m=20, mean_signal=10.0)
        outcome = simulate_estimation_round(range(20), cfg, seed=0)
        assert outcome.estimated_count == 20

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            simulate_estimation_round({50}, config(), seed=0)

    def test_matches_single_trial_monte_carlo(self):
        cfg = config()
        outcome = simulate_estimation_round({2, 5}, cfg, seed=99)
        mc = monte_carlo_estimation({2, 5}, cfg, trials=1, seed=99)
        assert mc.mean_estimate == outcome.estimated_count

    @settings(deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.one_of(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=200)),
        st.floats(min_value=1e-6, max_value=1e6),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3)),
    )
    # the statistic 0.22898892177819868 lies on this rule's threshold, where
    # math.erfc and scipy's erfc once decided it differently
    @example(0.4094387632619908, 1, 1.0, 0.0)
    def test_decisions_near_threshold_match_monte_carlo(self, alpha, m, sigma, mean):
        cfg = config(m=m, alpha=alpha, noise_sigma=sigma)
        lower, upper = draw_window(mean, cfg)
        draws = np.array(neighbours(lower, 8) + neighbours(upper, 8))
        decided = _rejections(draws[:, None], np.array([mean]), cfg)[:, 0]
        for draw, rejects in zip(draws.tolist(), decided.tolist()):
            # the statistic as simulate_estimation_round forms it
            statistics = mean + sigma * np.full(m, draw)
            assert estimate_active_count(statistics, cfg).estimated_count == (m if rejects else 0)


@st.composite
def estimation_rounds(draw):
    """A config with M in 1..200, an active subset in random order and a seed."""
    m = draw(st.integers(min_value=1, max_value=200))
    signal = st.floats(min_value=1e-3, max_value=1e3)
    cfg = HypothesisConfig(
        m,
        draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
        draw(signal),
        draw(st.floats(min_value=1e-3, max_value=1e3)),
        draw(st.none() | st.tuples(*[signal] * m)),
    )
    active = draw(st.lists(st.integers(min_value=0, max_value=m - 1), unique=True))
    return cfg, active, draw(st.integers(min_value=0, max_value=2**63 - 1))


class TestEstimationKernel:
    @settings(deadline=None)
    @given(estimation_rounds())
    def test_decides_as_the_round_and_the_count(self, round_):
        cfg, active, seed = round_
        p_values, rejected = _estimation_round(active, cfg, seed)
        assert rejected.shape == (cfg.m,) and rejected.dtype == bool
        flagged = frozenset(np.flatnonzero(rejected).tolist())
        outcome = simulate_estimation_round(active, cfg, seed)
        assert flagged == outcome.rejected
        assert tuple(p_values.tolist()) == outcome.p_values
        # the statistics as the round formed them from an M-long mask
        mask = np.zeros(cfg.m, dtype=bool)
        mask[active] = True
        means = np.where(mask, cfg.signal_means(), 0.0)
        statistics = means + cfg.noise_sigma * np.random.default_rng(seed).standard_normal(cfg.m)
        counted = estimate_active_count(statistics, cfg)
        assert flagged == counted.rejected
        assert tuple(p_values.tolist()) == counted.p_values


class TestFrameKernel:
    @settings(deadline=None)
    @given(estimation_rounds())
    # levels where scipy's erfc is not monotone in its last bit at the
    # threshold, so the draw windows are non-empty and the round decides
    @example((config(m=2, alpha=0.19, mean_signal=1.0), [1], 7))
    @example((config(m=5, alpha=0.47, mean_signal=2.0), [0, 3, 4], 2**40))
    @example((config(m=8, alpha=0.71, mean_signal=0.5), [], 11))
    def test_decides_as_the_round(self, round_):
        cfg, active, seed = round_
        rejected = _frame_rejections(active, cfg, seed)
        assert rejected.shape == (cfg.m,) and rejected.dtype == bool
        np.testing.assert_array_equal(rejected, _estimation_round(active, cfg, seed)[1])

    @pytest.mark.parametrize(
        "alpha, m, mean", [(0.05, 50, 5.0), (0.19, 2, 1.0), (0.47, 5, 2.0), (0.71, 8, 0.5)]
    )
    def test_only_empty_windows_are_decided_on_draws(self, alpha, m, mean):
        # a non-empty window leaves the frame on the p-value rule of the round
        cfg = config(m=m, alpha=alpha, mean_signal=mean)
        silent, signal = draw_window(0.0, cfg), draw_window(mean, cfg)
        empty = silent[0] == silent[1] and signal[0] == signal[1]
        expected = (silent[1], signal[1]) if empty else None
        assert estimator._frame_window(cfg) == expected
        assert empty == (alpha == 0.05)

    def test_unboundable_window_takes_the_round(self, monkeypatch):
        def unbounded(config):
            raise RuntimeError("p-value rule flips too far from its threshold")

        monkeypatch.setattr(estimator, "_statistic_window", unbounded)
        estimator._frame_window.cache_clear()
        try:
            cfg = config(m=20, alpha=0.3, mean_signal=2.0)
            for seed in range(20):
                np.testing.assert_array_equal(
                    _frame_rejections([1, 4, 19], cfg, seed),
                    _estimation_round([1, 4, 19], cfg, seed)[1],
                )
        finally:
            estimator._frame_window.cache_clear()


class TestMonteCarloEstimation:
    def test_fwer_bounded_under_all_null(self):
        cfg = config()
        trials = 100_000
        mc = monte_carlo_estimation([], cfg, trials, seed=31)
        exact = 1.0 - (1.0 - cfg.alpha / cfg.m) ** cfg.m
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        assert mc.fwer <= cfg.alpha + 3.0 * math.sqrt(cfg.alpha * (1 - cfg.alpha) / trials)
        assert mc.fwer == pytest.approx(exact, abs=4.0 * sigma)
        assert math.isnan(mc.power)

    def test_mean_estimate_matches_gaussian_tail_oracle(self):
        # ten active at E = 5 sigma among fifty: expected count is
        # 10 * P(N(5,1) above the Bonferroni z) + 40 * (alpha / M)
        cfg = config()
        threshold_z = float(sps.norm.isf(cfg.alpha / cfg.m))
        detect = float(sps.norm.sf(threshold_z - 5.0))
        oracle = 10.0 * detect + 40.0 * (cfg.alpha / cfg.m)
        trials = 20_000
        mc = monte_carlo_estimation(range(10), cfg, trials, seed=77)
        spread = math.sqrt(
            (10.0 * detect * (1 - detect) + 40.0 * 0.001 * 0.999) / trials
        )
        assert mc.mean_estimate == pytest.approx(oracle, abs=4.0 * spread)
        assert mc.power == pytest.approx(detect, abs=0.01)

    def test_high_snr_power(self):
        cfg = config(mean_signal=10.0)
        mc = monte_carlo_estimation(range(10), cfg, 20_000, seed=4)
        assert mc.power >= 0.999

    def test_per_device_override_changes_detectability(self):
        strong = tuple([10.0] * 5 + [1e-3] * 5)
        cfg = config(m=10, per_device_signal=strong)
        mc = monte_carlo_estimation(range(10), cfg, 2_000, seed=8)
        assert 4.5 <= mc.mean_estimate <= 5.5


class TestHypothesisConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"mean_signal": 0.0},
            {"noise_sigma": -1.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = {"m": 10, "alpha": 0.05, "mean_signal": 1.0, "noise_sigma": 1.0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            HypothesisConfig(**base)

    def test_rejects_mismatched_override_length(self):
        with pytest.raises(ValueError):
            config(m=3, per_device_signal=(1.0, 2.0))


# shipped configs/estimator_bench.json, one estimator-bench run
SHIPPED_TRIALS, SHIPPED_SEED = 20000, 7
MC = MonteCarloEstimation
nan = math.nan


class TestMonteCarloPinned:
    """Exact results of the p-value rule the estimator used to evaluate per draw."""

    # (M, alpha, snr, null run, active run) in estimator-bench row order
    CELLS = [
        (1, 0.01, 3.0, MC(trials=20000, fwer=0.0092, power=nan, mean_estimate=0.0092, mean_abs_error=0.0092), MC(trials=20000, fwer=0.0, power=0.7504, mean_estimate=0.7504, mean_abs_error=0.2496)),
        (1, 0.01, 5.0, MC(trials=20000, fwer=0.0104, power=nan, mean_estimate=0.0104, mean_abs_error=0.0104), MC(trials=20000, fwer=0.0, power=0.9957, mean_estimate=0.9957, mean_abs_error=0.0043)),
        (1, 0.01, 10.0, MC(trials=20000, fwer=0.01065, power=nan, mean_estimate=0.01065, mean_abs_error=0.01065), MC(trials=20000, fwer=0.0, power=1.0, mean_estimate=1.0, mean_abs_error=0.0)),
        (1, 0.05, 3.0, MC(trials=20000, fwer=0.04885, power=nan, mean_estimate=0.04885, mean_abs_error=0.04885), MC(trials=20000, fwer=0.0, power=0.91495, mean_estimate=0.91495, mean_abs_error=0.08505)),
        (1, 0.05, 5.0, MC(trials=20000, fwer=0.05155, power=nan, mean_estimate=0.05155, mean_abs_error=0.05155), MC(trials=20000, fwer=0.0, power=0.9997, mean_estimate=0.9997, mean_abs_error=0.0003)),
        (1, 0.05, 10.0, MC(trials=20000, fwer=0.05155, power=nan, mean_estimate=0.05155, mean_abs_error=0.05155), MC(trials=20000, fwer=0.0, power=1.0, mean_estimate=1.0, mean_abs_error=0.0)),
        (10, 0.01, 3.0, MC(trials=20000, fwer=0.0113, power=nan, mean_estimate=0.0113, mean_abs_error=0.0113), MC(trials=20000, fwer=0.00805, power=0.468875, mean_estimate=0.9458, mean_abs_error=1.0577)),
        (10, 0.01, 5.0, MC(trials=20000, fwer=0.0108, power=nan, mean_estimate=0.0108, mean_abs_error=0.0108), MC(trials=20000, fwer=0.0087, power=0.9725, mean_estimate=1.95375, mean_abs_error=0.06315)),
        (10, 0.01, 10.0, MC(trials=20000, fwer=0.0089, power=nan, mean_estimate=0.0089, mean_abs_error=0.0089), MC(trials=20000, fwer=0.0078, power=1.0, mean_estimate=2.00785, mean_abs_error=0.00785)),
        (10, 0.05, 3.0, MC(trials=20000, fwer=0.0501, power=nan, mean_estimate=0.0514, mean_abs_error=0.0514), MC(trials=20000, fwer=0.03845, power=0.66355, mean_estimate=1.36585, mean_abs_error=0.66905)),
        (10, 0.05, 5.0, MC(trials=20000, fwer=0.04865, power=nan, mean_estimate=0.04945, mean_abs_error=0.04945), MC(trials=20000, fwer=0.03635, power=0.993, mean_estimate=2.02295, mean_abs_error=0.04985)),
        (10, 0.05, 10.0, MC(trials=20000, fwer=0.0483, power=nan, mean_estimate=0.04945, mean_abs_error=0.04945), MC(trials=20000, fwer=0.03755, power=1.0, mean_estimate=2.0384, mean_abs_error=0.0384)),
        (50, 0.01, 3.0, MC(trials=20000, fwer=0.00935, power=nan, mean_estimate=0.00935, mean_abs_error=0.00935), MC(trials=20000, fwer=0.00865, power=0.293515, mean_estimate=2.94385, mean_abs_error=7.05615)),
        (50, 0.01, 5.0, MC(trials=20000, fwer=0.0093, power=nan, mean_estimate=0.00935, mean_abs_error=0.00935), MC(trials=20000, fwer=0.00715, power=0.927135, mean_estimate=9.27855, mean_abs_error=0.72735)),
        (50, 0.01, 10.0, MC(trials=20000, fwer=0.0103, power=nan, mean_estimate=0.0103, mean_abs_error=0.0103), MC(trials=20000, fwer=0.0073, power=1.0, mean_estimate=10.00735, mean_abs_error=0.00735)),
        (50, 0.05, 3.0, MC(trials=20000, fwer=0.04785, power=nan, mean_estimate=0.0493, mean_abs_error=0.0493), MC(trials=20000, fwer=0.04165, power=0.46375, mean_estimate=4.6799, mean_abs_error=5.3203)),
        (50, 0.05, 5.0, MC(trials=20000, fwer=0.04595, power=nan, mean_estimate=0.04695, mean_abs_error=0.04695), MC(trials=20000, fwer=0.03705, power=0.97155, mean_estimate=9.7536, mean_abs_error=0.3022)),
        (50, 0.05, 10.0, MC(trials=20000, fwer=0.0503, power=nan, mean_estimate=0.0516, mean_abs_error=0.0516), MC(trials=20000, fwer=0.0392, power=1.0, mean_estimate=10.03995, mean_abs_error=0.03995)),
    ]

    def test_shipped_cells(self):
        for row, (m, alpha, snr, null, active) in enumerate(self.CELLS):
            cfg = config(m=m, alpha=alpha, mean_signal=snr)
            k = max(1, round(0.2 * m))
            seed = SHIPPED_SEED + 2 * row
            assert repr(monte_carlo_estimation([], cfg, SHIPPED_TRIALS, seed)) == repr(null)
            got = monte_carlo_estimation(range(k), cfg, SHIPPED_TRIALS, seed + 1)
            assert repr(got) == repr(active)

    def test_per_device_signal(self):
        cfg = config(m=8, per_device_signal=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
        got = monte_carlo_estimation([0, 2, 3, 5, 7], cfg, 5000, seed=11)
        assert repr(got) == repr(MC(trials=5000, fwer=0.016, power=0.7422, mean_estimate=3.727, mean_abs_error=1.275))

    def test_noise_sigma_other_than_one(self):
        cfg = config(m=20, alpha=0.03, mean_signal=1.5, noise_sigma=0.37)
        got = monte_carlo_estimation(range(4), cfg, 5000, seed=5)
        assert repr(got) == repr(MC(trials=5000, fwer=0.0254, power=0.8592, mean_estimate=3.4626, mean_abs_error=0.5674))


def single_draw_estimation(true_active, cfg, trials, seed):
    """The Monte Carlo as one trials x M draw decided by ``_rejections``."""
    mask = np.zeros(cfg.m, dtype=bool)
    mask[list(true_active)] = True
    means = np.where(mask, cfg.signal_means(), 0.0)
    draws = np.random.default_rng(seed).standard_normal((trials, cfg.m))
    rejected = _rejections(draws, means, cfg)
    counts = np.count_nonzero(rejected, axis=1)
    true_count = int(mask.sum())
    detections = int(np.count_nonzero(rejected, axis=0)[mask].sum())
    return MonteCarloEstimation(
        trials=trials,
        fwer=int(np.count_nonzero(rejected[:, ~mask].any(axis=1))) / trials,
        power=detections / (trials * true_count) if true_count else math.nan,
        mean_estimate=float(counts.mean()),
        mean_abs_error=float(np.abs(counts - true_count).mean()),
    )


class TestMonteCarloBlocks:
    """The Monte Carlo draws its stream in blocks; the results must not
    depend on where the blocks split it."""

    @pytest.mark.parametrize(
        "cfg, active",
        [
            (config(m=7), [0, 3]),
            (config(m=7, alpha=0.3, per_device_signal=(1.0, 2.0, 3.0, 0.5, 4.0, 1.5, 2.5)), [1, 2, 6]),
            # a level where scipy's erfc is not monotone: the draw window is not empty
            (config(m=3, alpha=0.4191443221358243, mean_signal=1.0, noise_sigma=2.0), [1]),
            (config(m=7), []),
            # every device active: with no null column the FWER comes from
            # the trials whose rejection count differs from their detections
            (config(m=7), list(range(7))),
        ],
    )
    def test_blocks_match_one_draw(self, cfg, active):
        rows = estimator._BLOCK_DRAWS // cfg.m
        assert estimator._BLOCK_DRAWS % cfg.m != 0
        trials = 3 * rows + 5
        got = monte_carlo_estimation(active, cfg, trials, seed=21)
        assert repr(got) == repr(single_draw_estimation(active, cfg, trials, 21))

    def test_m_above_the_block_draws_one_row_per_block(self):
        cfg = config(m=estimator._BLOCK_DRAWS + 3)
        got = monte_carlo_estimation(range(5), cfg, 3, seed=4)
        assert repr(got) == repr(single_draw_estimation(range(5), cfg, 3, 4))

    def test_memory_is_bounded_by_the_block(self):
        # one 200000 x 50 draw would hold 80 MB of normals alone
        tracemalloc.start()
        try:
            monte_carlo_estimation(range(10), config(m=50), 200_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def p_value_rule(z, mean, cfg):
    """The Monte Carlo's former per-draw decision, elementwise."""
    statistics = mean + cfg.noise_sigma * np.asarray(z, dtype=float)
    scaled = statistics / (cfg.noise_sigma * math.sqrt(2.0))
    return 0.5 * special.erfc(scaled) <= bonferroni_threshold(cfg.alpha, cfg.m)


def draw_window(mean, cfg):
    """Draws bounding where a column with this mean needs the rule itself."""
    return tuple(_first_draw(x, mean, cfg.noise_sigma) for x in _statistic_window(cfg))


def neighbours(x, count=64):
    """x and its ``count`` nearest floats on each side."""
    out = [x]
    up = down = x
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


class TestDrawWindow:
    @settings(deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        # small M more often: its level alpha / M can reach the statistics
        # below 1 where scipy's erfc is not monotone in its last bit
        st.one_of(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=200)),
        st.floats(min_value=1e-6, max_value=1e6),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3)),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_window_rule_matches_p_value_rule(self, alpha, m, sigma, mean, seed):
        cfg = config(m=m, alpha=alpha, noise_sigma=sigma)
        lower, upper = draw_window(mean, cfg)
        assert lower <= upper
        random_draws = np.random.default_rng(seed).standard_normal(256)
        draws = np.concatenate([neighbours(lower), neighbours(upper), random_draws])
        decided = _rejections(draws[:, None], np.array([mean]), cfg)[:, 0]
        np.testing.assert_array_equal(decided, p_value_rule(draws, mean, cfg))

    @pytest.mark.parametrize(
        "alpha, m, sigma, mean",
        [
            (0.1922709564203602, 1, 1.0, 0.0),
            (0.3171434742453542, 2, 0.37, 0.5),
            (0.4191443221358243, 3, 2.0, 1.0),
        ],
    )
    def test_window_where_erfc_is_not_monotone(self, alpha, m, sigma, mean):
        # scipy's erfc steps up by one bit between some neighbouring
        # statistics below 1, so these rules get a window of draws that
        # the rule itself decides
        cfg = config(m=m, alpha=alpha, noise_sigma=sigma)
        lower, upper = draw_window(mean, cfg)
        draws = np.array(neighbours(lower, 8))
        flags = p_value_rule(draws, mean, cfg)
        inside = (draws >= lower) & (draws < upper)
        assert inside.any()
        assert not flags[draws < lower].any() and flags[draws >= upper].all()
        decided = _rejections(draws[:, None], np.array([mean]), cfg)[:, 0]
        np.testing.assert_array_equal(decided, flags)

    def test_window_at_the_textbook_quantile(self):
        # silent device, sigma 1: reject iff z >= Phi^-1(1 - alpha/M)
        lower, upper = draw_window(0.0, config(m=50, alpha=0.05))
        assert lower == upper == pytest.approx(3.090232306167813, abs=1e-9)

    def test_far_flips_are_an_internal_error(self, monkeypatch):
        def jittery_erfc(x):
            x = np.asarray(x, dtype=float)
            return special.erfc(x) * np.where(x.view(np.int64) % 2 == 0, 1.0, 1.0 + 1e-6)

        monkeypatch.setattr(estimator, "special", SimpleNamespace(erfc=jittery_erfc))
        with pytest.raises(RuntimeError, match="alpha=0.05, M=50, noise_sigma=1.0"):
            _statistic_window(config())
