import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from aloha_noma import analytic, simcore, stats
from aloha_noma.simcore import (
    SicMode,
    SicModel,
    SimConfig,
    SimStats,
    Transmission,
    _dbm_to_mw,
    _decode_chains,
    _decode_cluster,
    _mw,
    _openings,
    _overlap_counts,
    _resolve,
    generate_traffic,
    overlap_count,
    resolve_sic,
    run_simulation,
)

IDEAL_1 = SicModel(degree=1)


def sim_config(g=0.5, horizon=1e4, degree=1, seed=1, **kw):
    return SimConfig(
        offered_load_g=g,
        packet_duration=1.0,
        horizon=horizon,
        sic=SicModel(degree=degree, **kw.pop("sic_kw", {})),
        seed=seed,
        **kw,
    )


def packets(*starts, duration=1.0, powers=None):
    powers = powers if powers is not None else [0.0] * len(starts)
    return [
        Transmission(i, s, duration, p) for i, (s, p) in enumerate(zip(starts, powers))
    ]


def brute_force_overlaps(txs):
    counts = []
    for a in txs:
        c = 0
        for b in txs:
            if a.start_time < b.end_time and b.start_time < a.end_time:
                c += 1
        counts.append(c)
    return counts


class TestConfigValidation:
    def test_rejects_negative_load(self):
        with pytest.raises(ValueError, match="offered_load_g"):
            sim_config(g=-0.5)

    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            sim_config(horizon=50.0)

    def test_rejects_warmup_beyond_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            sim_config(horizon=200.0, warmup=300.0)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError, match="degree"):
            SicModel(degree=0)

    def test_rejects_interval_rounding_to_empty(self):
        # the float spacing at 1e17 is 16, so 1e17 + 1 == 1e17
        with pytest.raises(ValueError, match="non-empty interval"):
            Transmission(1, 1e17, 1.0)
        assert Transmission(1, 1e17, 16.0).end_time > 1e17

    def test_rejects_horizon_where_packets_round_to_empty(self):
        with pytest.raises(ValueError, match="^horizon: "):
            sim_config(g=1e-15, horizon=1e17)

    def test_expected_packet_count_is_capped(self):
        # 2**32 expected packets pass, one more ulp of horizon does not
        assert sim_config(g=1.0, horizon=2.0**32).horizon == 2.0**32
        with pytest.raises(ValueError, match="^horizon: expects "):
            sim_config(g=1.0, horizon=math.nextafter(2.0**32, math.inf))
        with pytest.raises(ValueError, match="^horizon: expects inf packets"):
            sim_config(g=1e308, horizon=1e10)


class TestGenerateTraffic:
    def test_zero_load_means_silence(self):
        assert generate_traffic(sim_config(g=0.0)) == []

    def test_deterministic_per_seed(self):
        cfg = sim_config(seed=33)
        assert generate_traffic(cfg) == generate_traffic(cfg)

    def test_poisson_count_oracle(self):
        cfg = sim_config(g=1.0, horizon=1e5, seed=2)
        count = len(generate_traffic(cfg))
        assert abs(count - 1e5) <= 3.0 * math.sqrt(1e5)

    def test_sorted_with_fixed_duration(self):
        txs = generate_traffic(sim_config(seed=5))
        starts = [t.start_time for t in txs]
        assert starts == sorted(starts)
        assert all(t.duration == 1.0 for t in txs)
        assert all(0.0 <= t.start_time < 1e4 for t in txs)

    def test_shadowing_spreads_power(self):
        calm = generate_traffic(sim_config(seed=3))
        assert {t.rx_power_dbm for t in calm} == {0.0}
        shadowed = generate_traffic(sim_config(seed=3, shadowing_sigma_db=6.0))
        assert len({t.rx_power_dbm for t in shadowed}) > 1


class TestOverlapCount:
    def test_lone_packet(self):
        txs = packets(5.0)
        assert overlap_count(txs[0], txs) == 1

    def test_exact_duration_gap_does_not_interfere(self):
        txs = packets(0.0, 1.0)
        assert overlap_count(txs[0], txs) == 1
        assert overlap_count(txs[1], txs) == 1

    def test_chain_of_three(self):
        txs = packets(0.0, 0.5, 0.9)
        assert [overlap_count(t, txs) for t in txs] == [3, 3, 3]

    def test_matches_brute_force_on_random_traffic(self):
        txs = generate_traffic(sim_config(g=2.0, horizon=150.0, seed=17))
        expected = brute_force_overlaps(txs)
        assert [overlap_count(t, txs) for t in txs] == expected

    def test_packet_outside_the_list_does_not_count_itself(self):
        txs = packets(0.0, 1.0, 3.0)
        # [0.5, 1.5) meets the first two; [2.0, 3.0) touches the third's start
        assert overlap_count(Transmission(9, 0.5, 1.0), txs) == 2
        assert overlap_count(Transmission(9, 2.0, 1.0), txs) == 0

    def test_empty_list(self):
        assert overlap_count(Transmission(0, 2.0, 1.0), []) == 0


@st.composite
def mixed_durations(draw):
    """Up to 30 packets of mixed durations in random input order, starts
    often tied and device ids shuffled, so neither starts nor ends arrive
    sorted."""
    rows = draw(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 5.0)),
                st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 4.0)),
            ),
            min_size=1,
            max_size=30,
        )
    )
    ids = draw(st.permutations(range(len(rows))))
    return [Transmission(i, s, d) for i, (s, d) in zip(ids, rows)]


class TestIdealCounts:
    @given(mixed_durations())
    @example([Transmission(0, 2.0, 1.0)])
    # tied starts, and ends that touch later starts
    @example(packets(0.0, 1.0, 1.0, 2.0, 2.5))
    @example([Transmission(1, 0.0, 2.0), Transmission(0, 0.5, 0.5), Transmission(2, 2.0, 1.0)])
    def test_counts_match_brute_force(self, txs):
        expected = brute_force_overlaps(txs)
        starts = np.array([t.start_time for t in txs])
        order = np.argsort(starts, kind="stable")
        ends = np.array([t.end_time for t in txs])
        counts = np.empty(len(txs), dtype=int)
        counts[order] = _overlap_counts(starts[order], ends[order])
        assert counts.tolist() == expected
        assert [overlap_count(t, txs) for t in txs] == expected


class TestResolveSicIdeal:
    def test_lone_packet_succeeds(self):
        assert resolve_sic(packets(0.0), IDEAL_1) == [True]

    def test_cluster_beyond_degree_fails_everyone(self):
        for n in (1, 2, 4):
            txs = packets(*[0.01 * k for k in range(n + 1)])
            assert resolve_sic(txs, SicModel(degree=n)) == [False] * (n + 1)

    def test_cluster_at_degree_succeeds(self):
        txs = packets(0.0, 0.2, 0.4)
        assert resolve_sic(txs, SicModel(degree=3)) == [True] * 3

    def test_empty_traffic(self):
        assert resolve_sic([], IDEAL_1) == []

    def test_success_set_monotone_in_degree(self):
        txs = generate_traffic(sim_config(g=1.5, horizon=500.0, seed=23))
        previous = None
        for degree in (1, 2, 3, 5):
            flags = resolve_sic(txs, SicModel(degree=degree))
            if previous is not None:
                assert all(not p or f for p, f in zip(previous, flags))
            previous = flags

    @given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=1e-3, max_value=10.0))
    def test_boundary_convention(self, start, duration):
        txs = [
            Transmission(0, start, duration),
            Transmission(1, start + duration, duration),
        ]
        assert resolve_sic(txs, IDEAL_1) == [True, True]

    @given(mixed_durations(), st.integers(1, 8))
    # starts that are not all positive floats do not order as their int64
    # bits: a negative first start, and -0.0 tied with 0.0 in either order
    @example([Transmission(0, -1.0, 1.0), Transmission(1, -2.0, 1.0),
              Transmission(2, -1.5, 2.0)], 2)
    @example([Transmission(0, -0.0, 1.0), Transmission(1, 0.0, 0.5),
              Transmission(2, 0.5, 1.0), Transmission(3, 1.25, 1.0)], 2)
    @example([Transmission(1, -0.0, 1.0), Transmission(0, 0.0, 0.5),
              Transmission(2, 0.5, 1.0), Transmission(3, 1.25, 1.0)], 2)
    # an infinite end sorts after every finite one, as floats and as bits
    @example([Transmission(0, 0.5, math.inf), Transmission(1, 1.0, 1.0),
              Transmission(2, 3.0, 1.0), Transmission(3, 3.5, 2.0)], 3)
    # nor do starts that are not float64: integer starts with float ends,
    # and float32 starts and ends
    @example([Transmission(i, s, 0.5) for i, s in enumerate([1, 2, 3, 4])], 2)
    @example([Transmission(i, np.float32(s), np.float32(0.5))
              for i, s in enumerate([1.0, 1.25, 1.5, 4.0])], 2)
    def test_matches_brute_force_on_shuffled_mixed_durations(self, txs, degree):
        expected = [c <= degree for c in brute_force_overlaps(txs)]
        assert resolve_sic(txs, SicModel(degree=degree)) == expected

    @pytest.mark.parametrize("degree", [2**63 - 1, 10**20])
    @given(txs=mixed_durations())
    def test_degree_past_the_packet_count_decides_as_the_count(self, txs, degree):
        # no packet overlaps more packets than there are, so every one passes
        flags = resolve_sic(txs, SicModel(degree=degree))
        assert flags == resolve_sic(txs, SicModel(degree=len(txs))) == [True] * len(txs)


class TestResolveSicPowerAware:
    MODEL = SicModel(
        degree=2, mode=SicMode.POWER_AWARE, capture_threshold_db=6.0, noise_floor_dbm=-30.0
    )

    def test_disparate_pair_fully_decodes(self):
        # linear check: 10 mW vs (1 mW + 0.001 mW) is ~10 dB, then
        # 1 mW vs 0.001 mW is 30 dB; both clear the 6 dB threshold
        p_strong, p_weak, noise = 10.0, 1.0, 1e-3
        assert p_strong / (p_weak + noise) >= 10 ** 0.6
        assert p_weak / noise >= 10 ** 0.6
        txs = packets(0.0, 0.0, powers=[10.0, 0.0])
        assert resolve_sic(txs, self.MODEL) == [True, True]

    def test_equal_powers_jam_each_other(self):
        txs = packets(0.0, 0.0, powers=[0.0, 0.0])
        assert resolve_sic(txs, self.MODEL) == [False, False]

    def test_chain_stops_at_first_failure(self):
        # strongest decodes; the two equal remainders jam each other
        txs = packets(0.0, 0.0, 0.0, powers=[20.0, 0.0, 0.0])
        model = SicModel(degree=3, mode=SicMode.POWER_AWARE)
        assert resolve_sic(txs, model) == [True, False, False]

    def test_degree_limits_successes(self):
        txs = packets(0.0, 0.0, 0.0, powers=[30.0, 15.0, 0.0])
        flags = resolve_sic(txs, self.MODEL)
        assert flags == [True, True, False]

    def test_lone_packet_succeeds(self):
        assert resolve_sic(packets(0.0), self.MODEL) == [True]

    def test_never_beats_ideal_on_default_powers(self):
        txs = generate_traffic(sim_config(g=1.0, horizon=500.0, seed=29))
        for degree in (1, 2, 4):
            ideal = resolve_sic(txs, SicModel(degree=degree))
            aware = resolve_sic(
                txs, SicModel(degree=degree, mode=SicMode.POWER_AWARE)
            )
            assert sum(aware) <= sum(ideal)
            assert all(not a or i for a, i in zip(aware, ideal))


def overlap_clusters(txs):
    """A cluster label per packet: the connected components of the overlap
    graph."""
    cluster = list(range(len(txs)))
    for i, a in enumerate(txs):
        for j, b in enumerate(txs):
            if a.start_time < b.end_time and b.start_time < a.end_time:
                old, new = cluster[j], cluster[i]
                cluster = [new if c == old else c for c in cluster]
    return cluster


def exact_power_chain(txs, sic):
    """Power-aware flags in exact rational arithmetic, plus the smallest
    relative SINR margin of any decision the chain took.

    Clusters are the connected components of the overlap graph; inside one
    the strongest packet is tried first (ties by start, then device id)
    against the exact sum of the weaker members plus noise.
    """
    cluster = overlap_clusters(txs)
    mw = [Fraction(10.0 ** (t.rx_power_dbm / 10.0)) for t in txs]
    theta = Fraction(10.0 ** (sic.capture_threshold_db / 10.0))
    noise = Fraction(10.0 ** (sic.noise_floor_dbm / 10.0))
    flags = [False] * len(txs)
    margin = math.inf
    for label in set(cluster):
        chain = sorted(
            (i for i, c in enumerate(cluster) if c == label),
            key=lambda i: (-mw[i], txs[i].start_time, txs[i].device_id),
        )
        for stage, i in enumerate(chain[: sic.degree]):
            need = theta * (sum(mw[j] for j in chain[stage + 1 :]) + noise)
            margin = min(margin, abs(float((mw[i] - need) / mw[i])))
            if mw[i] < need:
                break
            flags[i] = True
    return flags, margin


class TestExactPowerChain:
    def test_wide_spread_does_not_cancel(self):
        # 10 dBm against 6 dBm plus noise is 10 / 3.982 = 2.51 < 10**0.6; a
        # residual taken from a total that holds the 200 dBm packet rounds
        # the weaker packets away and wrongly lets both pass
        txs = packets(0.0, 0.0, 0.0, powers=[200.0, 10.0, 6.0])
        model = SicModel(3, SicMode.POWER_AWARE, capture_threshold_db=6.0, noise_floor_dbm=-30.0)
        assert resolve_sic(txs, model) == [True, False, False]

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 3.0)),
                st.one_of(st.sampled_from([-300.0, 0.0, 6.0, 300.0]), st.floats(-300.0, 300.0)),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 8),
        st.sampled_from([-3.0, 0.0, 6.0]),
    )
    def test_matches_exact_reference(self, rows, degree, threshold_db):
        txs = packets(*[s for s, _ in rows], powers=[p for _, p in rows])
        model = SicModel(degree, SicMode.POWER_AWARE, capture_threshold_db=threshold_db)
        expected, margin = exact_power_chain(txs, model)
        # a decision within rounding of the threshold may go either way
        assume(margin > 1e-12)
        assert resolve_sic(txs, model) == expected


def scalar_power_chain(txs, sic):
    """Power-aware flags from walking ``_decode_chains``, the scalar chain,
    over each cluster in (-mW, start, device id) order."""
    cluster = overlap_clusters(txs)
    mw = _dbm_to_mw([t.rx_power_dbm for t in txs])
    noise_mw, theta = _dbm_to_mw([sic.noise_floor_dbm, sic.capture_threshold_db])
    order = sorted(
        range(len(txs)),
        key=lambda i: (cluster[i], -mw[i], txs[i].start_time, txs[i].device_id),
    )
    runs, first = [], 0
    for p in range(1, len(order) + 1):
        if p == len(order) or cluster[order[p]] != cluster[order[first]]:
            runs.append((first, p - first))
            first = p
    flags = [False] * len(txs)
    for p in _decode_chains([mw[i] for i in order], runs, sic.degree, theta, noise_mw):
        flags[order[p]] = True
    return flags


@st.composite
def shuffled_clusters(draw):
    """Up to five groups of packets 10 s apart, each of 1 to 12 packets
    starting within 2 s, so one call holds several cluster sizes; starts and
    powers often tie, and input order and device ids are shuffled."""
    rows = []
    for base in range(draw(st.integers(1, 5))):
        rows += draw(
            st.lists(
                st.tuples(
                    st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 2.0)).map(
                        lambda s, b=base: 10.0 * b + s
                    ),
                    # 3082.5 dBm is just below the mW overflow, so sums of
                    # such powers overflow to inf
                    st.one_of(
                        st.sampled_from([-30.0, 0.0, 6.0, 3082.5]), st.floats(-300.0, 300.0)
                    ),
                ),
                min_size=1,
                max_size=12,
            )
        )
    rows = draw(st.permutations(rows))
    ids = draw(st.permutations(range(len(rows))))
    return [Transmission(i, s, 1.0, p) for i, (s, p) in zip(ids, rows)]


@st.composite
def long_clusters(draw):
    """One to three clusters of 17 to 80 packets, 10 s apart, each packet
    starting within 0.9 s of its cluster's first; a size may repeat, so the
    array kernel gets several rows of one size.  Powers sit on a 5 dB ladder from
    -300 to 300 dBm, so chains often decode past the degree, with a few
    packets moved to tied levels or to 3082.5 dBm, just below the mW
    overflow.  Input order and device ids are shuffled."""
    sizes = draw(st.lists(st.integers(17, 80), min_size=1, max_size=3))
    sizes += draw(st.lists(st.sampled_from(sizes), max_size=1))
    rows = []
    for base, n in enumerate(sizes):
        powers = [5.0 * q for q in draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n,
                                                 unique=True))]
        for j, level in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                st.sampled_from([0.0, 6.0, 3082.5])),
                                      max_size=3)):
            powers[j] = level
        starts = draw(st.lists(st.sampled_from([0.0, 0.5, 0.9]), min_size=n, max_size=n))
        rows += [(10.0 * base + s, p) for s, p in zip(starts, powers)]
    rows = draw(st.permutations(rows))
    ids = draw(st.permutations(range(len(rows))))
    return [Transmission(i, s, 1.0, p) for i, (s, p) in zip(ids, rows)]


@st.composite
def silent_long_clusters(draw):
    """``long_clusters`` with one to twelve packets moved to -3300 dBm, whose
    mW underflows to 0, the level of the pads of a band of cluster sizes."""
    txs = draw(long_clusters())
    for j in draw(st.lists(st.integers(0, len(txs) - 1), min_size=1, max_size=12)):
        txs[j] = replace(txs[j], rx_power_dbm=-3300.0)
    return txs


def spread_clusters(*levels):
    """One cluster per list of powers, 10 s apart, its packets starting in
    list order within 0.9 s; device ids in start order."""
    txs = []
    for base, powers in enumerate(levels):
        txs += [Transmission(len(txs), 10.0 * base + 0.9 * j / len(powers), 1.0, p)
                for j, p in enumerate(powers)]
    return txs


def ladder(top, size):
    """``size`` powers falling from ``top`` dBm in 10 dB steps, each of which
    decodes against the sum of those below it."""
    return [top - 10.0 * j for j in range(size)]


@st.composite
def sorted_intervals(draw):
    """Up to 30 packets as ``_resolve`` takes them: starts sorted and often
    tied, durations mixed, so the ends come unordered, and some ends at
    +inf, given or past float range."""
    rows = draw(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1e308]), st.floats(0.0, 5.0)),
                st.one_of(
                    st.sampled_from([0.5, 1.0, 2.0, 1e308, math.inf]), st.floats(0.01, 4.0)
                ),
            ),
            max_size=30,
        )
    )
    # non-empty intervals only, as Transmission requires
    rows = sorted((row for row in rows if sum(row) > row[0]), key=lambda row: row[0])
    starts = np.array([s for s, _ in rows])
    with np.errstate(over="ignore"):
        return starts, starts + np.array([d for _, d in rows])


class TestArrayKernel:
    @settings(deadline=None)
    @given(
        shuffled_clusters(),
        st.integers(1, 8),
        st.sampled_from([-3.0, 0.0, 6.0]),
        st.sampled_from([-30.0, 3000.0]),
    )
    def test_matches_scalar_chain(self, txs, degree, threshold_db, noise_dbm):
        # bit identity with the scalar chain, so no decision margin is assumed
        model = SicModel(degree, SicMode.POWER_AWARE, threshold_db, noise_dbm)
        assert resolve_sic(txs, model) == scalar_power_chain(txs, model)

    @settings(deadline=None)
    @given(
        long_clusters(),
        st.integers(1, 32),
        st.sampled_from([-3.0, 0.0, 6.0]),
        st.sampled_from([-30.0, 3000.0]),
    )
    # the shortest and longest row of each size band, 1 to 65 packets
    @example(spread_clusters(*(ladder(100.0, n)
                               for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65))),
             32, 0.0, -30.0)
    def test_matches_scalar_chain_on_long_clusters(self, txs, degree, threshold_db, noise_dbm):
        # the size bands past 16 packets, with degrees above and below the
        # cluster size
        model = SicModel(degree, SicMode.POWER_AWARE, threshold_db, noise_dbm)
        assert resolve_sic(txs, model) == scalar_power_chain(txs, model)

    @settings(deadline=None)
    @given(
        silent_long_clusters(),
        st.integers(1, 96),
        st.sampled_from([-3.0, 0.0, 6.0]),
        st.sampled_from([-3300.0, -4000.0]),
    )
    # the 20-packet row of a 30-wide band decodes to its last, 0 mW packets
    @example(spread_clusters(ladder(100.0, 17) + [-3300.0] * 3, ladder(100.0, 30)),
             20, 0.0, -3300.0)
    # the 18-packet row decodes through its pads at degree 25, and the tied
    # 17-packet cluster after it decodes nothing
    @example(spread_clusters(ladder(100.0, 15) + [-3300.0] * 3, [50.0] + ladder(50.0, 16),
                             ladder(100.0, 25)),
             25, 0.0, -4000.0)
    def test_silent_packets_rank_before_band_pads(self, txs, degree, threshold_db, noise_dbm):
        # a 0 mW packet ties the 0 mW pads of its row and must stay ahead of
        # them; under a 0 mW noise floor it decodes where its chain reaches
        # it, and so would a pad, which must set no flag
        model = SicModel(degree, SicMode.POWER_AWARE, threshold_db, noise_dbm)
        assert resolve_sic(txs, model) == scalar_power_chain(txs, model)

    @pytest.mark.parametrize("degree", [8, 32])
    @pytest.mark.parametrize("at", [0, 1, 19])
    def test_nan_power_fails_its_whole_cluster(self, degree, at):
        # a nan power sorts after every packet of its row, and after the pads
        # of a short row, and its nan sum fails every SINR test of its chain:
        # a full-width 25-packet row, a 20-packet row beside it in the 17-32
        # band and a pair decode nothing, and the clusters around them decide
        # as the scalar chain does
        levels = [ladder(100.0, n) for n in (25, 3, 20, 25, 2, 20, 4)]
        hit = [0, 2, 4]
        for k in hit:
            levels[k][min(at, len(levels[k]) - 1)] = math.nan
        txs = spread_clusters(*levels)
        model = SicModel(degree, SicMode.POWER_AWARE, 0.0, -30.0)
        flags = resolve_sic(txs, model)
        clusters = [k for k, powers in enumerate(levels) for _ in powers]
        assert not any(ok for ok, k in zip(flags, clusters) if k in hit)
        rest = [j for j, k in enumerate(clusters) if k not in hit]
        assert [flags[j] for j in rest] == scalar_power_chain([txs[j] for j in rest], model)

    @given(sorted_intervals())
    # equal durations, ends touching later starts
    @example((np.array([0.0, 1.0, 1.0, 2.0, 2.5]), np.array([1.0, 2.0, 2.0, 3.0, 3.5])))
    # a long packet reaches past a short one that ends before the next start
    @example((np.array([0.0, 0.5, 2.0, 4.0]), np.array([3.0, 1.0, 2.5, math.inf])))
    def test_lone_packets_are_those_overlap_counts_find_alone(self, intervals):
        # ideal degree 1 decides from cluster openings; _overlap_counts is
        # the independent reference
        starts, ends = intervals
        opens = _openings(starts, np.maximum.accumulate(ends))
        flags = _resolve(starts, ends, np.zeros(starts.size), IDEAL_1, opens)
        assert flags.tolist() == (_overlap_counts(starts, ends) <= 1).tolist()

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    [-math.inf, -3300.0, math.nan, -30.0, 0.0, 3082.5, 5000.0, math.inf]
                ),
                st.floats(-300.0, 300.0),
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(1, 8),
        st.sampled_from([-3.0, 0.0, 6.0]),
        st.sampled_from([-3300.0, -4000.0, -30.0, 4000.0]),
    )
    def test_lone_packets_match_scalar_chain(self, powers, degree, threshold_db, noise_dbm):
        # packets 10 s apart, each alone in its cluster: powers of 0 mW, nan
        # and past the mW overflow, under noise floors whose mW underflow to
        # 0 (-3300 and -4000 dBm) or overflow (4000 dBm)
        txs = [Transmission(i, 10.0 * i, 1.0, p) for i, p in enumerate(powers)]
        model = SicModel(degree, SicMode.POWER_AWARE, threshold_db, noise_dbm)
        assert resolve_sic(txs, model) == scalar_power_chain(txs, model)

    @given(st.lists(st.floats(-3000.0, 3000.0), max_size=50))
    def test_conversion_is_float_pow(self, levels):
        # 3082.5 dBm is the last finite mW level, -3300 dBm underflows to 0
        levels += [3082.5, 3082.6, 4000.0, -3300.0, -0.0]
        mw = _mw(np.array(levels))
        assert mw.tobytes() == np.array(_dbm_to_mw(levels)).tobytes()


@st.composite
def bursts(draw):
    """Received powers and shuffled device ids of one burst; powers often
    tie, and 3082.6 and 4000 dBm lie past the mW overflow."""
    levels = draw(
        st.lists(
            st.one_of(
                st.sampled_from([-30.0, 0.0, 6.0, 3082.5, 3082.6, 4000.0]),
                st.floats(-300.0, 300.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return levels, draw(st.permutations(range(len(levels))))


@st.composite
def long_bursts(draw):
    """Quarter-decibel powers of one burst of up to 50 packets, so a 3000 dB
    lift adds exactly, with sparse device ids in shuffled order; powers
    often tie."""
    levels = draw(
        st.lists(
            st.one_of(
                st.sampled_from([-30.0, 0.0, 6.0, 80.0]),
                st.integers(-200, 330).map(lambda q: q / 4.0),
            ),
            min_size=1,
            max_size=50,
        )
    )
    ids = draw(st.permutations(range(len(levels))))
    return levels, [7 * i - 40 for i in ids]


class TestClusterDecoder:
    @settings(deadline=None)
    @given(
        bursts(),
        st.integers(1, 8),
        st.sampled_from([-3.0, 0.0, 6.0]),
        st.sampled_from([-30.0, 3000.0]),
    )
    def test_matches_channel_on_one_burst(self, burst, degree, threshold_db, noise_dbm):
        # every packet spans the same interval, so the burst is one cluster
        levels, ids = burst
        model = SicModel(degree, SicMode.POWER_AWARE, threshold_db, noise_dbm)
        txs = [Transmission(i, 0.0, 1.0, p) for i, p in zip(ids, levels)]
        flagged = [j for j, ok in enumerate(resolve_sic(txs, model)) if ok]
        assert sorted(_decode_cluster(levels, ids, degree, model)) == flagged

    @settings(deadline=None)
    @given(
        long_bursts(),
        st.integers(1, 8),
        st.sampled_from([-10.0, -3.0, 0.0, 6.0]),
        st.sampled_from(["none", "power", "noise"]),
    )
    def test_matches_chain_walk_on_long_bursts(self, burst, degree, threshold_db, lift):
        # the reference walks _decode_chains over one run in (-mW, id) order;
        # lifted by 3000 dB, one packet ("power") or the noise floor
        # ("noise") passes the mW overflow and the decoder decides on dBm
        levels, ids = burst
        model = SicModel(
            degree, SicMode.POWER_AWARE, threshold_db, 85.0 if lift == "noise" else -30.0
        )
        if lift == "power":
            levels = levels + [84.0]
            ids = ids + [max(ids) + 1]
        mw = _dbm_to_mw(levels)
        noise_mw, theta = _dbm_to_mw([model.noise_floor_dbm, threshold_db])
        order = sorted(range(len(levels)), key=lambda j: (-mw[j], ids[j]))
        stages = [mw[j] for j in order]
        runs = [(0, len(order))]
        expected = [order[p] for p in _decode_chains(stages, runs, degree, theta, noise_mw)]
        if lift == "none":
            assert _decode_cluster(levels, ids, degree, model) == expected
            return
        # relative and absolute powers round differently, so decisions within
        # rounding of the threshold may go either way
        txs = [Transmission(i, 0.0, 1.0, p) for i, p in zip(ids, levels)]
        assume(exact_power_chain(txs, model)[1] > 1e-9)
        lifted = replace(model, noise_floor_dbm=model.noise_floor_dbm + 3000.0)
        assert math.inf in _dbm_to_mw([x + 3000.0 for x in levels] + [lifted.noise_floor_dbm])
        assert _decode_cluster([x + 3000.0 for x in levels], ids, degree, lifted) == expected


class TestPowerOverflow:
    MODEL = SicModel(degree=2, mode=SicMode.POWER_AWARE)

    def test_conversion_is_float_pow_up_to_overflow(self):
        # 10 ** 308.25 is finite, 10 ** 308.26 is past the largest double
        levels = [-4000.0, -30.0, 0.0, 6.0, 3082.5]
        assert _dbm_to_mw(levels) == [10.0 ** (x / 10.0) for x in levels]
        assert _dbm_to_mw([3082.5, 3082.6, 4000.0]) == [10.0 ** 308.25, math.inf, math.inf]

    def test_packets_past_overflow_are_resolved(self):
        assert resolve_sic(packets(0.0, powers=[3082.6]), self.MODEL) == [True]
        txs = packets(0.0, 0.5, powers=[3082.6, 0.0])
        assert resolve_sic(txs, self.MODEL) == [True, True]
        txs = packets(0.0, 0.5, powers=[3082.5, 0.0])
        assert resolve_sic(txs, self.MODEL) == [True, True]

    def test_noise_floor_past_overflow_decodes(self):
        # relative to the packet, noise 10**0.8 times theta 0.1 is 0.63 <= 1;
        # the same case 3000 dB lower decodes too
        model = SicModel(1, SicMode.POWER_AWARE, -10.0, 3090.0)
        assert resolve_sic([Transmission(0, 0.0, 1.0, 3082.0)], model) == [True]
        assert _decode_cluster([3082.0], [0], 1, model) == [0]
        assert _decode_cluster([3070.0], [0], 1, model) == []
        lower = replace(model, noise_floor_dbm=90.0)
        assert resolve_sic([Transmission(0, 0.0, 1.0, 82.0)], lower) == [True]

    def test_noise_floor_past_overflow_decodes_a_chain(self):
        # every packet is below the mW overflow and the floor past it; at
        # -10 dB, 3082.4 dBm clears 3078 + 3072 dBm plus the noise, 3078 dBm
        # clears 3072 dBm plus the noise, 3072 dBm fails against the noise
        # alone, and a lone 3080 dBm packet 10 s later clears the noise
        model = SicModel(3, SicMode.POWER_AWARE, -10.0, 3085.0)
        txs = packets(0.0, 0.25, 0.5, 10.0, powers=[3072.0, 3082.4, 3078.0, 3080.0])
        assert resolve_sic(txs, model) == [False, True, True, True]
        assert sorted(_decode_cluster([3072.0, 3082.4, 3078.0], [0, 1, 2], 3, model)) == [1, 2]

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 3.0)),
                # quarter decibels around the floor, so the offset adds exactly
                st.integers(280, 360).map(lambda q: q / 4.0),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 8),
        st.sampled_from([-10.0, -3.0, 0.0]),
    )
    @example([(0.0, 82.0)], 1, -10.0)
    def test_noise_floor_past_overflow_decides_as_without_offset(self, rows, degree, threshold_db):
        # 3000 dB lift the 85 dBm floor past the mW overflow, and the
        # packets above 82.5 dBm with it
        txs = packets(*[s for s, _ in rows], powers=[p for _, p in rows])
        model = SicModel(degree, SicMode.POWER_AWARE, threshold_db, noise_floor_dbm=85.0)
        expected, margin = exact_power_chain(txs, model)
        assume(margin > 1e-9)
        shifted = [replace(t, rx_power_dbm=t.rx_power_dbm + 3000.0) for t in txs]
        assert resolve_sic(shifted, replace(model, noise_floor_dbm=3085.0)) == expected



class TestInfinitePowers:
    # 3000 dB lifts every packet above 82.5 dBm past the mW overflow
    OFFSET = 3000.0

    def offset(self, txs, sic):
        shifted = [
            Transmission(t.device_id, t.start_time, t.duration, t.rx_power_dbm + self.OFFSET)
            for t in txs
        ]
        return shifted, replace(sic, noise_floor_dbm=sic.noise_floor_dbm + self.OFFSET)

    def test_weaker_sum_past_float_range(self):
        # 3080 + 3079.25 dBm sum past float range at the offset; exactly,
        # 80 dBm clears -3 dB over 80 dBm + 79.25 dBm + noise, and decodes
        model = SicModel(1, SicMode.POWER_AWARE, capture_threshold_db=-3.0, noise_floor_dbm=-30.0)
        txs = packets(0.0, 0.0, 0.0, powers=[79.25, 80.0, 80.0])
        assert resolve_sic(txs, model) == [False, True, False]
        assert resolve_sic(*self.offset(txs, model)) == [False, True, False]

    def test_close_pair_jams_as_without_offset(self):
        model = SicModel(degree=2, mode=SicMode.POWER_AWARE)
        txs = packets(0.0, 0.0, powers=[82.6, 82.5])
        assert resolve_sic(txs, model) == [False, False]
        assert resolve_sic(*self.offset(txs, model)) == [False, False]

    def test_noise_floor_far_below_still_counts(self):
        # relative to the 4000 dBm packet, the -100 dBm one and the noise
        # floor both round to zero; the weaker one must still fail
        model = SicModel(degree=2, mode=SicMode.POWER_AWARE)
        assert resolve_sic(packets(0.0, 0.0, powers=[4000.0, -100.0]), model) == [True, False]
        assert resolve_sic(packets(0.0, 0.0, powers=[4000.0, -20.0]), model) == [True, True]

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 3.0)),
                # quarter decibels, so the offset adds exactly
                st.integers(-1200, 1200).map(lambda q: q / 4.0),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 8),
        st.sampled_from([-3.0, 0.0, 6.0]),
    )
    def test_cluster_decides_as_without_offset(self, rows, degree, threshold_db):
        txs = packets(*[s for s, _ in rows], powers=[p for _, p in rows])
        model = SicModel(degree, SicMode.POWER_AWARE, capture_threshold_db=threshold_db)
        expected, margin = exact_power_chain(txs, model)
        assume(margin > 1e-9)
        assert resolve_sic(txs, model) == expected
        assert resolve_sic(*self.offset(txs, model)) == expected


class TestRunSimulation:
    def test_zero_load_is_degenerate(self):
        stats = run_simulation(sim_config(g=0.0))
        assert stats == SimStats(0, 0, 0.0, 0.0, 0.0, degenerate=True)

    def test_deterministic(self):
        cfg = sim_config(seed=44, horizon=5e3)
        assert run_simulation(cfg) == run_simulation(cfg)

    def test_pure_aloha_matches_classic_result(self):
        cfg = sim_config(g=0.5, horizon=2e5, seed=12, warmup=10.0)
        stats = run_simulation(cfg)
        assert stats.confidence_half_width > 0.0
        assert abs(stats.normalized_throughput - 0.18394) <= 3.0 * stats.confidence_half_width

    def test_degree_two_ratio_near_unity(self):
        cfg = sim_config(g=0.809, horizon=1e5, degree=2, seed=13)
        stats = run_simulation(cfg)
        assert 0.9 * 0.42 <= stats.normalized_throughput <= 1.1 * 0.42

    def test_higher_degree_never_hurts(self):
        lo = run_simulation(sim_config(g=0.5, horizon=2e4, degree=1, seed=9))
        hi = run_simulation(sim_config(g=0.5, horizon=2e4, degree=2, seed=9))
        assert hi.normalized_throughput >= lo.normalized_throughput

    def test_counts_are_conserved(self):
        cfg = sim_config(g=1.0, horizon=5e3, seed=21)
        stats = run_simulation(cfg)
        txs = generate_traffic(cfg)
        flags = resolve_sic(txs, cfg.sic)
        assert len(flags) == len(txs)
        assert stats.offered == len(txs)
        assert stats.succeeded == sum(flags)
        assert stats.succeeded <= stats.offered

    def test_warmup_packets_interfere_but_do_not_count(self):
        cfg = sim_config(g=0.8, horizon=2e3, seed=3, warmup=500.0)
        stats = run_simulation(cfg)
        txs = generate_traffic(cfg)
        in_window = [t for t in txs if t.start_time >= 500.0]
        assert stats.offered == len(in_window)

    def test_mean_concurrency_tracks_offered_load(self):
        stats = run_simulation(sim_config(g=0.5, horizon=5e4, seed=15))
        assert stats.mean_concurrency == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize(
        "sic, extra, expected",
        [
            (
                SicModel(degree=2),
                {"seed": 31},
                SimStats(19876, 8212, 0.41266331658291455, 0.9988628425878077,
                         0.010223982917660435),
            ),
            (
                SicModel(degree=3, mode=SicMode.POWER_AWARE),
                {"seed": 37, "base_power_dbm": -10.0, "shadowing_sigma_db": 6.0},
                SimStats(19969, 4810, 0.24170854271356784, 1.003528169857636,
                         0.006495214643652973),
            ),
        ],
        ids=["ideal", "power_aware"],
    )
    def test_pinned_stats(self, sic, extra, expected):
        cfg = SimConfig(
            offered_load_g=1.0, packet_duration=1.0, horizon=2e4, sic=sic, warmup=100.0, **extra
        )
        assert run_simulation(cfg) == expected

    # a non-unit duration, where a batch sum formed in another order (each
    # success adding its duration, or one duration-per-span factor) moves
    # the last bits of the half-width
    @pytest.mark.parametrize(
        "sic, extra, expected",
        [
            (
                SicModel(degree=2),
                {"seed": 31},
                SimStats(19876, 8212, 0.4126633165829146, 0.9988628425878077,
                         0.010223982917660435),
            ),
            (
                SicModel(degree=3, mode=SicMode.POWER_AWARE),
                {"seed": 37, "base_power_dbm": -10.0, "shadowing_sigma_db": 6.0},
                SimStats(19969, 4810, 0.24170854271356784, 1.003528169857636,
                         0.006495214643652973),
            ),
        ],
        ids=["ideal", "power_aware"],
    )
    def test_pinned_stats_at_non_unit_duration(self, sic, extra, expected):
        cfg = SimConfig(
            offered_load_g=1.0, packet_duration=0.37, horizon=7400.0, sic=sic, warmup=37.0,
            **extra,
        )
        assert run_simulation(cfg) == expected

    # equal powers 30 dB above the floor and no shadowing: the strongest
    # packet of a cluster of two or more faces an equal power and fails the
    # 6 dB threshold, so a power-aware run decodes only the lone packets, at
    # any degree, which are the packets ideal degree 1 decodes
    @pytest.mark.parametrize("g, degree", [(0.3, 1), (0.5, 4), (1.0, 8), (3.0, 32)])
    def test_equal_powers_above_threshold_give_pure_aloha(self, g, degree):
        for seed in range(4):
            ideal = run_simulation(sim_config(g=g, horizon=5e3, seed=seed, warmup=10.0))
            aware = sim_config(g=g, horizon=5e3, degree=degree, seed=seed, warmup=10.0,
                               sic_kw={"mode": SicMode.POWER_AWARE})
            assert run_simulation(aware) == ideal

    # at a threshold of -1000 dB over a -1000 dBm floor every chain runs to
    # its degree cap, so a cluster of K packets decodes min(K, N); K is
    # geometric, P(K = k) = e^-G (1 - e^-G)^(k - 1), since a cluster goes on
    # iff the next gap is shorter than one duration, and
    # S = G E[min(K, N)] / E[K] = G (1 - (1 - e^-G)^N)
    @pytest.mark.parametrize(
        "g, degree, horizon",
        [(0.5, 1, 2e5), (1.0, 2, 2e5), (2.0, 8, 5e4), (3.0, 5, 5e4), (4.0, 16, 5e4)],
    )
    def test_threshold_near_zero_gives_cluster_capped_throughput(self, g, degree, horizon):
        sic = SicModel(degree, SicMode.POWER_AWARE, capture_threshold_db=-1000.0,
                       noise_floor_dbm=-1000.0)
        stats = run_simulation(SimConfig(g, 1.0, horizon, sic, seed=3, warmup=10.0))
        expected = g * (1.0 - (1.0 - math.exp(-g)) ** degree)
        assert stats.confidence_half_width > 0.0
        assert abs(stats.normalized_throughput - expected) <= 3.0 * stats.confidence_half_width

    @pytest.mark.parametrize(
        "degree, g", [(1, 0.5), (5, analytic.max_throughput(5).g_star)], ids=["pure", "n5_at_g_star"]
    )
    def test_intervals_cover_analytic_throughput(self, degree, g):
        # 95% intervals from independent seeds cover the true S as a
        # Binomial(runs, 0.95) count; fewer than its 0.1% quantile fails, and
        # so do more than its 99.9% quantile (intervals too wide)
        runs = 400
        covered = 0
        for seed in range(runs):
            stats = run_simulation(sim_config(g=g, horizon=2e4, degree=degree, seed=seed))
            error = abs(stats.normalized_throughput - analytic.throughput(g, degree))
            covered += error <= stats.confidence_half_width
        assert scipy_stats.binom.ppf(0.001, runs, 0.95) <= covered
        assert covered <= scipy_stats.binom.ppf(0.999, runs, 0.95)

    def test_ideal_run_draws_no_shadowing(self, monkeypatch):
        # ideal SIC reads no power, so its windows carry the read-only view of
        # the base power; the normals would come after every gap, so leaving
        # them undrawn moves no output
        traffic, powers = simcore._traffic, []

        def recording(*args, **kwargs):
            count, windows = traffic(*args, **kwargs)
            return count, (powers.append(p) or (s, p) for s, p in windows)

        monkeypatch.setattr(simcore, "_traffic", recording)
        shadowed = sim_config(g=2.0, horizon=3000.0, degree=4, seed=5, shadowing_sigma_db=6.0)
        stats = run_simulation(shadowed)
        assert powers and not any(p.flags.writeable for p in powers)
        assert stats == run_simulation(replace(shadowed, shadowing_sigma_db=0.0))

    # the four channel-benchmark runs (bench/workloads.py SIMULATIONS) at
    # seed 12: 1e5-4e5 packets, power-aware clusters of up to 71 packets
    @pytest.mark.parametrize(
        "g, degree, mode, horizon, expected",
        [
            (0.5, 1, SicMode.IDEAL, 200_000.0,
             SimStats(99911, 36765, 0.18383419170958548, 0.4995787918087979,
                      0.001682804984874889)),
            (20.0, 32, SicMode.IDEAL, 20_000.0,
             SimStats(399392, 35501, 1.7759379689844923, 19.97943033388553,
                      0.06744908813778183)),
            (0.5, 2, SicMode.POWER_AWARE, 200_000.0,
             SimStats(99911, 53124, 0.26563328166408323, 0.4995787918087979,
                      0.0023082229760410275)),
            (2.0, 8, SicMode.POWER_AWARE, 50_000.0,
             SimStats(99897, 4232, 0.08465693138627725, 1.9983150125723599,
                      0.0029276070843491657)),
        ],
        ids=["ideal_low_load", "ideal_high_concurrency", "power_low_load", "power_mid_load"],
    )
    def test_pinned_stats_at_benchmark_scale(self, g, degree, mode, horizon, expected):
        power_aware = mode is SicMode.POWER_AWARE
        cfg = SimConfig(
            offered_load_g=g, packet_duration=1.0, horizon=horizon,
            sic=SicModel(degree, mode, capture_threshold_db=6.0, noise_floor_dbm=-30.0),
            seed=12, warmup=10.0, shadowing_sigma_db=6.0 if power_aware else 0.0,
        )
        assert run_simulation(cfg) == expected


def one_shot_traffic(config):
    """Start times and powers drawn as one array: the gaps ``chunk`` at a
    time until a chunk ends past the horizon, then every shadowing normal."""
    rate = config.offered_load_g / config.packet_duration
    rng = np.random.default_rng(config.seed)
    expected = rate * config.horizon
    chunk = int(expected + 10.0 * math.sqrt(expected) + 16.0)
    parts, last = [], 0.0
    while last < config.horizon:
        cum = np.cumsum(rng.exponential(1.0 / rate, size=chunk)) + last
        parts.append(cum)
        last = float(cum[-1])
    starts = np.concatenate(parts)
    starts = starts[starts < config.horizon]
    powers = np.full(starts.size, config.base_power_dbm)
    if config.shadowing_sigma_db > 0.0:
        powers = rng.normal(0.0, config.shadowing_sigma_db, size=starts.size)
        powers += config.base_power_dbm
    return starts, powers


def one_shot_stats(config):
    """``run_simulation`` on one array of every packet, from
    ``generate_traffic`` and ``resolve_sic``.  The busy time is the duration
    times the count of packets wholly inside [warmup, horizon), plus the
    clipped time of every other packet, added one at a time in packet order."""
    txs = generate_traffic(config)
    starts = np.array([t.start_time for t in txs])
    ok = np.array(resolve_sic(txs, config.sic), dtype=bool)
    warmup, horizon = config.warmup, config.horizon
    span = horizon - warmup
    ends = starts + config.packet_duration
    inside = (starts >= warmup) & (ends <= horizon)
    edge = 0.0
    for busy in (np.clip(ends, warmup, horizon) - np.clip(starts, warmup, horizon))[~inside]:
        edge += float(busy)
    mean_concurrency = (np.count_nonzero(inside) * config.packet_duration + edge) / span
    measured = starts >= warmup
    if not measured.any():
        return SimStats(0, 0, 0.0, mean_concurrency, 0.0, degenerate=True)
    success_times = starts[measured & ok] - warmup
    counts = stats.batch_counts(success_times, span)
    return SimStats(
        offered=int(measured.sum()),
        succeeded=success_times.size,
        normalized_throughput=success_times.size * config.packet_duration / span,
        mean_concurrency=mean_concurrency,
        confidence_half_width=stats.batch_half_width(config.packet_duration, counts, span),
    )


def streamed(config, window):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simcore, "_WINDOW", window)
        return run_simulation(config)


@st.composite
def small_runs(draw):
    """Runs of up to about 4000 packets in either mode, at loads up to
    those where a power-aware cluster holds every packet."""
    duration = draw(st.sampled_from([1.0, 0.37]))
    horizon = draw(st.integers(100, 1000)) * duration
    return SimConfig(
        offered_load_g=draw(st.one_of(st.floats(0.05, 4.0), st.floats(1.0, 4.0))),
        packet_duration=duration,
        horizon=horizon,
        sic=SicModel(draw(st.integers(1, 8)), draw(st.sampled_from(list(SicMode)))),
        seed=draw(st.integers(0, 2**32 - 1)),
        warmup=draw(st.sampled_from([0.0, 0.25, 0.9])) * horizon,
        base_power_dbm=draw(st.sampled_from([0.0, -10.0])),
        shadowing_sigma_db=draw(st.sampled_from([0.0, 6.0])),
    )


# windows of 128 to 4096 packets, small ones often, so that most runs span
# several windows
WINDOWS = st.one_of(st.integers(128, 400), st.integers(128, 4096))


class TestStreaming:
    # _start_windows scales standard exponentials by 1 / rate in place, which
    # gives exponential(1 / rate)'s bits only while numpy computes it so
    @pytest.mark.parametrize("scale", [1.0, 1.0 / 3.0, 1.0 / 40.0, 2.5e-7, 1e300])
    def test_exponentials_are_scaled_standard_exponentials(self, scale):
        expected = np.random.default_rng(9).exponential(scale, size=4096)
        gaps = np.random.default_rng(9).standard_exponential(4096)
        gaps *= scale
        assert gaps.tobytes() == expected.tobytes()

    @settings(deadline=None)
    @given(small_runs(), WINDOWS)
    def test_windows_give_the_one_shot_stats(self, config, window):
        assert streamed(config, window) == one_shot_stats(config)

    @pytest.mark.parametrize("mode", list(SicMode))
    def test_clusters_straddle_window_edges(self, mode):
        config = sim_config(
            g=1.5, horizon=2000.0, degree=4, seed=7, warmup=20.0,
            sic_kw={"mode": mode}, shadowing_sigma_db=6.0,
        )
        starts = np.array([t.start_time for t in generate_traffic(config)])
        opens = np.flatnonzero(starts[1:] >= starts[:-1] + 1.0) + 1
        # at 1.5 packets per duration, many clusters hold a window edge
        edges = np.arange(128, starts.size, 128)
        assert np.isin(edges, opens, invert=True).sum() > 10
        for window in (128, 129, 1000):
            assert streamed(config, window) == one_shot_stats(config)

    @pytest.mark.parametrize("sigma", [1e4, 1e308])
    def test_windows_past_the_mw_overflow(self, sigma):
        # over a third of the powers are infinite in mW, so most clusters
        # that straddle a window edge are decided again one by one on dBm
        config = sim_config(
            g=1.5, horizon=3000.0, degree=4, seed=7, warmup=20.0,
            sic_kw={"mode": SicMode.POWER_AWARE}, shadowing_sigma_db=sigma,
        )
        powers = np.array([t.rx_power_dbm for t in generate_traffic(config)])
        assert np.isinf(simcore._mw(powers)).mean() > 0.3
        for window in (128, 129, 1000):
            assert streamed(config, window) == one_shot_stats(config)

    @pytest.mark.parametrize(
        "g, mode", [(150.0, SicMode.IDEAL), (6.0, SicMode.POWER_AWARE)], ids=["ideal", "power_aware"]
    )
    def test_carry_longer_than_a_window(self, g, mode):
        # 300 packets within two durations in ideal mode; power-aware
        # clusters of thousands of packets
        config = sim_config(
            g=g, horizon=100.0, degree=8, seed=2, warmup=5.0, sic_kw={"mode": mode},
            shadowing_sigma_db=6.0,
        )
        assert streamed(config, 128) == one_shot_stats(config)

    # the busy time adds the clipped time of each packet that crosses the
    # warmup or the horizon one at a time, so where the windows cut the
    # crossers moves no bit

    @pytest.mark.parametrize("mode", list(SicMode))
    def test_warmup_crossers_over_several_windows(self, mode):
        # at 500 packets per duration the packets that start within one
        # duration before the warmup fill several windows of 128; over a span
        # of half a duration every packet crosses an edge, so the order in
        # which their clipped times are added shows in the last bits
        config = sim_config(g=500.0, horizon=100.0, degree=8, seed=1, warmup=99.5,
                            sic_kw={"mode": mode})
        starts = np.array([t.start_time for t in generate_traffic(config)])
        assert np.count_nonzero((starts < 99.5) & (starts + 1.0 > 99.5)) > 3 * 128
        expected = one_shot_stats(config)
        assert expected.mean_concurrency == pytest.approx(500.0, rel=0.02)
        for window in (128, 1000):
            assert streamed(config, window) == expected

    @pytest.mark.parametrize("seed", [2, 25])
    def test_packet_across_both_edges_counts_once(self, seed):
        # a measured span of half a duration; at each seed one packet starts
        # before the warmup and ends past the horizon, which adds the span
        # once; at seed 2 no packet starts inside the span, so the channel is
        # busy for exactly the span and no start is measured
        config = sim_config(g=0.5, horizon=100.0, seed=seed, warmup=99.5)
        starts = np.array([t.start_time for t in generate_traffic(config)])
        assert np.count_nonzero((starts < 99.5) & (starts + 1.0 > 100.0)) == 1
        expected = one_shot_stats(config)
        for window in (1, 2, 128):
            assert streamed(config, window) == expected
        if seed == 2:
            assert expected == SimStats(0, 0, 0.0, 1.0, 0.0, degenerate=True)
        else:
            assert expected.offered > 0 and expected.mean_concurrency > 1.0

    def test_warmup_crosser_without_a_measured_start(self):
        # at seed 0 one packet crosses the warmup and none starts after it:
        # no start is measured, but the channel was busy
        config = sim_config(g=0.5, horizon=100.0, seed=0, warmup=99.5)
        stats = streamed(config, 1)
        assert stats == one_shot_stats(config) == streamed(config, 128)
        assert stats.degenerate and stats.offered == 0
        assert 0.0 < stats.mean_concurrency < 1.0

    @settings(deadline=None, max_examples=30)
    @given(small_runs(), WINDOWS)
    def test_traffic_is_the_one_shot_draw_at_every_window(self, config, window):
        starts, powers = one_shot_traffic(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simcore, "_WINDOW", window)
            txs = generate_traffic(config)
        assert [t.start_time for t in txs] == starts.tolist()
        assert [t.rx_power_dbm for t in txs] == powers.tolist()

    def test_traffic_past_one_chunk_is_the_one_shot_draw(self, monkeypatch):
        # chunks of 0.6 times the expected count plus 16 (math.sqrt sizes
        # them, here and in one_shot_traffic), so the first ends before the
        # horizon, as it does about once in 1e23 runs otherwise
        config = sim_config(g=0.5, horizon=1000.0, seed=3, shadowing_sigma_db=6.0)
        monkeypatch.setattr(math, "sqrt", lambda x: -0.04 * x)
        starts, powers = one_shot_traffic(config)
        assert starts.size > int(0.6 * 500.0 + 16.0)
        for window in (128, 4096):
            monkeypatch.setattr(simcore, "_WINDOW", window)
            txs = generate_traffic(config)
            assert [t.start_time for t in txs] == starts.tolist()
            assert [t.rx_power_dbm for t in txs] == powers.tolist()

    @pytest.mark.parametrize("mode", list(SicMode))
    def test_kept_and_replayed_windows_give_the_one_shot_run(self, mode):
        config = sim_config(
            g=1.5, horizon=2000.0, degree=4, seed=7, warmup=20.0,
            sic_kw={"mode": mode}, shadowing_sigma_db=6.0,
        )
        starts, powers = one_shot_traffic(config)
        expected = one_shot_stats(config)
        # a _KEPT of the packet count keeps every window of the first pass;
        # one less, or 0, and the second pass draws them again
        for kept, draws in ((starts.size, 1), (starts.size - 1, 2), (0, 2)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simcore, "_KEPT", kept)
                patch.setattr(simcore, "_WINDOW", 128)
                calls = []
                draw = simcore._start_windows
                patch.setattr(simcore, "_start_windows", lambda *a: calls.append(a) or draw(*a))
                assert run_simulation(config) == expected
                assert len(calls) == draws
                txs = generate_traffic(config)
            assert [t.start_time for t in txs] == starts.tolist()
            assert [t.rx_power_dbm for t in txs] == powers.tolist()

    @pytest.mark.parametrize("mode", list(SicMode))
    def test_kept_and_replayed_windows_past_one_chunk(self, monkeypatch, mode):
        # the chunks of test_traffic_past_one_chunk_is_the_one_shot_draw
        config = sim_config(
            g=0.5, horizon=1000.0, degree=2, seed=3, warmup=10.0,
            sic_kw={"mode": mode}, shadowing_sigma_db=6.0,
        )
        monkeypatch.setattr(math, "sqrt", lambda x: -0.04 * x)
        starts, powers = one_shot_traffic(config)
        assert starts.size > int(0.6 * 500.0 + 16.0)
        expected = one_shot_stats(config)
        for kept in (starts.size, starts.size - 1, 0):
            for window in (128, 4096):
                monkeypatch.setattr(simcore, "_KEPT", kept)
                monkeypatch.setattr(simcore, "_WINDOW", window)
                assert run_simulation(config) == expected
                txs = generate_traffic(config)
                assert [t.start_time for t in txs] == starts.tolist()
                assert [t.rx_power_dbm for t in txs] == powers.tolist()


def test_memory_past_the_kept_packets_is_bounded():
    # a run of about 1.2e6 packets holds at most _KEPT counted starts, or a
    # few windows of its second pass; all of its starts take 9.6 MB
    config = sim_config(g=1.0, horizon=1.2e6, degree=2, seed=3)
    tracemalloc.start()
    try:
        stats = run_simulation(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.offered > simcore._KEPT
    assert peak < 8 * (simcore._KEPT + 16 * simcore._WINDOW)


class TestDifferencesPastFloatRange:
    # pytest turns a RuntimeWarning into an error, so each of these also
    # checks that numpy warns of nothing
    MODEL = SicModel(2, SicMode.POWER_AWARE)

    def test_spread_past_float_range_decodes_the_strong_packet(self):
        # 1e308 - -1e308 dB is inf: relative to the strong packet the weak
        # one and the noise count zero, relative to the weak one the noise
        # is infinite
        assert _decode_cluster([1e308, -1e308], [0, 1], 2, self.MODEL) == [0]

    def test_infinite_tie_decodes_nothing(self):
        # relative to either of two inf dBm packets the other one is
        # inf - inf, nan, and nan fails the SINR test; the chain stops there
        assert _decode_cluster([math.inf, math.inf], [0, 1], 2, self.MODEL) == []
        three = SicModel(3, SicMode.POWER_AWARE)
        assert _decode_cluster([math.inf, 0.0, math.inf], [0, 1, 2], 3, three) == []
        # one inf dBm packet is no tie: it and the packet after it decode
        assert _decode_cluster([math.inf, 0.0], [0, 1], 2, self.MODEL) == [0, 1]

    def test_shadowing_past_float_range_runs(self):
        # normal offsets of sigma 1e308 dB leave some powers +-inf
        config = sim_config(g=1.0, horizon=200.0, degree=2, shadowing_sigma_db=1e308,
                            sic_kw={"mode": SicMode.POWER_AWARE})
        stats = run_simulation(config)
        assert 0 < stats.succeeded < stats.offered
        assert run_simulation(config) == stats

    def test_base_power_and_shadowing_past_float_range_run(self):
        # a base power of 1e308 dBm plus offsets of sigma 1e308 dB sums past
        # float range, to +inf
        config = sim_config(g=1.0, horizon=200.0, degree=2, base_power_dbm=1e308,
                            shadowing_sigma_db=1e308, sic_kw={"mode": SicMode.POWER_AWARE})
        assert math.inf in [t.rx_power_dbm for t in generate_traffic(config)]
        stats = run_simulation(config)
        assert 0 < stats.succeeded < stats.offered

    @pytest.mark.parametrize("mode", list(SicMode))
    def test_horizon_near_float_max_is_the_run_in_smaller_units(self, mode):
        # at 1.79e308 s the gaps of a chunk, the ends and (at seed 2) the
        # busy time sum past float range; 2**-600 times the duration and the
        # horizon draws the same gaps times 2**-600, so every ratio is the same
        big = SimConfig(1.0, 1.7e306, 1.79e308, SicModel(2, mode), seed=2)
        stats = run_simulation(big)
        assert stats.mean_concurrency * big.horizon == math.inf
        small = replace(big, packet_duration=1.7e306 * 2.0**-600, horizon=1.79e308 * 2.0**-600)
        assert run_simulation(small) == stats
