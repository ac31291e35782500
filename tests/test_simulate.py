"""Exact simulation, observation, and the discrepancy metric."""

import numpy as np
import pytest
from scipy import stats

from crnverify import (
    Dataset,
    Trajectory,
    discrepancy,
    load_dataset,
    observe,
    parse_crn,
    save_dataset,
    simulate,
    simulate_paths,
    states_at,
)
from crnverify.rng import stream

AB = parse_crn("format=1; species A B; param k in [0.1, 10]; reaction decay: A -> B @ k; init A=1;")
SIR = parse_crn(
    "format=1; species S I R;"
    "param ki in [5e-5, 0.003]; param kr in [0.005, 0.2];"
    "reaction infect: S + I -> I + I @ ki; reaction recover: I -> R @ kr;"
    "init S=95, I=5, R=0; conserve 100;"
)
THETA_PHI = (0.002, 0.05)
K_ONE = (1.0,)


def firing_times(n, k=1.0, seed=0):
    paths = simulate_paths(AB, [(k,)] * n, 50.0, stream(seed, 11).spawn(n))
    return np.array([traj.times[1] if len(traj.times) > 1 else np.nan for traj in paths])


class TestSimulate:
    def test_mean_firing_time_matches_exponential(self):
        times = firing_times(10000)
        times = times[~np.isnan(times)]
        se = 1.0 / np.sqrt(len(times))  # std of Exp(1) is 1
        assert abs(times.mean() - 1.0) <= 3 * se

    def test_firing_time_distribution_ks(self):
        # fixed seed guards against flakiness at the 0.01 level
        times = firing_times(10000, k=0.7, seed=3)
        times = times[~np.isnan(times)]
        result = stats.kstest(times, stats.expon(scale=1 / 0.7).cdf)
        assert result.pvalue > 0.01

    def test_no_reaction_net_holds_to_horizon(self):
        net = parse_crn("format=1; species A; param k in [0, 1]; init A=3;")
        traj = simulate(net, (0.5,), 10.0, stream(1, 2))
        assert len(traj.times) == 1
        assert traj.horizon == 10.0
        assert tuple(states_at(traj, [10.0])[0]) == (3,)

    def test_sir_case_study_satisfaction_rate_exceeds_bound(self):
        from crnverify import check_until, parse_csl

        f = parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]")
        hits = 0
        for traj in simulate_paths(SIR, [THETA_PHI] * 1000, 150.0, stream(7, 1).spawn(1000)):
            if check_until(traj, f.path.phi1, f.path.phi2, 100.0, 150.0, SIR.species_index()).satisfied:
                hits += 1
        assert hits / 1000 > 0.1

    def test_trajectory_steps_match_reaction_stoichiometry(self):
        traj = simulate(SIR, THETA_PHI, 150.0, stream(123, 0))
        deltas = {(-1, 1, 0), (0, -1, 1)}
        steps = np.diff(traj.states, axis=0)
        assert {tuple(s) for s in steps.tolist()} <= deltas
        assert np.all(traj.states >= 0)

    def test_sir_conservation_at_every_event(self):
        traj = simulate(SIR, THETA_PHI, 150.0, stream(99, 0))
        assert np.all(traj.states.sum(axis=1) == 100)

    def test_entry_times_strictly_increasing_from_zero(self):
        traj = simulate(SIR, THETA_PHI, 150.0, stream(5, 5))
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)

    def test_determinism_bit_exact(self):
        a = simulate(SIR, THETA_PHI, 150.0, stream(2024, 1))
        b = simulate(SIR, THETA_PHI, 150.0, stream(2024, 1))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)


class TestStateAt:
    @pytest.fixture()
    def hand_path(self):
        return Trajectory(
            states=np.array([[5, 0], [4, 1], [3, 2]]),
            times=np.array([0.0, 1.5, 4.0]),
            horizon=10.0,
        )

    def test_time_zero_is_initial_state(self, hand_path):
        assert tuple(states_at(hand_path, [0.0])[0]) == (5, 0)

    def test_jump_instant_is_post_jump(self, hand_path):
        assert tuple(states_at(hand_path, [1.5])[0]) == (4, 1)

    def test_between_jumps_is_pre_jump(self, hand_path):
        assert tuple(states_at(hand_path, [3.9])[0]) == (4, 1)

    def test_outside_horizon_raises(self, hand_path):
        with pytest.raises(ValueError):
            states_at(hand_path, [10.1])
        with pytest.raises(ValueError):
            states_at(hand_path, [-0.1])


class TestObserve:
    def test_zero_sigma_reproduces_counts_exactly(self):
        traj = simulate(SIR, THETA_PHI, 150.0, stream(11, 0))
        times = np.linspace(7.5, 150.0, 20)
        data = observe(traj, times, 0.0, stream(11, 1), species=SIR.species_names())
        for t, row in zip(data.times, data.observations):
            assert np.array_equal(row, states_at(traj, [t])[0].astype(float))

    def test_noise_standard_deviation(self):
        # 10000 repeated observations of a single fixed time point
        traj = simulate(SIR, THETA_PHI, 150.0, stream(12, 0))
        rng = stream(12, 1)
        diffs = []
        x = states_at(traj, [50.0])[0].astype(float)
        for _ in range(10000):
            data = observe(traj, [50.0], 2.0, rng, species=SIR.species_names())
            diffs.extend((data.observations[0] - x).tolist())
        sd = np.std(diffs)
        assert abs(sd - 2.0) / 2.0 < 0.05

    def test_identity_observation_has_n_components(self):
        traj = simulate(SIR, THETA_PHI, 150.0, stream(13, 0))
        data = observe(traj, [10.0, 20.0], 0.0, stream(13, 1), species=SIR.species_names())
        assert data.observations.shape == (2, 3)


class TestDiscrepancy:
    def test_perfect_match_is_zero(self):
        traj = simulate(SIR, THETA_PHI, 150.0, stream(21, 0))
        times = np.linspace(10.0, 150.0, 15)
        data = observe(traj, times, 0.0, stream(21, 1), species=SIR.species_names())
        assert discrepancy(data, traj) == 0.0

    def test_single_component_by_hand(self):
        sim = Trajectory(states=np.array([[4]]), times=np.array([0.0]), horizon=5.0)
        data = Dataset(times=np.array([1.0]), observations=np.array([[7.0]]), species=("A",), sigma=0.0)
        assert discrepancy(data, sim) == pytest.approx(3.0)

    def test_two_observations_by_hand(self):
        # differences (3,0,0) and (0,4,0): sqrt(9+16) = 5
        sim = Trajectory(states=np.array([[1, 1, 1]]), times=np.array([0.0]), horizon=5.0)
        data = Dataset(
            times=np.array([1.0, 2.0]),
            observations=np.array([[4.0, 1.0, 1.0], [1.0, 5.0, 1.0]]),
            species=("S", "I", "R"),
            sigma=0.0,
        )
        assert discrepancy(data, sim) == pytest.approx(5.0)

    def test_short_horizon_raises(self):
        sim = Trajectory(states=np.array([[4]]), times=np.array([0.0]), horizon=5.0)
        data = Dataset(times=np.array([9.0]), observations=np.array([[4.0]]), species=("A",), sigma=0.0)
        with pytest.raises(ValueError):
            discrepancy(data, sim)


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        traj = simulate(SIR, THETA_PHI, 150.0, stream(31, 0))
        times = np.linspace(7.5, 150.0, 20)
        data = observe(traj, times, 2.0, stream(31, 1), species=SIR.species_names())
        path = tmp_path / "d.csv"
        save_dataset(data, path, meta={"seed": 31})
        loaded = load_dataset(path)
        assert loaded.species == ("S", "I", "R")
        assert np.array_equal(loaded.times, data.times)
        assert np.array_equal(loaded.observations, data.observations)
        assert loaded.sigma == 2.0

    def test_header_shape(self, tmp_path):
        traj = simulate(SIR, THETA_PHI, 150.0, stream(32, 0))
        data = observe(traj, [10.0], 0.0, stream(32, 1), species=SIR.species_names())
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# format=1"
        assert any(line == "time,S,I,R" for line in lines)

    def test_missing_format_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,S\n1.0,2.0\n")
        from crnverify import ParseError

        with pytest.raises(ParseError):
            load_dataset(path)
