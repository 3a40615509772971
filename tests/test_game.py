"""XOR game evaluation, strategies, and the normalization identity."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohsim.experiment import ExperimentConfig, paradox_counts, paradox_p_value
from cohsim.game import (
    GameEvaluation,
    coherence_term,
    quantum_strategy,
    winning_probability,
)
from cohsim.measurement import JointDistribution, expectation
from cohsim.paradox import lhv_mixture_test, theoretical_values
from cohsim.reports import (
    CURVE_THETAS,
    _game_spec,
    game_exact_rows,
    game_simulated_rows,
    paradox_sources,
)
from cohsim.states import EQ_ATOL, werner_mix

from .test_measurement import PROPERTY_SETTINGS

THETAS = (math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 4)
TABLE_P_WIN_X = (0.5625, 0.5883883476483184, 0.6082531754730548, 0.625)


def random_distribution(seed: int) -> JointDistribution:
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.0, 1.0, size=(2, 2, 2, 2))
    probs /= probs.sum(axis=(0, 1), keepdims=True)
    return JointDistribution(probs)


class TestTransverseStrategy:
    @pytest.mark.parametrize("theta,expected", list(zip(THETAS, TABLE_P_WIN_X)))
    def test_table_values(self, theta, expected):
        ev = winning_probability(quantum_strategy(theta, "X", "X"))
        assert ev.p_win == pytest.approx(expected, abs=1e-10)
        assert ev.p_win == pytest.approx(0.5 + math.sin(2 * theta) / 8.0, abs=1e-12)

    def test_mirrored_axis_loses_the_gain(self):
        # Swapping party B's outcome labels (measuring -X) flips the
        # interference term.
        theta = math.pi / 4
        mirrored = JointDistribution(quantum_strategy(theta, "X", "X").probs[:, ::-1])
        ev = winning_probability(mirrored)
        assert ev.p_win == pytest.approx(0.5 - math.sin(2 * theta) / 8.0, abs=1e-10)
        assert ev.p_win == pytest.approx(0.375, abs=1e-10)

    def test_sweep_matches_closed_form(self):
        for i in range(1, 20):
            theta = i * (math.pi / 2) / 20
            ev = winning_probability(quantum_strategy(theta, "X", "X"))
            assert ev.p_win == pytest.approx(
                0.5 + math.sin(2 * theta) / 8.0, abs=1e-12
            )

    def test_uniform_row_is_protocol(self):
        dist = quantum_strategy(0.7, "X", "X")
        np.testing.assert_array_equal(dist.probs[:, :, 1, 1], np.full((2, 2), 0.25))


class TestParallelStrategy:
    @pytest.mark.parametrize("theta", THETAS + (0.3, 1.2))
    def test_constant_five_eighths(self, theta):
        ev = winning_probability(quantum_strategy(theta, "Z", "Z"))
        assert ev.p_win == pytest.approx(0.625, abs=1e-12)

    def test_diagonal_terms_quarter_for_all_theta(self):
        for theta in THETAS:
            ev = winning_probability(quantum_strategy(theta, "Z", "Z"))
            assert ev.i_terms[0, 0] == pytest.approx(0.25, abs=1e-12)
            assert ev.i_terms[1, 1] == pytest.approx(0.25, abs=1e-12)

    def test_off_diagonal_terms_depend_on_theta(self):
        # At the balanced angle all four terms are +-1/4; away from it
        # the off-diagonal ones move while p_win stays fixed.
        balanced = winning_probability(quantum_strategy(math.pi / 4, "Z", "Z"))
        np.testing.assert_allclose(
            balanced.i_terms, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12
        )
        skewed = winning_probability(quantum_strategy(math.pi / 6, "Z", "Z"))
        assert skewed.i_terms[0, 1] == pytest.approx(
            math.cos(math.pi / 6) ** 2 - 0.75, abs=1e-12
        )
        assert skewed.i_terms[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert skewed.i_terms[1, 0] == pytest.approx(
            math.sin(math.pi / 6) ** 2 - 0.75, abs=1e-12
        )


class TestIdentities:
    def test_coherence_terms_sum_to_zero(self):
        for seed in range(100):
            ev = winning_probability(random_distribution(seed + 1000))
            assert float(ev.i_terms.sum()) == pytest.approx(0.0, abs=1e-10)

    def test_input_independent_distribution_scores_half(self):
        table = np.array([[0.4, 0.1], [0.2, 0.3]])
        probs = np.repeat(table[:, :, None, None], 2, axis=2).repeat(2, axis=3)
        ev = winning_probability(JointDistribution(probs))
        assert ev.p_win == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(ev.i_terms, np.zeros((2, 2)), atol=1e-12)

    def test_coherence_term_definition(self):
        dist = random_distribution(77)
        expected = (
            dist.prob(0, 1, 0, 0)
            - dist.prob(0, 1, 0, 1)
            - dist.prob(0, 1, 1, 0)
            + dist.prob(0, 1, 1, 1)
        )
        assert coherence_term(dist, 0, 1) == pytest.approx(expected, abs=1e-14)


class TestStrategyValidation:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.2])
    def test_rejects_boundary_theta(self, theta):
        with pytest.raises(ValueError):
            quantum_strategy(theta, "X", "X")

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            quantum_strategy(0.5, "Q", "X")


class TestGameEvaluation:
    def test_validation(self):
        with pytest.raises(ValueError):
            GameEvaluation(p_win=1.2, i_terms=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            GameEvaluation(p_win=0.5, i_terms=np.zeros(3))


class TestGameSpec:
    """The game as a paradox spec: source 00 claimed to mix 01 and 10 on
    the strategy's chain, judged by the paradox verdict and p-value."""

    @PROPERTY_SETTINGS
    @given(
        theta=st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True),
        v=st.floats(0.0, 1.0),
    )
    def test_gap_of_werner_born_values(self, theta, v):
        sources = paradox_sources(theta)
        for strategy, want in (("x", v * math.sin(2.0 * theta)), ("z", 0.0)):
            spec = _game_spec(theta, strategy)
            born = {
                (label, chain): expectation(werner_mix(sources[label], v), chain)
                for label, chain in spec.observation_keys()
            }
            gap = lhv_mixture_test(spec, born, tol=EQ_ATOL).violation_gap
            assert abs(gap - want) <= 1e-15

    @pytest.mark.parametrize("strategy", ["x", "z"])
    def test_win_advantage_over_mixture_bound_is_gap_over_eight(self, strategy):
        # The game module's bound for an incoherent (0,0) source.
        for row in game_exact_rows(CURVE_THETAS, strategy):
            spec = _game_spec(row["theta"], strategy)
            values = theoretical_values(spec)
            e_01, e_10 = (values[key] for key in spec.observation_keys()[1:])
            bound = 0.5 + (max(e_01, e_10) - e_01 - e_10) / 8.0
            gap = lhv_mixture_test(spec, values, tol=EQ_ATOL).violation_gap
            assert abs(row["p_win"] - bound - gap / 8.0) <= 1e-15

    def test_spec_order_and_claim(self):
        spec = _game_spec(0.3, "z")
        assert spec.observation_keys() == (("00", "ZZ"), ("01", "ZZ"), ("10", "ZZ"))
        assert spec.mixture_claim.mixed_label == "00"
        assert spec.mixture_claim.component_labels == ("01", "10")

    def test_z_spec_at_an_angle_whose_born_value_leaves_the_range(self):
        # Born's -1.0000000000000002 here would be refused as an expected value.
        theta = 0.0006283195299179586
        assert theoretical_values(_game_spec(theta, "z"))[("00", "ZZ")] == -1.0

    @pytest.mark.parametrize("theta", THETAS)
    def test_x_counts_refute_the_mixture(self, theta):
        spec = _game_spec(theta, "x")
        counts = paradox_counts(spec, paradox_sources(theta), ExperimentConfig(visibility_v=0.99))
        _p, log10_p = paradox_p_value(spec, counts)
        assert log10_p < -15.0

    @pytest.mark.parametrize("theta", THETAS)
    def test_z_counts_leave_the_mixture_standing(self, theta):
        spec = _game_spec(theta, "z")
        counts = paradox_counts(spec, paradox_sources(theta), ExperimentConfig())
        assert paradox_p_value(spec, counts) == (1.0, 0.0)

    @pytest.mark.parametrize("strategy", ["x", "z"])
    def test_simulated_rows_read_a_generator_of_angles_once(self, strategy):
        # A generator once lost every estimate column: the exact rows used it up.
        cfg = ExperimentConfig(pair_rate=1.0e4, duration_per_setting=0.1, seed=5)
        want = game_simulated_rows(THETAS, strategy, cfg, tag_base=7)
        assert "e_00" in want[0]
        assert game_simulated_rows((t for t in THETAS), strategy, cfg, tag_base=7) == want
