"""XOR game evaluation, strategies, and the normalization identity."""

import json
import math

import numpy as np
import pytest

from cohsim.game import (
    GameEvaluation,
    coherence_term,
    quantum_strategy,
    winning_probability,
)
from cohsim.measurement import JointDistribution

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
        # Flipping one party's axis sign flips the interference term.
        theta = math.pi / 4
        ev = winning_probability(quantum_strategy(theta, "X", "-X"))
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
        np.testing.assert_array_equal(dist.setting(1, 1), np.full((2, 2), 0.25))


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
    def test_identity_holds_for_random_distributions(self):
        # p_win = 1/2 + (I_00 + I_11)/4 is algebra, not physics: it must
        # hold for every normalized table.
        for seed in range(100):
            dist = random_distribution(seed)
            ev = winning_probability(dist)
            assert ev.identity_holds
            assert ev.p_win == pytest.approx(
                0.5 + (ev.i_terms[0, 0] + ev.i_terms[1, 1]) / 4.0, abs=1e-10
            )

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
            GameEvaluation(p_win=1.2, i_terms=np.zeros((2, 2)), identity_holds=True)
        with pytest.raises(ValueError):
            GameEvaluation(p_win=0.5, i_terms=np.zeros(3), identity_holds=True)

    def test_to_dict_round_trip(self):
        ev = winning_probability(quantum_strategy(math.pi / 4, "X", "X"))
        doc = json.loads(json.dumps(ev.to_dict()))
        assert doc["p_win"] == pytest.approx(0.625)
        assert set(doc["i_terms"]) == {"00", "01", "10", "11"}
        assert doc["identity_holds"] is True
