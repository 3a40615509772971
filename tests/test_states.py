"""State constructors, validation, mixing, and fidelity."""

import math

import numpy as np
import pytest

from cohsim.states import (
    EPR_LABELS,
    MAX_QUBITS,
    DensityOperator,
    StateVector,
    density_from_state,
    dicke_one_excitation,
    epr_family,
    fidelity,
    ghz_state,
    werner_mix,
)


def random_state(num_qubits: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(amps / np.linalg.norm(amps))


NONFINITE = [math.nan, math.inf, -math.inf, complex(math.nan, 0.0)]


class TestStateVector:
    def test_accepts_normalized_vector(self):
        psi = StateVector(np.array([1.0, 0.0]))
        assert psi.num_qubits == 1
        assert psi.dim == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0]))

    def test_rejects_too_many_qubits(self):
        dim = 2 ** (MAX_QUBITS + 1)
        amps = np.zeros(dim)
        amps[0] = 1.0
        with pytest.raises(ValueError):
            StateVector(amps)

    def test_amplitudes_are_read_only(self):
        psi = epr_family(math.pi / 4, "00")
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_tiny_norm_slack_accepted(self):
        amps = np.array([1.0 + 5e-13, 0.0])
        assert StateVector(amps).dim == 2

    @pytest.mark.parametrize("bad", NONFINITE, ids=repr)
    def test_rejects_nonfinite_entry(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StateVector(np.array([bad, 0.0]))

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_rejects_nonfinite_entry_in_every_position(self, n):
        # Finiteness is read off the norm; no position or kind of
        # non-finite part may leave the norm finite.
        bads = NONFINITE + [complex(0.0, math.inf), complex(-math.inf, math.nan)]
        base = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
        for pos in range(2**n):
            for bad in bads:
                amps = base.copy()
                amps[pos] = bad
                with pytest.raises(ValueError, match="must be finite"):
                    StateVector(amps)

    @pytest.mark.parametrize(
        "big", [1e200, -1e200, 1e200j, complex(1e200, 1e200), 1e155], ids=repr
    )
    def test_overflowing_square_raises_norm_error(self, big):
        # |a|^2 overflows to inf, or to NaN when both parts are huge; the
        # entry is finite, so the refusal is the norm's.
        amps = np.array([0.0, big, 0.0, 0.0])
        with pytest.raises(ValueError, match="state vector norm (inf|nan) is not 1"):
            StateVector(amps)


class TestDensityOperator:
    def test_accepts_maximally_mixed(self):
        rho = DensityOperator(np.eye(4) / 4.0)
        assert rho.num_qubits == 2

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            DensityOperator(mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            DensityOperator(mat)

    def test_matrix_is_read_only(self):
        rho = DensityOperator(np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("bad", NONFINITE, ids=repr)
    def test_rejects_nonfinite_entry(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestEprFamily:
    def test_product_state_01(self):
        psi = epr_family(0.3, "01")
        expected = np.zeros(4)
        expected[0b01] = 1.0
        np.testing.assert_allclose(psi.amplitudes, expected)

    def test_product_state_10(self):
        psi = epr_family(0.3, "10")
        expected = np.zeros(4)
        expected[0b10] = 1.0
        np.testing.assert_allclose(psi.amplitudes, expected)

    def test_superposition_amplitudes(self):
        theta = math.pi / 6
        psi = epr_family(theta, "00")
        assert psi.amplitudes[0b01] == pytest.approx(math.cos(theta), abs=1e-15)
        assert psi.amplitudes[0b10] == pytest.approx(math.sin(theta), abs=1e-15)
        assert psi.amplitudes[0b00] == 0.0
        assert psi.amplitudes[0b11] == 0.0

    def test_theta_ignored_for_products(self):
        a = epr_family(0.1, "01")
        b = epr_family(1.2, "01")
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.1, 2.0])
    def test_superposition_rejects_boundary_theta(self, theta):
        with pytest.raises(ValueError):
            epr_family(theta, "00")

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="label"):
            epr_family(0.3, "11")

    def test_labels_constant(self):
        assert EPR_LABELS == ("01", "10", "00")


class TestGhzState:
    def test_amplitudes(self):
        psi = ghz_state(3)
        expected = np.zeros(8)
        expected[0] = expected[7] = 1.0 / math.sqrt(2)
        np.testing.assert_allclose(psi.amplitudes, expected)

    @pytest.mark.parametrize("n", [1, MAX_QUBITS + 1])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            ghz_state(n)


class TestDickeOneExcitation:
    def test_amplitudes_uniform_weight_one(self):
        n = 4
        psi = dicke_one_excitation(n)
        nonzero = np.flatnonzero(np.abs(psi.amplitudes) > 0)
        assert sorted(nonzero) == [1, 2, 4, 8]
        np.testing.assert_allclose(
            psi.amplitudes[nonzero], np.full(n, 1.0 / math.sqrt(n))
        )

    def test_n2_matches_balanced_superposition(self):
        # sin(pi/4) is bit-identical to 1/sqrt(2); cos(pi/4) sits one ulp
        # away, so the comparison is at machine precision, not equality.
        a = dicke_one_excitation(2).amplitudes
        b = epr_family(math.pi / 4, "00").amplitudes
        assert np.max(np.abs(a - b)) < 1e-15

    @pytest.mark.parametrize("n", [0, 1, MAX_QUBITS + 1])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            dicke_one_excitation(n)


class TestWernerMix:
    def test_v1_is_pure(self):
        psi = epr_family(math.pi / 4, "00")
        rho = werner_mix(psi, 1.0)
        np.testing.assert_allclose(
            rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-14
        )

    def test_v0_is_maximally_mixed(self):
        rho = werner_mix(epr_family(math.pi / 4, "00"), 0.0)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-14)

    def test_intermediate_spectrum(self):
        v = 0.8
        rho = werner_mix(epr_family(math.pi / 4, "00"), v)
        eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
        np.testing.assert_allclose(
            eigs, [(1 - v) / 4] * 3 + [v + (1 - v) / 4], atol=1e-12
        )

    @pytest.mark.parametrize("v", [-0.01, 1.01])
    def test_rejects_bad_visibility(self, v):
        with pytest.raises(ValueError):
            werner_mix(epr_family(math.pi / 4, "00"), v)

    def test_accepts_density_input(self):
        rho_in = density_from_state(epr_family(math.pi / 4, "00"))
        rho = werner_mix(rho_in, 0.5)
        assert rho.num_qubits == 2

    def test_vector_input_validated_once(self, monkeypatch):
        checks = []
        check = DensityOperator.__post_init__
        monkeypatch.setattr(
            DensityOperator, "__post_init__", lambda rho: checks.append(1) or check(rho)
        )
        psi = random_state(3, 17)
        rho = werner_mix(psi, 0.7)
        assert len(checks) == 1
        # The same bytes as mixing the validated projector.
        want = werner_mix(density_from_state(psi), 0.7)
        assert rho.matrix.tobytes() == want.matrix.tobytes()


class TestDensityFromState:
    def test_rank_one_projector(self):
        psi = random_state(2, 5)
        rho = density_from_state(psi)
        np.testing.assert_allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-12)
        assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_identical_states(self):
        psi = random_state(2, 1)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity(epr_family(0, "01"), epr_family(0, "10")) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_pure_pure_is_overlap_magnitude(self):
        a, b = random_state(2, 2), random_state(2, 3)
        expected = abs(np.vdot(a.amplitudes, b.amplitudes))
        assert fidelity(a, b) == pytest.approx(expected, abs=1e-12)

    def test_pure_mixed_shortcut_matches_general(self):
        # The general path takes a matrix square root whose spectrum has
        # near-zero eigenvalues for a rank-one input, so its error is of
        # order sqrt(machine epsilon); the shortcut is the sharper one.
        psi = random_state(2, 4)
        rho = werner_mix(random_state(2, 5), 0.7)
        via_shortcut = fidelity(psi, rho)
        via_general = fidelity(density_from_state(psi), rho)
        assert via_shortcut == pytest.approx(via_general, abs=1e-7)

    def test_werner_closed_form(self):
        # A pure target against its own Werner mixture: sqrt(v + (1-v)/4).
        psi = epr_family(math.pi / 4, "00")
        for v in (0.98, 0.99, 0.5):
            expected = math.sqrt(v + (1.0 - v) / 4.0)
            assert fidelity(psi, werner_mix(psi, v)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_symmetry(self):
        rho = werner_mix(random_state(2, 6), 0.6)
        sigma = werner_mix(random_state(2, 7), 0.3)
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-10)

    def test_range(self):
        for seed in range(10):
            rho = werner_mix(random_state(2, seed), 0.4)
            sigma = werner_mix(random_state(2, seed + 100), 0.9)
            value = fidelity(rho, sigma)
            assert 0.0 <= value <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(random_state(1, 0), random_state(2, 0))
