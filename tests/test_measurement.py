"""Observables, outcome projectors, Born-rule tables, and correlators."""

import functools
import itertools
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cohsim
from cohsim.measurement import (
    AXES,
    JointDistribution,
    ObservableChain,
    _pauli_action,
    as_chain,
    expectation,
    setting_distribution,
)
from cohsim.states import (
    MAX_QUBITS,
    DensityOperator,
    StateVector,
    dicke_one_excitation,
    epr_family,
    ghz_state,
    werner_mix,
)

from .test_states import projector, random_state

# Dense single-qubit Pauli matrices, for the np.kron oracles here and in
# the tomography tests.
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_expectation(state, chain):
    """Reference value from the full ``2^n x 2^n`` ``np.kron`` operator."""
    op = np.array([[1.0 + 0j]])
    for ax in as_chain(chain).axes:
        op = np.kron(op, PAULI[ax])
    if isinstance(state, StateVector):
        v = state.amplitudes
        return float(complex(np.conj(v) @ (op @ v)).real)
    return float(complex(np.trace(op @ state.matrix)).real)


# Eigenvectors for eigenvalues +1 and -1 of each axis: the oracle's own
# projectors, built without the Pauli-expectation form under test.
_SQ2 = 1.0 / math.sqrt(2.0)
EIGVECS = {
    "X": ([_SQ2, _SQ2], [_SQ2, -_SQ2]),
    "Y": ([_SQ2, 1j * _SQ2], [_SQ2, -1j * _SQ2]),
    "Z": ([1.0, 0.0], [0.0, 1.0]),
}


def dense_projectors(axis):
    """``(P0, P1)`` of the axis (``"X"``, ``"Y"`` or ``"Z"``) from its eigenvectors."""
    return tuple(np.outer(v, np.conj(v)) for v in map(np.asarray, EIGVECS[axis]))


def dense_setting_distribution(state, obs_a, obs_b):
    """Reference ``p[a, b] = tr((P_a (x) P_b) rho)`` from ``np.kron`` projectors."""
    if isinstance(state, StateVector):
        state = projector(state)
    pa, pb = dense_projectors(obs_a), dense_projectors(obs_b)
    return np.array(
        [[np.trace(np.kron(pa[a], pb[b]) @ state.matrix).real for b in range(2)] for a in range(2)]
    )


def random_density(num_qubits, seed):
    """Rank-two mixture of two random pure states."""
    a = projector(random_state(num_qubits, seed)).matrix
    b = projector(random_state(num_qubits, seed + 1)).matrix
    return DensityOperator(0.6 * a + 0.4 * b)


class TestPauli:
    def test_matrices(self):
        np.testing.assert_array_equal(PAULI["I"], np.eye(2))
        np.testing.assert_array_equal(PAULI["X"], [[0, 1], [1, 0]])
        np.testing.assert_array_equal(PAULI["Y"], [[0, -1j], [1j, 0]])
        np.testing.assert_array_equal(PAULI["Z"], [[1, 0], [0, -1]])

    def test_axes_tuple(self):
        assert AXES == ("X", "Y", "Z")


class TestProjectors:
    """The outcome convention ``P_a = (I + (-1)^a M)/2``, seen through tables."""

    @pytest.mark.parametrize("axis", AXES)
    def test_complete_and_idempotent(self, axis):
        # An eigenstate of the measured axis gives its outcome with
        # certainty (P0 P0 = P0, P0 P1 = 0) on either qubit ...
        plus = np.asarray(EIGVECS[axis][0])
        zero = np.array([1.0, 0.0])
        table = setting_distribution(StateVector(np.kron(plus, zero)), axis, "Z")
        np.testing.assert_allclose(table, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
        table = setting_distribution(StateVector(np.kron(zero, plus)), "Z", axis)
        np.testing.assert_allclose(table, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
        # ... and P0 + P1 = I: one party's marginal ignores the other's axis.
        psi = random_state(2, 31)
        rows = [setting_distribution(psi, axis, other).sum(axis=1) for other in AXES]
        cols = [setting_distribution(psi, other, axis).sum(axis=0) for other in AXES]
        for got in rows[1:]:
            np.testing.assert_allclose(got, rows[0], atol=1e-15)
        for got in cols[1:]:
            np.testing.assert_allclose(got, cols[0], atol=1e-15)

    @pytest.mark.parametrize("axis", AXES)
    def test_difference_is_pauli(self, axis):
        # P0 - P1 = M on each side, and on both together.
        for state in (random_state(2, 41), random_density(2, 43)):
            for other in AXES:
                table = setting_distribution(state, axis, other)
                marg_a = table[0, :].sum() - table[1, :].sum()
                corr = table[0, 0] - table[0, 1] - table[1, 0] + table[1, 1]
                want_a = dense_expectation(state, axis + "I")
                want_ab = dense_expectation(state, axis + other)
                assert marg_a == pytest.approx(want_a, abs=1e-15)
                assert corr == pytest.approx(want_ab, abs=1e-15)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            setting_distribution(epr_family(0.4, "00"), "W", "Z")

    def test_chain_is_not_a_setting_axis(self):
        with pytest.raises(ValueError, match="setting axis"):
            setting_distribution(epr_family(0.4, "00"), as_chain("X"), "Z")


class TestObservableChain:
    def test_chain_string_round_trip(self):
        chain = as_chain("XYZ")
        assert chain.axes == ("X", "Y", "Z")
        assert chain.label == "XYZ"

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            ObservableChain(("X", "Q"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ObservableChain(())

    @pytest.mark.parametrize("text", ["zz", " ZZ "], ids=repr)
    def test_chain_text_read_as_written(self, text):
        # Lower case and padding are no chain, as they are no setting axis.
        with pytest.raises(ValueError, match="unknown axis"):
            expectation(epr_family(0.4, "00"), text)

    def test_as_chain_accepts_chain_string_iterable(self):
        chain = ObservableChain(("X", "Y"))
        assert as_chain(chain) is chain
        assert as_chain("XY") == chain
        assert as_chain(["X", "Y"]) == chain


class TestExpectation:
    def test_z_on_computational_basis(self):
        assert expectation(StateVector([1.0, 0.0]), "Z") == pytest.approx(1.0)
        assert expectation(StateVector([0.0, 1.0]), "Z") == pytest.approx(-1.0)

    def test_x_on_plus(self):
        plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
        assert expectation(plus, "X") == pytest.approx(1.0, abs=1e-12)

    def test_zz_on_family(self):
        assert expectation(epr_family(0.4, "01"), "ZZ") == pytest.approx(-1.0)
        assert expectation(epr_family(0.4, "10"), "ZZ") == pytest.approx(-1.0)
        assert expectation(epr_family(0.4, "00"), "ZZ") == pytest.approx(-1.0)

    def test_xx_on_superposition_is_sin_two_theta(self):
        for theta in (0.2, math.pi / 8, math.pi / 4, 1.1):
            value = expectation(epr_family(theta, "00"), "XX")
            assert value == pytest.approx(math.sin(2 * theta), abs=1e-12)

    def test_ghz_stabilizers(self):
        ghz = ghz_state(3)
        assert expectation(ghz, "XXX") == pytest.approx(1.0, abs=1e-12)
        for chain in ("XYY", "YXY", "YYX"):
            assert expectation(ghz, chain) == pytest.approx(-1.0, abs=1e-12)

    def test_vector_and_density_agree(self):
        for seed in range(20):
            psi = random_state(2, seed)
            rho = projector(psi)
            for chain in ("XX", "XY", "ZZ", "YZ", "IZ", "XI"):
                assert expectation(psi, chain) == pytest.approx(
                    expectation(rho, chain), abs=1e-12
                )

    def test_matches_dense_oracle(self):
        # Every phase is one of +-1, +-i, so the mask/phase kernel must
        # reproduce the dense Kronecker contraction to the last bit.
        rng = np.random.default_rng(42)
        for n in range(1, 9):
            if n <= 2:
                chains = ["".join(c) for c in itertools.product("IXYZ", repeat=n)]
            else:
                chains = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(8)]
            for k, chain in enumerate(chains):
                seed = 1000 * n + 2 * k
                for state in (random_state(n, seed), random_density(n, seed)):
                    assert expectation(state, chain) == dense_expectation(state, chain), (
                        n,
                        chain,
                        type(state).__name__,
                    )

    def test_qubit_order_matches_kron(self):
        # Qubit 0 is the leftmost Kronecker factor: |01> has Z_0 = +1, Z_1 = -1.
        ket01 = StateVector([0.0, 1.0, 0.0, 0.0])
        assert expectation(ket01, "ZI") == 1.0
        assert expectation(ket01, "IZ") == -1.0
        psi = random_state(2, 3)
        assert expectation(psi, "XZ") == dense_expectation(psi, "XZ")
        assert expectation(psi, "XZ") != pytest.approx(expectation(psi, "ZX"), abs=1e-6)

    def test_identity_factor_is_marginal(self):
        # "I" leaves its qubit alone: <Z (x) I> on |psi>|0> equals <Z> on |psi>.
        psi = random_state(1, 11)
        joint = StateVector(np.kron(psi.amplitudes, [1.0, 0.0]))
        for ax in AXES:
            assert expectation(joint, ax + "I") == pytest.approx(expectation(psi, ax), abs=1e-15)
            assert expectation(werner_mix(joint, 0.5), ax + "I") == pytest.approx(
                0.5 * expectation(psi, ax), abs=1e-15
            )

    def test_closed_forms_at_max_qubits(self):
        n = MAX_QUBITS
        ghz = ghz_state(n)
        assert expectation(ghz, "X" * n) == pytest.approx(1.0, abs=1e-12)
        assert expectation(ghz, "Z" * n) == pytest.approx(1.0, abs=1e-12)
        # k Y factors and n - k X factors give cos(k pi / 2): all four phases of (-i)^k.
        for k in range(n + 1):
            chain = "Y" * k + "X" * (n - k)
            assert expectation(ghz, chain) == pytest.approx(math.cos(k * math.pi / 2), abs=1e-12)
        # One excitation: odd Z parity on every branch, and the mixed
        # chain (X everywhere but one Z) vanishes for n != 3.
        dicke = dicke_one_excitation(n)
        assert expectation(dicke, "Z" * n) == pytest.approx(-1.0, abs=1e-12)
        for z in range(n):
            mixed = "X" * z + "Z" + "X" * (n - 1 - z)
            assert expectation(dicke, mixed) == pytest.approx(0.0, abs=1e-12)
        # Two-site marginals of the one-excitation state: <X_i X_j> = 2/n.
        assert expectation(dicke, "XX" + "I" * (n - 2)) == pytest.approx(2.0 / n, abs=1e-12)

    def test_no_dense_operator_at_max_qubits(self):
        # The dense operator alone would be 2^10 x 2^10 complex = 16 MB.
        n = MAX_QUBITS
        psi = random_state(n, 5)
        rho = werner_mix(ghz_state(n), 0.5)
        for state in (psi, rho):
            tracemalloc.start()
            try:
                expectation(state, "XYZI" * (n // 4) + "Y" * (n % 4))
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, (type(state).__name__, peak)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            expectation(epr_family(0.4, "00"), "XXX")

    def test_imaginary_part_above_tolerance_refused(self):
        # A density is Hermitian within NORM_ATOL entry by entry, so at 9
        # qubits an anti-Hermitian diagonal of 4e-13 per entry passes its
        # checks, yet adds up to an imaginary <Z...Z> of about 2e-10.
        n = 9
        parity = np.array([bin(i).count("1") % 2 for i in range(1 << n)])
        sign = np.where(parity, -1.0, 1.0)
        rho = DensityOperator(np.diag(1.0 / (1 << n) + 4e-13j * sign))
        with pytest.raises(ValueError, match="imaginary part"):
            expectation(rho, "Z" * n)
        assert expectation(rho, "I" * n) == pytest.approx(1.0, abs=1e-12)


def loop_pauli_action(axes):
    """The per-qubit shift-and-xor form of ``_pauli_action``, kept as its oracle."""
    n = len(axes)
    idx = np.arange(1 << n)
    flip = 0
    parity = np.zeros_like(idx)  # bit 0 holds popcount(idx & z) mod 2
    for q, ax in enumerate(axes):
        bit = n - 1 - q
        if ax in "XY":
            flip |= 1 << bit
        if ax in "YZ":
            parity ^= idx >> bit
    base = (1.0 + 0.0j, -1j, -1.0 + 0.0j, 1j)[axes.count("Y") % 4]
    return idx, flip, np.where(parity & 1, -base, base)


class TestPauliAction:
    """The kernel's per-chain parity doubling against the bit loop, bit for bit."""

    def assert_same_action(self, axes):
        idx, perm, phase = _pauli_action(axes)
        want_idx, want_flip, want_phase = loop_pauli_action(axes)
        want_perm = want_idx ^ want_flip
        assert idx.dtype == want_idx.dtype and phase.dtype == want_phase.dtype, axes
        assert perm.dtype == want_perm.dtype, axes
        np.testing.assert_array_equal(idx, want_idx, err_msg=str(axes))
        np.testing.assert_array_equal(perm, want_perm, err_msg=str(axes))
        np.testing.assert_array_equal(phase, want_phase, err_msg=str(axes))
        # A Pauli chain squares to the identity, so its permutation is an involution.
        np.testing.assert_array_equal(perm[perm], idx, err_msg=str(axes))
        # Signed zeros too: -base and base differ only in the sign of a zero part.
        for part in (np.real, np.imag):
            np.testing.assert_array_equal(
                np.signbit(part(phase)), np.signbit(part(want_phase)), err_msg=str(axes)
            )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_chain_up_to_five_qubits(self, n):
        for axes in itertools.product("IXYZ", repeat=n):
            self.assert_same_action(axes)

    @pytest.mark.parametrize("n", range(6, MAX_QUBITS + 1))
    def test_random_chains_up_to_max_qubits(self, n):
        rng = np.random.default_rng(8000 + n)
        chains = ["I" * n, "X" * n, "Y" * n, "Z" * n]
        chains += ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(60)]
        for chain in chains:
            self.assert_same_action(tuple(chain))

    def test_shared_index_is_read_only(self):
        idx, perm, phase = _pauli_action(("X", "Y", "Z"))
        with pytest.raises(ValueError):
            idx[0] = 1
        # The action is kept and shared, so no caller may edit its perm or phase.
        with pytest.raises(ValueError):
            perm[0] = 0
        with pytest.raises(ValueError):
            phase[0] = 0.0
        assert _pauli_action(("X", "Y", "Z"))[1][0] != 0
        assert _pauli_action(("X", "Y", "Z"))[2][0] != 0.0

    def test_import_builds_no_action(self):
        # The cache is the one store of actions: importing the package, the
        # CLI included, builds none. A fresh interpreter, so no test has
        # filled the cache yet.
        script = (
            "import cohsim.cli\n"
            "from cohsim.measurement import _pauli_action\n"
            "print(_pauli_action.cache_info().misses)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cohsim.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


class TestSettingDistribution:
    def test_perfect_anticorrelation(self):
        table = setting_distribution(epr_family(0.4, "01"), "Z", "Z")
        np.testing.assert_allclose(table, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_tuple_form_is_refused(self):
        # A setting axis is one string of AXES, never a tuple.
        with pytest.raises(ValueError, match="setting axis"):
            setting_distribution(epr_family(0.3, "00"), ("X", -1), "Y")

    def test_born_rule_consistency_randomized(self):
        # Marginals of the outcome table reproduce single-party
        # expectations, and its signed sum reproduces the two-party one.
        rng = np.random.default_rng(7)
        for seed in range(100):
            psi = random_state(2, seed + 900)
            ax_a, ax_b = rng.choice(list(AXES)), rng.choice(list(AXES))
            table = setting_distribution(psi, ax_a, ax_b)
            assert table.sum() == pytest.approx(1.0, abs=1e-12)
            assert table.min() >= 0.0
            corr = table[0, 0] - table[0, 1] - table[1, 0] + table[1, 1]
            assert corr == pytest.approx(
                expectation(psi, ax_a + ax_b), abs=1e-10
            )
            marg_a = table[0, :].sum() - table[1, :].sum()
            assert marg_a == pytest.approx(expectation(psi, ax_a + "I"), abs=1e-10)
            marg_b = table[:, 0].sum() - table[:, 1].sum()
            assert marg_b == pytest.approx(expectation(psi, "I" + ax_b), abs=1e-10)

    def test_matches_dense_oracle(self):
        # All 9 axis pairs against np.kron projector traces.
        for seed in range(5):
            for state in (random_state(2, 2 * seed + 60), random_density(2, 2 * seed + 70)):
                for obs_a, obs_b in itertools.product(AXES, repeat=2):
                    np.testing.assert_allclose(
                        setting_distribution(state, obs_a, obs_b),
                        dense_setting_distribution(state, obs_a, obs_b),
                        rtol=0.0,
                        atol=1e-15,
                        err_msg=f"{obs_a} {obs_b} {type(state).__name__}",
                    )

    def test_exact_zero_where_born_rule_is_zero(self):
        # At theta = pi/4 the XX table has no anticorrelated outcomes;
        # the dense projector trace leaves about 1e-32 there.
        table = setting_distribution(epr_family(math.pi / 4, "00"), "X", "X")
        assert table[0, 1] == 0.0
        assert table[1, 0] == 0.0

    def test_clipped_table_is_renormalized(self):
        # An eigenvalue of -5e-11 is within PSD_SLACK, so the density is
        # accepted; its Born cell p[1, 1] = -5e-11 is clipped to zero, and
        # the table is divided by its new sum, 1 + 5e-11.
        rho = DensityOperator(np.diag([1.0 + 5e-11, 0.0, 0.0, -5e-11]))
        table = setting_distribution(rho, "Z", "Z")
        assert table[1, 1] == 0.0
        assert table.sum() == pytest.approx(1.0, abs=1e-15)
        assert table[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_accepts_mixed_state(self):
        rho = werner_mix(epr_family(math.pi / 4, "00"), 0.8)
        table = setting_distribution(rho, "X", "X")
        corr = table[0, 0] - table[0, 1] - table[1, 0] + table[1, 1]
        assert corr == pytest.approx(0.8, abs=1e-12)

    def test_rejects_single_qubit_state(self):
        with pytest.raises(ValueError):
            setting_distribution(StateVector([1.0, 0.0]), "Z", "Z")


@st.composite
def unit_vectors(draw, num_qubits):
    """A random pure state from 2^n complex amplitudes with parts in [-1, 1]."""
    size = 2 << num_qubits
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
    amps = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    norm = float(np.linalg.norm(amps))
    assume(norm > 1e-3)
    return StateVector(amps / norm)


@st.composite
def states(draw, num_qubits):
    """A random pure state, or its Werner mixture at a random visibility."""
    psi = draw(unit_vectors(num_qubits))
    if draw(st.booleans()):
        return psi
    return werner_mix(psi, draw(st.floats(0.0, 1.0)))


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None)


class TestBornTableProperties:
    """Randomized counterparts of the seeded oracle suites above."""

    @PROPERTY_SETTINGS
    @given(
        state=states(2),
        obs_a=st.sampled_from(AXES),
        obs_b=st.sampled_from(AXES),
    )
    def test_setting_distribution_is_the_born_table(self, state, obs_a, obs_b):
        table = setting_distribution(state, obs_a, obs_b)
        assert table.min() >= 0.0
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            table, dense_setting_distribution(state, obs_a, obs_b), rtol=0.0, atol=1e-12
        )

    @PROPERTY_SETTINGS
    @given(data=st.data(), n=st.integers(1, 4))
    def test_expectation_matches_dense_oracle(self, data, n):
        state = data.draw(states(n))
        chain = "".join(data.draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
        assert expectation(state, chain) == pytest.approx(
            dense_expectation(state, chain), abs=1e-12
        )


@functools.cache
def mixed_state(n, seed):
    """A Werner mixture of ``random_state(n, seed)``, built once per pair."""
    return werner_mix(random_state(n, seed), 0.75)


class TestActionCache:
    """A kept chain action gives the values a freshly built one gives."""

    @PROPERTY_SETTINGS
    @given(
        data=st.data(),
        n=st.integers(1, MAX_QUBITS),
        seed=st.integers(0, 2),
        mixed=st.booleans(),
    )
    def test_cold_cache_matches_warm_bit_for_bit(self, data, n, seed, mixed):
        state = mixed_state(n, seed) if mixed else random_state(n, seed)
        chain = "".join(data.draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
        expectation(state, chain)
        hits = _pauli_action.cache_info().hits
        warm = expectation(state, chain)
        assert _pauli_action.cache_info().hits == hits + 1
        _pauli_action.cache_clear()
        cold = expectation(state, chain)
        # Same bytes, so signed zeros must agree too.
        assert struct.pack("<d", cold) == struct.pack("<d", warm), (chain, cold, warm)

    @PROPERTY_SETTINGS
    @given(
        data=st.data(),
        n=st.integers(1, MAX_QUBITS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vector_value_is_the_conjugate_product_bit_for_bit(self, data, n, seed):
        # vdot against the conj-and-matmul form over the loop oracle's action.
        psi = random_state(n, seed)
        v = psi.amplitudes
        chain = "".join(data.draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
        idx, flip, phase = loop_pauli_action(tuple(chain))
        want = complex(np.conj(v) @ (phase * v[idx ^ flip])).real
        got = expectation(psi, chain)
        assert struct.pack("<d", got) == struct.pack("<d", want), (chain, got, want)


def dense_value(state, chain):
    """``dense_expectation`` with the density's trace read off the diagonal of
    ``op @ rho`` (row sums of ``op * rho.T``), so it reaches ``MAX_QUBITS``."""
    if isinstance(state, StateVector):
        return dense_expectation(state, chain)
    op = np.array([[1.0 + 0j]])
    for ax in chain:
        op = np.kron(op, PAULI[ax])
    return float(complex((op * state.matrix.T).sum(axis=1).sum()).real)


class TestDiagonalShortcut:
    """A Z/I chain skips the identity gather and keeps every value's bytes."""

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_diagonal_chain_perm_is_the_shared_index(self, n):
        alternating = tuple("IZ"[q % 2] for q in range(n))
        for axes in (("Z",) + ("I",) * (n - 1), ("I",) * n, ("Z",) * n, alternating):
            idx, perm, _ = _pauli_action(axes)
            assert perm is idx, axes
            assert not perm.flags.writeable
            with pytest.raises(ValueError):
                perm[0] = 1

    @pytest.mark.parametrize("chain", [("X",), ("Z", "Y"), ("I", "I", "X")])
    def test_flipping_chain_has_its_own_perm(self, chain):
        idx, perm, _ = _pauli_action(chain)
        assert perm is not idx
        assert not perm.flags.writeable

    @PROPERTY_SETTINGS
    @given(
        data=st.data(),
        n=st.integers(1, MAX_QUBITS),
        seed=st.integers(0, 2),
        mixed=st.booleans(),
        diagonal=st.booleans(),
    )
    def test_expectation_is_the_dense_value_bit_for_bit(self, data, n, seed, mixed, diagonal):
        state = mixed_state(n, seed) if mixed else random_state(n, seed)
        alphabet = st.sampled_from("IZ" if diagonal else "IXYZ")
        axes = data.draw(st.lists(alphabet, min_size=n, max_size=n))
        if not diagonal:
            # At least one X or Y, so the chain flips and takes the gather.
            axes[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from("XY"))
        chain = "".join(axes)
        assert (_pauli_action(tuple(chain))[1] is _pauli_action(tuple(chain))[0]) == diagonal
        got = expectation(state, chain)
        want = dense_value(state, chain)
        assert struct.pack("<d", got) == struct.pack("<d", want), (chain, mixed, got, want)


class TestJointDistribution:
    def test_validates_shape(self):
        with pytest.raises(ValueError):
            JointDistribution(np.full((2, 2, 2), 0.25))

    def test_validates_normalization(self):
        probs = np.full((2, 2, 2, 2), 0.25)
        probs[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="normalized"):
            JointDistribution(probs)

    def test_validates_negativity(self):
        probs = np.full((2, 2, 2, 2), 0.25)
        probs[0, 0, 0, 0] = -0.25
        probs[1, 1, 0, 0] = 0.75
        with pytest.raises(ValueError, match="negative"):
            JointDistribution(probs)

    def test_prob_and_setting_accessors(self):
        probs = np.full((2, 2, 2, 2), 0.25)
        dist = JointDistribution(probs)
        assert dist.prob(0, 1, 1, 0) == 0.25
        np.testing.assert_array_equal(dist.probs[:, :, 0, 0], np.full((2, 2), 0.25))

    def test_probs_read_only(self):
        dist = JointDistribution(np.full((2, 2, 2, 2), 0.25))
        with pytest.raises(ValueError):
            dist.probs[0, 0, 0, 0] = 1.0


class TestMixedStateInputs:
    def test_density_operator_constructor_roundtrip(self):
        rho = DensityOperator(np.eye(4) / 4.0)
        table = setting_distribution(rho, "Z", "Z")
        np.testing.assert_allclose(table, np.full((2, 2), 0.25), atol=1e-14)
