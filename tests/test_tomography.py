"""Nine-setting two-qubit state reconstruction."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from cohsim.experiment import _TOMO_DOMAIN, CountTable, ExperimentConfig, simulate_counts
from cohsim.measurement import AXES, setting_distribution
from cohsim.states import (
    DensityOperator,
    StateVector,
    density_from_state,
    epr_family,
    fidelity,
    werner_mix,
)
from cohsim.tomography import (
    SETTINGS,
    TomographyResult,
    _invert,
    _project,
    _simplex_project,
    reconstruct,
    report_states,
    simulate_tomography_counts,
    tomography_report,
    write_density_csv,
)

from .test_measurement import PAULI
from .test_states import random_state

FLAT_CFG = ExperimentConfig(
    pair_rate=1.0, duration_per_setting=1.0, num_trials=1, efficiency=1.0
)

DESK = ExperimentConfig(
    pair_rate=1.0e5,
    duration_per_setting=0.1,
    num_trials=10,
    efficiency=1.0,
    seed=0,
)


def exact_tables(state, scale: int) -> dict:
    """Count tables whose cells are Born probabilities times ``scale``.

    With a dyadic scale and dyadic probabilities the rounding is exact,
    so linear inversion must return the true density matrix up to float
    round-off.
    """
    tables = {}
    for setting in SETTINGS:
        probs = setting_distribution(state, *setting)
        cells = np.round(probs * scale).astype(np.int64).reshape(1, 2, 2)
        tables[setting] = CountTable(setting, cells, FLAT_CFG)
    return tables


CORR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
ROW_SIGNS = np.array([[1.0, 1.0], [-1.0, -1.0]])


def dense_invert(pooled) -> np.ndarray:
    """Reference inversion: ``sum_ij c_ij (P_i (x) P_j) / 4`` with ``np.kron``.

    ``c_ij`` are the pooled correlators, and the marginals averaged over
    the partner's three axes.
    """
    def signed(cell, signs):
        return (signs * cell).sum() / cell.sum()

    coeff = np.zeros((4, 4))
    coeff[0, 0] = 1.0
    for i, u in enumerate(AXES, 1):
        coeff[i, 0] = np.mean([signed(pooled[(u, v)], ROW_SIGNS) for v in AXES])
        coeff[0, i] = np.mean([signed(pooled[(v, u)], ROW_SIGNS.T) for v in AXES])
        for j, v in enumerate(AXES, 1):
            coeff[i, j] = signed(pooled[(u, v)], CORR_SIGNS)
    labels = ("I",) + AXES
    rho = np.zeros((4, 4), dtype=complex)
    for i, si in enumerate(labels):
        for j, sj in enumerate(labels):
            rho += coeff[i, j] * np.kron(PAULI[si], PAULI[sj]) / 4.0
    return rho


class TestSettings:
    def test_nine_axis_pairs(self):
        assert len(SETTINGS) == 9
        assert len(set(SETTINGS)) == 9
        assert all(u in "XYZ" and v in "XYZ" for u, v in SETTINGS)

    def test_simulated_table_covers_all_settings(self):
        tables = simulate_tomography_counts(epr_family(0.5, "00"), DESK)
        assert set(tables) == set(SETTINGS)
        assert all(table.setting == setting for setting, table in tables.items())

    def test_simulated_table_holds_each_setting_draw_in_order(self):
        state = epr_family(0.5, "00")
        tables = simulate_tomography_counts(state, DESK, stream_tag=3)
        assert tuple(tables) == SETTINGS
        for setting, table in tables.items():
            np.testing.assert_array_equal(
                table.counts, simulate_counts(state, setting, DESK, stream_tag=3).counts
            )


class TestLinearInversion:
    @pytest.mark.parametrize(
        "state",
        [
            epr_family(math.pi / 4, "00"),
            epr_family(math.pi / 4, "01"),
            StateVector([0.0, 1.0, 0.0, 0.0]),
        ],
        ids=["epr00", "epr01", "basis01"],
    )
    def test_dyadic_counts_invert_exactly(self, state):
        result = reconstruct(exact_tables(state, 2**20))
        rho_true = density_from_state(state).matrix
        np.testing.assert_allclose(result.rho_linear, rho_true, atol=1e-12)
        np.testing.assert_allclose(result.rho_hat.matrix, rho_true, atol=1e-12)
        assert result.clip_magnitude < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_random_states_invert_to_rounding_error(self, seed):
        state = random_state(2, seed)
        result = reconstruct(exact_tables(state, 10**12))
        rho_true = density_from_state(state).matrix
        np.testing.assert_allclose(result.rho_linear, rho_true, atol=1e-9)

    def test_mixed_input_inverts_too(self):
        # v = 0.75 keeps every Born probability dyadic.
        rho = werner_mix(epr_family(math.pi / 4, "00"), 0.75)
        result = reconstruct(exact_tables(rho, 2**22))
        np.testing.assert_allclose(result.rho_linear, rho.matrix, atol=1e-12)

    def test_matches_dense_pauli_sum(self):
        # Random count tables give random coefficient tables; every Pauli
        # entry is one of 0, +-1, +-i, so the scatter agrees to the last bit.
        rng = np.random.default_rng(23)
        for _ in range(50):
            pooled = {s: rng.integers(1, 1000, size=(2, 2)).astype(float) for s in SETTINGS}
            stack = np.array([pooled[s] for s in SETTINGS])
            np.testing.assert_array_equal(_invert(stack), dense_invert(pooled))


def brute_simplex_project(eigs: np.ndarray) -> np.ndarray:
    """Exhaust every support set of the shift-and-clip form."""
    best = None
    n = eigs.size
    for mask in range(1, 2**n):
        keep = [i for i in range(n) if (mask >> i) & 1]
        shift = (eigs[keep].sum() - 1.0) / len(keep)
        x = np.zeros(n)
        x[keep] = eigs[keep] - shift
        if np.any(x[keep] < -1e-12):
            continue
        if any(eigs[i] - shift > 1e-12 for i in range(n) if i not in keep):
            continue
        dist = float(np.sum((x - eigs) ** 2))
        if best is None or dist < best[0]:
            best = (dist, x)
    assert best is not None
    return best[1]


class TestSimplexProjection:
    def test_valid_spectrum_is_fixed_point(self):
        eigs = np.array([0.5, 0.3, 0.2, 0.0])
        np.testing.assert_allclose(_simplex_project(eigs), eigs, atol=1e-15)

    def test_matches_exhaustive_support_search(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            eigs = rng.normal(scale=1.0, size=4)
            ours = _simplex_project(eigs)
            assert ours.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(ours >= 0.0)
            np.testing.assert_allclose(ours, brute_simplex_project(eigs), atol=1e-10)

    def test_batch_matches_one_vector_at_a_time(self):
        rng = np.random.default_rng(22)
        stack = rng.normal(size=(5, 40, 4)) * rng.choice([0.01, 0.3, 1.0, 3.0], size=(5, 40, 1))
        single = np.array([[_simplex_project(eigs) for eigs in row] for row in stack])
        np.testing.assert_array_equal(_simplex_project(stack), single)

    def test_single_dominant_eigenvalue(self):
        eigs = np.array([1.4, -0.1, -0.2, -0.1])
        np.testing.assert_allclose(_simplex_project(eigs), [1.0, 0.0, 0.0, 0.0], atol=1e-12)


class TestReconstructionQuality:
    def test_noiseless_fidelity_near_one(self):
        state = epr_family(math.pi / 4, "00")
        tables = simulate_tomography_counts(state, DESK)
        result = reconstruct(tables, target=state)
        assert result.fidelity_to_target > 0.999
        assert result.fidelity_std_err is None

    def test_rho_hat_is_physical_even_from_sparse_counts(self):
        sparse = ExperimentConfig(
            pair_rate=20.0, duration_per_setting=1.0, num_trials=1, efficiency=1.0, seed=5
        )
        tables = simulate_tomography_counts(epr_family(1.0, "00"), sparse)
        result = reconstruct(tables)
        eigs = np.linalg.eigvalsh(result.rho_hat.matrix)
        assert np.all(eigs >= -1e-12)
        assert np.trace(result.rho_hat.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert result.clip_magnitude > 0.0

    def test_werner_fidelity_matches_closed_form(self):
        # F(rho_W, psi) = sqrt(v + (1 - v) / 4) for the maximally
        # entangled target.
        state = epr_family(math.pi / 4, "00")
        cfg = DESK.replace(visibility_v=0.98)
        tables = simulate_tomography_counts(state, cfg, stream_tag=8)
        result = reconstruct(tables, target=state, num_bootstrap=100)
        expected = math.sqrt(0.98 + 0.02 / 4.0)
        assert result.fidelity_std_err > 0.0
        assert abs(result.fidelity_to_target - expected) <= 3.0 * result.fidelity_std_err

    def test_bootstrap_is_deterministic(self):
        state = epr_family(math.pi / 4, "00")
        tables = simulate_tomography_counts(state, DESK.replace(seed=4), stream_tag=1)
        a = reconstruct(tables, target=state, num_bootstrap=30)
        b = reconstruct(tables, target=state, num_bootstrap=30)
        assert a.fidelity_std_err == b.fidelity_std_err

    def test_single_bootstrap_replicate_rejected(self):
        # One replicate has no spread; a 0.0 error would read as exact.
        state = epr_family(math.pi / 4, "00")
        tables = simulate_tomography_counts(state, DESK)
        with pytest.raises(ValueError, match="num_bootstrap=1: .* at least 2 replicates"):
            reconstruct(tables, target=state, num_bootstrap=1)


def loop_bootstrap(tables, target, num_bootstrap):
    """Reference bootstrap, one replicate at a time.

    Nine ``rng.poisson(cell)`` calls per replicate in ``SETTINGS`` order;
    each replicate with every setting nonempty is inverted by
    ``dense_invert`` and projected without a batch axis. Returns the
    standard error and the number of replicates it runs over.
    """
    pooled = {s: tables[s].pooled(*s).astype(float) for s in SETTINGS}
    anchor = tables[SETTINGS[0]]
    rng = np.random.default_rng(
        np.random.SeedSequence((anchor.config.seed, anchor.stream_tag, _TOMO_DOMAIN, 1))
    )
    reps = []
    for _ in range(num_bootstrap):
        redrawn = {s: rng.poisson(cell).astype(float) for s, cell in pooled.items()}
        if all(c.sum() > 0 for c in redrawn.values()):
            mat, _clip = _project(dense_invert(redrawn))
            reps.append(fidelity(DensityOperator(mat), target))
    return float(np.std(reps, ddof=1)), len(reps)


class TestBatchedBootstrap:
    @staticmethod
    def assert_matches_loop(tables, target, num_bootstrap):
        result = reconstruct(tables, target=target, num_bootstrap=num_bootstrap)
        std_err, used = loop_bootstrap(tables, target, num_bootstrap)
        assert result.fidelity_std_err == std_err
        assert result.bootstrap_used == used
        return result

    @pytest.mark.parametrize("num_bootstrap", [2, 30, 100])
    @pytest.mark.parametrize("visibility", [1.0, 0.9])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_replicate_loop(self, seed, visibility, num_bootstrap):
        # One report state per seed, so all six are covered.
        _label, psi = report_states()[seed]
        cfg = DESK.replace(seed=seed, visibility_v=visibility)
        tables = simulate_tomography_counts(psi, cfg, stream_tag=seed)
        result = self.assert_matches_loop(tables, psi, num_bootstrap)
        assert result.bootstrap_used == num_bootstrap

    def test_matches_loop_with_empty_replicates(self):
        tables = TestReconstructValidation.one_cell_tables(3)
        result = self.assert_matches_loop(tables, epr_family(math.pi / 4, "00"), 200)
        assert 0 < result.bootstrap_used < 200

    def test_matches_loop_for_density_target(self):
        psi = epr_family(math.pi / 4, "00")
        tables = simulate_tomography_counts(psi, DESK.replace(visibility_v=0.9), stream_tag=3)
        self.assert_matches_loop(tables, werner_mix(psi, 0.9), 30)

    def test_no_bootstrap_reports_no_count(self):
        tables = simulate_tomography_counts(epr_family(0.5, "00"), DESK)
        assert reconstruct(tables).bootstrap_used is None
        assert reconstruct(tables, target=epr_family(0.5, "00")).bootstrap_used is None

    def test_negative_replicate_count_rejected(self):
        tables = simulate_tomography_counts(epr_family(0.5, "00"), DESK)
        with pytest.raises(ValueError, match="num_bootstrap=-1"):
            reconstruct(tables, target=epr_family(0.5, "00"), num_bootstrap=-1)

    def test_memory_stays_small(self):
        # 1000 replicates hold a few (1000, 4, 4) stacks, about 2 MB at
        # peak; one dense per-replicate intermediate such as a
        # (1000, 16, 4, 4) Pauli stack would pass 4 MB on its own.
        _label, psi = report_states()[4]
        tables = simulate_tomography_counts(psi, DESK, stream_tag=4)
        reconstruct(tables, target=psi, num_bootstrap=2)
        tracemalloc.start()
        try:
            reconstruct(tables, target=psi, num_bootstrap=1000)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, peak


class TestReconstructValidation:
    def test_missing_setting_rejected(self):
        tables = exact_tables(epr_family(0.5, "00"), 2**20)
        del tables[("Y", "Z")]
        with pytest.raises(ValueError, match="missing tomography settings"):
            reconstruct(tables)

    def test_zero_total_rejected(self):
        tables = exact_tables(epr_family(0.5, "00"), 2**20)
        empty = np.zeros((1, 2, 2), dtype=np.int64)
        tables[("X", "X")] = CountTable(("X", "X"), empty, FLAT_CFG)
        with pytest.raises(ValueError, match="zero total"):
            reconstruct(tables)

    @staticmethod
    def one_cell_tables(count):
        """Every setting records ``count`` coincidences, all in cell (0, 0)."""
        cells = np.zeros((1, 2, 2), dtype=np.int64)
        cells[0, 0, 0] = count
        return {s: CountTable(s, cells, FLAT_CFG) for s in SETTINGS}

    def test_bootstrap_leaves_out_empty_replicates(self):
        # Empty cells redraw to zero, so every replicate whose nine
        # settings all stay nonempty rebuilds the same matrix; those with
        # an empty setting (about 37 % at three counts) are left out.
        result = reconstruct(
            self.one_cell_tables(3), target=epr_family(math.pi / 4, "00"), num_bootstrap=200
        )
        assert result.fidelity_std_err == pytest.approx(0.0, abs=1e-12)

    def test_too_few_invertible_replicates_rejected(self):
        with pytest.raises(ValueError, match="nonzero total in every setting"):
            reconstruct(
                self.one_cell_tables(1), target=epr_family(math.pi / 4, "00"), num_bootstrap=2
            )

    def test_result_validation(self):
        with pytest.raises(ValueError, match="clip magnitude"):
            TomographyResult(
                rho_hat=DensityOperator(np.eye(4) / 4.0),
                rho_linear=np.eye(4) / 4.0,
                clip_magnitude=-0.1,
            )
        with pytest.raises(ValueError, match="fidelity"):
            TomographyResult(
                rho_hat=DensityOperator(np.eye(4) / 4.0),
                rho_linear=np.eye(4) / 4.0,
                clip_magnitude=0.0,
                fidelity_to_target=1.3,
            )


class TestReportOutputs:
    def test_default_state_list(self):
        states = report_states()
        assert len(states) == 6
        assert states[0][0] == "01"
        assert states[-1][0] == "10"
        assert all(label.startswith("00") for label, _ in states[1:-1])

    def test_density_csv_round_trip(self, tmp_path):
        rho = werner_mix(epr_family(0.7, "00"), 0.9).matrix
        path = tmp_path / "rho.csv"
        write_density_csv(path, rho)
        re = np.zeros((4, 4))
        im = np.zeros((4, 4))
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                vals = [float(row[f"c{j}"]) for j in range(4)]
                (re if row["block"] == "re" else im)[int(row["row"])] = vals
        np.testing.assert_array_equal(re + 1j * im, rho)

    @pytest.mark.parametrize("thetas", [(math.pi / 4, math.pi / 4), (math.pi / 4, 0.7853982)])
    def test_repeated_label_rejected(self, thetas):
        with pytest.raises(ValueError, match=r"'00\(theta=0\.785398\)'"):
            report_states(thetas)

    def test_report_records(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        states = (("ab", epr_family(math.pi / 4, "00")), ("cd e", epr_family(0.4, "01")))
        records = tomography_report(DESK, states=states, num_bootstrap=5)
        assert list(tmp_path.iterdir()) == []
        assert [rec["label"] for rec in records] == ["ab", "cd e"]
        for rec in records:
            assert set(rec) == {
                "label", "rho", "fidelity", "fidelity_std_err", "clip_magnitude", "bootstrap_used"
            }
            rho = rec["rho"]
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(np.imag(rho)).max() < 0.1
            assert 0.9 < rec["fidelity"] <= 1.0
            assert rec["fidelity_std_err"] >= 0.0
            assert rec["clip_magnitude"] >= 0.0
            assert rec["bootstrap_used"] == 5

    def test_tag_base_decorrelates_runs(self):
        states = (("s", epr_family(math.pi / 4, "00")),)
        a = tomography_report(DESK, states=states, num_bootstrap=0)
        b = tomography_report(DESK, states=states, num_bootstrap=0, tag_base=9)
        assert a[0]["fidelity"] != b[0]["fidelity"]
