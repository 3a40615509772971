"""Synthetic counting experiment: counts, estimators, p-values, fringes."""

import csv
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cohsim.experiment import (
    CLASSICAL_VISIBILITY_BOUND,
    CountTable,
    EstimatedCorrelator,
    ExperimentConfig,
    _cell_correlator,
    _hoeffding_p,
    _poisson_bootstrap,
    _write_csv,
    correlator_from_counts,
    delta_method_std_err,
    paradox_counts,
    paradox_p_value,
    point_correlator,
    simulate_counts,
    visibility_scan,
)
from cohsim.measurement import AXES, ObservableChain
from cohsim.paradox import MixtureClaim, ParadoxConstraint, ParadoxSpec, coherence_paradox
from cohsim.reports import paradox_exact_block, paradox_simulated_block
from cohsim.states import EPR_LABELS, DensityOperator, StateVector, epr_family, werner_mix

from .test_measurement import PROPERTY_SETTINGS
from .test_states import random_state

DESK = ExperimentConfig(
    pair_rate=1.0e5,
    duration_per_setting=0.1,
    num_trials=10,
    visibility_v=0.99,
    efficiency=1.0,
    seed=0,
)

ONE_TRIAL = ExperimentConfig(
    pair_rate=100.0, duration_per_setting=1.0, num_trials=1, efficiency=1.0
)


def hand_table(cells, cfg=ONE_TRIAL, setting=("Z", "Z"), stream_tag=0) -> CountTable:
    arr = np.array(cells, dtype=np.int64).reshape(1, 2, 2)
    return CountTable(setting, arr, cfg, stream_tag)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.pair_rate == 0.34e6
        assert cfg.duration_per_setting == 100.0
        assert cfg.num_trials == 10
        assert cfg.visibility_v == 1.0
        assert cfg.efficiency == 0.60
        assert cfg.seed == 0

    def test_mean_per_trial(self):
        assert ExperimentConfig().mean_per_trial == pytest.approx(2.04e7)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pair_rate", 0.0),
            ("pair_rate", math.nan),
            ("pair_rate", math.inf),
            ("duration_per_setting", -1.0),
            ("duration_per_setting", math.nan),
            ("duration_per_setting", math.inf),
            ("num_trials", 0),
            ("visibility_v", 1.5),
            ("efficiency", 0.0),
            ("efficiency", 1.0001),
            ("seed", -1),
            ("seed", 2**64),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    def test_pooled_count_ceiling(self):
        # Four trials of 2**48 pool to 2**50 per setting, the largest accepted.
        edge = dict(duration_per_setting=1.0, num_trials=4, efficiency=1.0)
        assert ExperimentConfig(pair_rate=2.0**48, **edge).mean_per_trial == 2.0**48
        with pytest.raises(ValueError, match=r"exceeds 2\*\*50"):
            ExperimentConfig(pair_rate=2.0**48 * (1 + 2**-40), **edge)
        # Unchecked, the default pooled int64 counts at this rate would wrap.
        with pytest.raises(ValueError, match=r"exceeds 2\*\*50"):
            ExperimentConfig(pair_rate=1.5e17)

    def test_replace(self):
        cfg = ExperimentConfig().replace(seed=9, visibility_v=0.5)
        assert cfg.seed == 9
        assert cfg.visibility_v == 0.5
        assert cfg.pair_rate == 0.34e6

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# counting run\n"
            "pair_rate = 1e5\n"
            "num_trials = 4  # short\n"
            "visibility_v = 0.9\n"
            "\n"
        )
        cfg = ExperimentConfig.from_file(path)
        assert cfg.pair_rate == 1e5
        assert cfg.num_trials == 4
        assert cfg.visibility_v == 0.9
        assert cfg.duration_per_setting == 100.0

    def test_from_file_round_trips_every_field(self, tmp_path):
        cfg = ExperimentConfig(
            pair_rate=1.25e5,
            duration_per_setting=0.3,
            num_trials=7,
            visibility_v=0.85,
            efficiency=0.45,
            seed=2**64 - 1,
        )
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} = {value!r}\n" for key, value in cfg.to_dict().items()))
        loaded = ExperimentConfig.from_file(path)
        assert loaded == cfg
        assert loaded.seed == 2**64 - 1 and isinstance(loaded.seed, int)

    def test_from_file_overrides_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\n")
        assert ExperimentConfig.from_file(path, seed=8).seed == 8

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rate = 1e5\n")
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("field", ["pair_rate", "duration_per_setting"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_from_file_rejects_nonfinite_value(self, field, text, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"{field} = {text}\n")
        with pytest.raises(ValueError, match=f"{field}=.* must be positive and finite"):
            ExperimentConfig.from_file(path)

    def test_from_file_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("pair_rate 1e5\n")
        with pytest.raises(ValueError, match="key = value"):
            ExperimentConfig.from_file(path)


class TestSimulateCounts:
    def test_bit_for_bit_determinism(self):
        state = epr_family(math.pi / 4, "00")
        a = simulate_counts(state, ("X", "X"), DESK, stream_tag=3)
        b = simulate_counts(state, ("X", "X"), DESK, stream_tag=3)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_streams_separate_by_tag_seed_trial(self):
        state = epr_family(math.pi / 4, "00")
        base = simulate_counts(state, ("X", "X"), DESK, stream_tag=0)
        other_tag = simulate_counts(state, ("X", "X"), DESK, stream_tag=1)
        other_seed = simulate_counts(state, ("X", "X"), DESK.replace(seed=1))
        assert not np.array_equal(base.counts, other_tag.counts)
        assert not np.array_equal(base.counts, other_seed.counts)
        trials = base.counts
        assert not np.array_equal(trials[0], trials[1])

    def test_counts_near_expected_mean(self):
        state = epr_family(math.pi / 4, "00")
        table = simulate_counts(state, ("Z", "Z"), DESK)
        pooled = table.pooled("Z", "Z")
        total_mean = DESK.mean_per_trial * DESK.num_trials
        # ZZ outcomes concentrate on (0,1) and (1,0); 0.99 visibility
        # leaks 0.25% of the weight into each of the other two cells.
        for cell, prob in (((0, 1), 0.4975), ((1, 0), 0.4975), ((0, 0), 0.0025)):
            mean = total_mean * prob
            assert abs(pooled[cell] - mean) < 5 * math.sqrt(mean)

    def test_rejects_non_two_qubit_state(self):
        with pytest.raises(ValueError):
            simulate_counts(StateVector([1.0, 0.0]), ("Z", "Z"), DESK)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            simulate_counts(epr_family(0.4, "00"), ("Q", "Z"), DESK)


MALFORMED_SETTINGS = [("X", "Z", "Y"), "XZY", "XZ", ["X", "Z"], ("X",), ("Q", "Z")]


class TestSettingCheck:
    @pytest.mark.parametrize("setting", MALFORMED_SETTINGS, ids=repr)
    def test_simulate_counts_refuses(self, setting):
        with pytest.raises(ValueError, match="setting axis"):
            simulate_counts(epr_family(0.4, "00"), setting, DESK)

    @pytest.mark.parametrize("setting", MALFORMED_SETTINGS, ids=repr)
    def test_count_table_refuses(self, setting):
        with pytest.raises(ValueError, match="axis pair"):
            CountTable(setting, np.zeros((1, 2, 2), dtype=np.int64), ONE_TRIAL)


class TestCountTable:
    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            CountTable(("Z", "Z"), np.zeros((2, 2), dtype=np.int64), ONE_TRIAL)
        with pytest.raises(ValueError, match="trials"):
            CountTable(("Z", "Z"), np.zeros((3, 2, 2), dtype=np.int64), ONE_TRIAL)
        with pytest.raises(ValueError, match="negative"):
            hand_table([[-1, 0], [0, 1]])
        with pytest.raises(ValueError, match="setting axis"):
            hand_table([[1, 0], [0, 1]], setting=("Q", "Z"))

    @pytest.mark.parametrize(
        "cell", [1.5, float("nan"), 2**63], ids=["fraction", "nan", "beyond-int64"]
    )
    def test_inexact_count_rejected(self, cell):
        # int64 conversion would truncate 1.5 to 1, fail on NaN with numpy's
        # own message and on 2**63 with OverflowError.
        with pytest.raises(ValueError, match="whole numbers within int64"):
            CountTable(("Z", "Z"), [[[cell, 0], [0, 0]]], ONE_TRIAL)

    def test_total_at_two_to_the_53_accepted(self):
        assert hand_table([[2**51, 2**51], [2**51, 2**51]]).pooled("Z", "Z").sum() == 2**53

    @pytest.mark.parametrize("cell", [2**51 + 1, 2**62], ids=["just-above", "int64-wraps"])
    def test_total_beyond_exact_floats_rejected(self, cell):
        # Four cells of 2**62 sum to 0 in int64; the check sums as floats.
        with pytest.raises(ValueError, match=r"more than 2\*\*53 counts"):
            hand_table([[cell, cell], [cell, cell]])

    def test_counts_read_only(self):
        table = hand_table([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            table.counts[0, 0, 0] = 9

    def test_pooled_and_total(self):
        cfg = ONE_TRIAL.replace(num_trials=2)
        arr = np.array([[[1, 2], [3, 4]], [[5, 6], [7, 8]]], dtype=np.int64)
        table = CountTable(("X", "Z"), arr, cfg)
        np.testing.assert_array_equal(table.pooled("X", "Z"), [[6, 8], [10, 12]])
        assert point_correlator(table, "X", "Z")[1] == 36

    def test_other_setting_rejected(self):
        # Without the guard a ZZ table would answer for XX.
        table = hand_table([[1, 2], [3, 4]])
        with pytest.raises(KeyError, match="no counts for setting"):
            point_correlator(table, "X", "X")
        with pytest.raises(KeyError, match="no counts for setting"):
            correlator_from_counts(table, "X", "X")

    def test_csv_round_trip(self, tmp_path):
        table = simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK, stream_tag=2)
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        clone = CountTable.from_csv(path, DESK, stream_tag=2)
        np.testing.assert_array_equal(clone.counts, table.counts)
        est_a = correlator_from_counts(table, "X", "Y")
        est_b = correlator_from_counts(clone, "X", "Y")
        assert est_a.value == est_b.value
        assert est_a.std_err == est_b.std_err

    @PROPERTY_SETTINGS
    @given(
        setting=st.tuples(st.sampled_from(AXES), st.sampled_from(AXES)),
        counts=arrays(
            np.int64, st.integers(1, 4).map(lambda t: (t, 2, 2)), elements=st.integers(0, 2**40)
        ),
        stream_tag=st.integers(0, 2**64),
    )
    def test_csv_round_trip_is_byte_stable(self, setting, counts, stream_tag):
        cfg = ONE_TRIAL.replace(num_trials=len(counts))
        table = CountTable(setting, counts, cfg, stream_tag)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            table.to_csv(first)
            clone = CountTable.from_csv(first, cfg, stream_tag)
            clone.to_csv(second)
            assert clone.setting == setting
            np.testing.assert_array_equal(clone.counts, counts)
            assert second.read_bytes() == first.read_bytes()

    def test_csv_with_two_settings_rejected(self, tmp_path):
        xy, zz = tmp_path / "xy.csv", tmp_path / "zz.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(xy)
        simulate_counts(epr_family(0.5, "00"), ("Z", "Z"), DESK).to_csv(zz)
        rows = zz.read_text().splitlines(keepends=True)[1:]
        xy.write_text(xy.read_text() + "".join(rows))
        with pytest.raises(ValueError, match="holds settings"):
            CountTable.from_csv(xy, DESK)

    def test_csv_dropped_row_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3] + lines[4:]))
        with pytest.raises(ValueError, match="missing"):
            CountTable.from_csv(path, DESK)

    def test_csv_duplicated_row_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + [lines[1]]))
        with pytest.raises(ValueError, match="repeats"):
            CountTable.from_csv(path, DESK)

    def test_csv_missing_column_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        rows = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="lacks columns count$"):
            CountTable.from_csv(path, DESK)

    def test_csv_short_row_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 3 is incomplete"):
            CountTable.from_csv(path, DESK)

    def test_csv_long_row_rejected(self, tmp_path):
        # Without the check the row X,Y,0,0,0,5,99 reads as count 5.
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rstrip("\r\n") + ",99\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 3 has extra fields"):
            CountTable.from_csv(path, DESK)

    @pytest.mark.parametrize("column", ["trial", "a", "b", "count"])
    def test_csv_non_integer_cell_rejected(self, tmp_path, column):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        header = lines[0].rstrip("\r\n").split(",")
        cells = lines[2].rstrip("\r\n").split(",")
        cells[header.index(column)] = "abc"
        lines[2] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        pattern = f"count file {re.escape(str(path))} line 3 column {column} is not an integer: 'abc'"
        with pytest.raises(ValueError, match=pattern):
            CountTable.from_csv(path, DESK)


FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, sys.float_info.max, -sys.float_info.max]),
)
CSV_CELLS = st.one_of(
    st.none(),
    FINITE_FLOATS,
    FINITE_FLOATS.map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**100), 2**100),
    st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=',"')),
)


class TestWriteCsv:
    @PROPERTY_SETTINGS
    @given(rows=st.lists(st.lists(CSV_CELLS, max_size=6), max_size=6))
    def test_every_cell_reads_back_exactly(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            _write_csv(path, ["head", "er"], rows)
            with open(path, newline="") as fh:
                header, *read = csv.reader(fh)
        assert header == ["head", "er"]
        assert len(read) == len(rows)
        for row, cells in zip(rows, read):
            assert len(cells) == len(row)
            for x, cell in zip(row, cells):
                if x is None:
                    assert cell == ""
                elif isinstance(x, (float, np.floating)):
                    assert float(cell).hex() == float(x).hex()
                elif isinstance(x, str):
                    assert cell == x
                else:
                    assert int(cell) == x


class TestCountHelpers:
    def test_cell_correlator_same_for_int_and_float_cells(self):
        cells = np.random.default_rng(5).integers(1, 2**40, size=(50, 9, 2, 2))
        np.testing.assert_array_equal(
            _cell_correlator(cells), _cell_correlator(cells.astype(float))
        )

    def test_poisson_bootstrap_keeps_replicates_with_every_table_nonempty(self):
        # The first table redraws to zero in about exp(-1) of replicates.
        pooled = np.array([[[0, 1], [0, 0]], [[5, 5], [5, 5]]], dtype=float)
        kept = _poisson_bootstrap(pooled, np.random.default_rng(3), 200)
        draws = np.random.default_rng(3).poisson(pooled, size=(200, 2, 2, 2))
        nonempty = (draws.sum(axis=(-2, -1)) > 0).all(axis=1)
        assert 0 < np.count_nonzero(nonempty) < 200
        np.testing.assert_array_equal(kept, draws[nonempty])

    def test_poisson_bootstrap_needs_two_replicates(self):
        with pytest.raises(ValueError, match="only 0 of 5 .* nonzero total"):
            _poisson_bootstrap(np.zeros((2, 2)), np.random.default_rng(0), 5)


class TestPointCorrelator:
    def test_textbook_cell_values(self):
        value, total = point_correlator(hand_table([[1, 49], [49, 1]]), "Z", "Z")
        assert value == pytest.approx(-0.96)
        assert total == 100

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="zero total"):
            point_correlator(hand_table([[0, 0], [0, 0]]), "Z", "Z")


class TestCorrelatorFromCounts:
    def test_value_is_point_estimate(self):
        table = hand_table([[1, 49], [49, 1]])
        est = correlator_from_counts(table, "Z", "Z")
        assert est.value == pytest.approx(-0.96)
        assert est.n_total == 100

    def test_bootstrap_matches_delta_method(self):
        table = hand_table([[1, 49], [49, 1]])
        est = correlator_from_counts(table, "Z", "Z")
        delta = delta_method_std_err(est.value, est.n_total)
        assert delta == pytest.approx(0.028, abs=0.0005)
        assert abs(est.std_err - delta) / delta < 0.25

    def test_perfect_correlation_has_zero_error(self):
        # Poisson redraws of zero-count cells stay zero, so every
        # replicate returns exactly +1.
        est = correlator_from_counts(hand_table([[50, 0], [0, 50]]), "Z", "Z")
        assert est.value == 1.0
        assert est.std_err == 0.0

    def test_deterministic_given_seed_and_tag(self):
        table = simulate_counts(epr_family(0.5, "00"), ("X", "X"), DESK, stream_tag=4)
        a = correlator_from_counts(table, "X", "X")
        b = correlator_from_counts(table, "X", "X")
        assert (a.value, a.std_err) == (b.value, b.std_err)

    @pytest.mark.parametrize("num_bootstrap", [0, 1])
    def test_fewer_than_two_replicates_rejected(self, num_bootstrap):
        # No spread to measure; a 0.0 error would read as exact.
        table = hand_table([[1, 49], [49, 1]])
        with pytest.raises(ValueError, match=f"num_bootstrap={num_bootstrap}: .* at least 2"):
            correlator_from_counts(table, "Z", "Z", num_bootstrap=num_bootstrap)

    def test_empty_replicates_are_left_out(self):
        # Every replicate with a nonzero total reads exactly -1; the
        # exp(-2) share redrawn to N = 0 has no estimate and must not
        # count as 0.0.
        est = correlator_from_counts(hand_table([[0, 2], [0, 0]]), "Z", "Z")
        assert est.value == -1.0
        assert est.std_err == 0.0

    def test_too_few_nonempty_replicates_rejected(self):
        # At stream tag 5 all three redraws of the single count are zero.
        table = hand_table([[0, 1], [0, 0]], stream_tag=5)
        with pytest.raises(ValueError, match="nonzero total"):
            correlator_from_counts(table, "Z", "Z", num_bootstrap=3)

    def test_negative_replicate_count_rejected(self):
        with pytest.raises(ValueError, match="num_bootstrap=-1"):
            correlator_from_counts(hand_table([[1, 49], [49, 1]]), "Z", "Z", num_bootstrap=-1)


class TestEstimatedCorrelator:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatedCorrelator(value=1.5, std_err=0.0, n_total=10)
        with pytest.raises(ValueError):
            EstimatedCorrelator(value=0.5, std_err=-1.0, n_total=10)
        with pytest.raises(ValueError):
            EstimatedCorrelator(value=0.5, std_err=0.1, n_total=0)


class TestDeltaMethod:
    def test_formula(self):
        assert delta_method_std_err(0.0, 100) == pytest.approx(0.1)
        assert delta_method_std_err(0.6, 10000) == pytest.approx(0.008)

    def test_extremes_have_zero_error(self):
        assert delta_method_std_err(1.0, 100) == 0.0
        assert delta_method_std_err(-1.0, 100) == 0.0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            delta_method_std_err(0.0, 0)


class TestEstimatorConsistency:
    def test_hundred_seeds_stay_within_three_sigma(self):
        # Criterion-style property: across 100 seeds the estimator lands
        # within 3 delta-method sigmas of the true correlator nearly
        # always, and the bootstrap error agrees with the delta method.
        theta = math.pi / 6
        truth = 0.99 * math.sin(2 * theta)
        state = epr_family(theta, "00")
        hits, ratio_ok = 0, 0
        for seed in range(100):
            cfg = DESK.replace(seed=seed)
            table = simulate_counts(state, ("X", "X"), cfg, stream_tag=7)
            est = correlator_from_counts(table, "X", "X")
            delta = delta_method_std_err(est.value, est.n_total)
            if abs(est.value - truth) <= 3.0 * delta:
                hits += 1
            if abs(est.std_err - delta) / delta <= 0.25:
                ratio_ok += 1
        assert hits >= 97
        assert ratio_ok == 100


class TestParadoxCounts:
    def sources(self, theta=math.pi / 4):
        return {
            "01": epr_family(theta, "01"),
            "10": epr_family(theta, "10"),
            "00": epr_family(theta, "00"),
        }

    def test_one_table_per_constraint(self):
        spec = coherence_paradox(math.pi / 4, "X")
        counts = paradox_counts(spec, self.sources(), DESK)
        assert set(counts) == {
            ("01", "ZZ"),
            ("10", "ZZ"),
            ("01", "XX"),
            ("10", "XX"),
            ("00", "XX"),
        }
        for (label, obs), table in counts.items():
            assert table.setting == (obs[0], obs[1])

    def test_tag_base_shifts_streams(self):
        spec = coherence_paradox(math.pi / 4, "X")
        a = paradox_counts(spec, self.sources(), DESK)
        b = paradox_counts(spec, self.sources(), DESK, tag_base=50)
        key = ("00", "XX")
        assert not np.array_equal(a[key].counts, b[key].counts)

    def test_missing_source_rejected(self):
        spec = coherence_paradox(math.pi / 4, "X")
        sources = self.sources()
        del sources["00"]
        with pytest.raises(ValueError, match="no source state"):
            paradox_counts(spec, sources, DESK)

    def test_rejects_many_qubit_observables(self):
        from cohsim.paradox import dicke_paradox

        spec = dicke_paradox(3, 0)
        sources = {c.source_label: None for c in spec.constraints}
        with pytest.raises(ValueError, match="axis pair"):
            paradox_counts(spec, sources, DESK)


def two_party_mixture_spec() -> ParadoxSpec:
    chain = ObservableChain(("Z", "Z"))
    constraints = (
        ParadoxConstraint("01", chain, 0.0),
        ParadoxConstraint("10", chain, 0.0),
        ParadoxConstraint("00", chain, 0.4),
    )
    claim = MixtureClaim("00", ("01", "10"), "hand-built for p-value checks")
    return ParadoxSpec(constraints, claim)


class TestPValues:
    def test_consistent_data_gives_p_one(self):
        spec = two_party_mixture_spec()
        flat = [[25, 25], [25, 25]]
        counts = {
            ("01", "ZZ"): hand_table(flat),
            ("10", "ZZ"): hand_table(flat),
            ("00", "ZZ"): hand_table(flat),
        }
        assert paradox_p_value(spec, counts) == (1.0, 0.0)

    def test_hand_computed_bound(self):
        # Components read E = 0 on N = 100; the mixed row reads E = 0.4
        # on N = 100, so the weighted gap is sqrt(100) * 0.4 = 4. One
        # mixed row and a two-sided tail make the bound 2 exp(-8).
        spec = two_party_mixture_spec()
        flat = [[25, 25], [25, 25]]
        counts = {
            ("01", "ZZ"): hand_table(flat),
            ("10", "ZZ"): hand_table(flat),
            ("00", "ZZ"): hand_table([[45, 15], [15, 25]]),
        }
        p, log10_p = paradox_p_value(spec, counts)
        assert p == pytest.approx(2.0 * math.exp(-8.0), rel=1e-12)
        assert log10_p == pytest.approx(math.log10(2.0) - 8.0 / math.log(10.0), rel=1e-12)

    def test_more_data_means_smaller_p(self):
        spec = two_party_mixture_spec()
        flat = [[25, 25], [25, 25]]
        skew = [[45, 15], [15, 25]]
        small = {
            ("01", "ZZ"): hand_table(flat),
            ("10", "ZZ"): hand_table(flat),
            ("00", "ZZ"): hand_table(skew),
        }
        big = {
            ("01", "ZZ"): hand_table([[c * 4 for c in row] for row in flat]),
            ("10", "ZZ"): hand_table([[c * 4 for c in row] for row in flat]),
            ("00", "ZZ"): hand_table([[c * 4 for c in row] for row in skew]),
        }
        p_big, log10_p_big = paradox_p_value(spec, big)
        p_small, log10_p_small = paradox_p_value(spec, small)
        assert log10_p_big < log10_p_small
        assert p_big < p_small

    def test_underflow_clamps_but_log_stays_exact(self):
        spec = two_party_mixture_spec()
        n = 10**8
        quarter = n // 4
        flat = [[quarter, quarter], [quarter, quarter]]
        skew = [[int(0.45 * n), int(0.15 * n)], [int(0.15 * n), quarter]]
        counts = {
            ("01", "ZZ"): hand_table(flat),
            ("10", "ZZ"): hand_table(flat),
            ("00", "ZZ"): hand_table(skew),
        }
        p, log10_p = paradox_p_value(spec, counts)
        assert p == 5e-324
        assert log10_p == pytest.approx(-(1e8 * 0.16) / (2 * math.log(10)), rel=1e-6)

    def test_missing_table_rejected(self):
        spec = two_party_mixture_spec()
        counts = {("01", "ZZ"): hand_table([[25, 25], [25, 25]])}
        with pytest.raises(ValueError, match="missing observations"):
            paradox_p_value(spec, counts)

    def test_table_under_another_settings_key_rejected(self):
        # A ZZ table filed under an XX key: a ValueError naming the key,
        # where the table lookup once raised KeyError.
        theta = math.pi / 4
        spec = coherence_paradox(theta, "X")
        sources = {label: epr_family(theta, label) for label in EPR_LABELS}
        counts = dict(paradox_counts(spec, sources, DESK))
        counts[("00", "XX")] = counts[("01", "ZZ")]
        with pytest.raises(ValueError, match=re.escape("key ('00', 'XX')")):
            paradox_p_value(spec, counts)

    def test_simulated_full_pipeline_is_significant(self):
        theta = math.pi / 4
        spec = coherence_paradox(theta, "X")
        sources = {
            "01": epr_family(theta, "01"),
            "10": epr_family(theta, "10"),
            "00": epr_family(theta, "00"),
        }
        counts = paradox_counts(spec, sources, DESK)
        assert paradox_p_value(spec, counts)[0] < 1e-10

    def test_empirical_size_when_the_mixture_holds(self):
        # The "00" source is the true mixture of |01> and |10>, so the
        # mixture model holds and a valid p-value rejects at rate at most
        # alpha, up to three binomial sigmas over the seeds. The component
        # rows are estimated too, which the bound does not model; keep this
        # check under any tighter bound.
        theta = math.pi / 4
        spec = coherence_paradox(theta, "X")
        sources = {
            "01": epr_family(theta, "01"),
            "10": epr_family(theta, "10"),
            "00": DensityOperator(np.diag([0.0, 0.5, 0.5, 0.0])),
        }
        seeds = 1000
        p_values = np.array(
            [
                paradox_p_value(spec, paradox_counts(spec, sources, ONE_TRIAL.replace(seed=s)))[0]
                for s in range(seeds)
            ]
        )
        for alpha in (0.05, 0.1):
            rate = float(np.mean(p_values <= alpha))
            assert rate <= alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / seeds), (alpha, rate)

    def test_simulated_verdict_carries_paradox_p_value(self):
        spec, _rows, verdict, counts = paradox_simulated_block(math.pi / 4, "X", DESK)
        p, log10_p = paradox_p_value(spec, counts)
        assert (verdict["p_value"], verdict["log10_p_value"]) == (p, log10_p)

    def test_exact_verdict_has_no_p_value(self):
        _spec, _rows, verdict = paradox_exact_block(math.pi / 4, "X")
        assert "p_value" not in verdict and "log10_p_value" not in verdict

    @pytest.mark.parametrize(
        "scaled_gap, terms, want",
        [
            (0.0, 2, (1.0, 0.0)),
            (4.0, 2, (2.0 * math.exp(-8.0), math.log10(2.0) - 8.0 / math.log(10.0))),
            (100.0, 6, (5e-324, math.log10(6.0) - 5000.0 / math.log(10.0))),
        ],
    )
    def test_hoeffding_tail(self, scaled_gap, terms, want):
        assert _hoeffding_p(scaled_gap, terms) == want


class TestVisibilityScan:
    GRID = [i * math.pi / 24 for i in range(24)]

    def test_ideal_state_has_unit_visibility(self):
        scan = visibility_scan(epr_family(math.pi / 4, "00"), 0.0, self.GRID)
        assert scan.visibility == pytest.approx(1.0, abs=1e-10)
        assert scan.exceeds_classical_bound

    @pytest.mark.parametrize("v", [0.9, 0.75, 0.5])
    @pytest.mark.parametrize("fixed", [0.0, 3 * math.pi / 4])
    def test_visibility_equals_werner_v(self, v, fixed):
        cfg = ExperimentConfig(visibility_v=v)
        scan = visibility_scan(epr_family(math.pi / 4, "00"), fixed, self.GRID, cfg)
        assert scan.visibility == pytest.approx(v, abs=1e-10)

    def test_classical_flag_threshold(self):
        state = epr_family(math.pi / 4, "00")
        low = visibility_scan(state, 0.0, self.GRID, ExperimentConfig(visibility_v=0.705))
        high = visibility_scan(state, 0.0, self.GRID, ExperimentConfig(visibility_v=0.715))
        assert not low.exceeds_classical_bound
        assert high.exceeds_classical_bound
        for scan in (low, high):
            assert scan.exceeds_classical_bound == (
                scan.visibility > CLASSICAL_VISIBILITY_BOUND
            )

    def test_simulated_scan_is_deterministic_and_close(self):
        cfg = ExperimentConfig(
            pair_rate=1.0e5,
            duration_per_setting=1.0,
            num_trials=1,
            visibility_v=0.9,
            efficiency=1.0,
            seed=12,
        )
        state = epr_family(math.pi / 4, "00")
        a = visibility_scan(state, 0.0, self.GRID, cfg, simulate=True, stream_tag=5)
        b = visibility_scan(state, 0.0, self.GRID, cfg, simulate=True, stream_tag=5)
        assert a.counts == b.counts
        assert a.visibility == b.visibility
        assert a.visibility == pytest.approx(0.9, abs=0.005)

    def test_nonfinite_fixed_arm_rejected(self):
        # Unchecked, NaN gave visibility nan with the classical flag False.
        with pytest.raises(ValueError, match="must be finite"):
            visibility_scan(epr_family(math.pi / 4, "00"), math.nan, self.GRID)

    def test_nonfinite_grid_angle_rejected(self):
        # Unchecked, inf reached LAPACK and raised LinAlgError.
        with pytest.raises(ValueError, match="must be finite"):
            visibility_scan(epr_family(math.pi / 4, "00"), 0.0, [*self.GRID, math.inf])

    # Finite, but 2 * angle overflows: once math.cos(inf) ("math domain
    # error") for the fixed arm, and an overflow warning then LinAlgError
    # for a grid angle.
    HUGE = [1e308, -1e308, 8.99e307, sys.float_info.max]

    @pytest.mark.parametrize("angle", HUGE)
    def test_fixed_arm_whose_double_overflows_rejected(self, angle):
        with pytest.raises(ValueError, match=re.escape(f"angle {angle!r}:")):
            visibility_scan(epr_family(math.pi / 4, "00"), angle, self.GRID)

    @pytest.mark.parametrize("angle", HUGE)
    @pytest.mark.parametrize("simulate", [False, True])
    def test_grid_angle_whose_double_overflows_rejected(self, angle, simulate):
        with pytest.raises(ValueError, match=re.escape(f"angle {angle!r}:")):
            visibility_scan(
                epr_family(math.pi / 4, "00"), 0.0, [*self.GRID, angle], simulate=simulate
            )

    def test_largest_angle_with_a_finite_double_is_scanned(self):
        angle = sys.float_info.max / 2.0
        scan = visibility_scan(epr_family(math.pi / 4, "00"), angle, self.GRID)
        assert math.isfinite(scan.visibility)

    def test_exact_rates_follow_the_fringe(self):
        cfg = ExperimentConfig(visibility_v=0.8)
        scan = visibility_scan(epr_family(math.pi / 4, "00"), 0.0, self.GRID, cfg)
        rate_scale = cfg.pair_rate * cfg.efficiency
        for angle, rate in zip(scan.angles, scan.rates):
            expected = rate_scale * (
                0.8 * math.sin(angle) ** 2 / 2.0 + 0.2 / 4.0
            )
            assert rate == pytest.approx(expected, rel=1e-12)

    def test_exact_rates_match_dense_oracle(self):
        # Rates against np.kron polarizer projectors |t><t|, t = (cos, sin),
        # traced with the Werner state, on random states and angles.
        def polarizer(angle):
            ket = np.array([math.cos(angle), math.sin(angle)])
            return np.outer(ket, ket)

        rng = np.random.default_rng(17)
        for seed in range(20):
            if seed % 2:
                state = random_state(2, seed + 500)
            else:
                state = epr_family(rng.uniform(0.1, 1.4), "00")
            cfg = ExperimentConfig(visibility_v=float(rng.uniform(0.0, 1.0)))
            fixed = float(rng.uniform(-4.0, 4.0))
            grid = rng.uniform(-4.0, 4.0, size=12)
            rho = werner_mix(state, cfg.visibility_v).matrix
            want = [
                max(0.0, np.trace(np.kron(polarizer(fixed), polarizer(t)) @ rho).real)
                for t in grid
            ]
            rate_scale = cfg.pair_rate * cfg.efficiency
            np.testing.assert_allclose(
                visibility_scan(state, fixed, grid, cfg).rates,
                rate_scale * np.array(want),
                rtol=0.0,
                atol=1e-15 * rate_scale,
            )

    def test_csv_schemas(self, tmp_path):
        state = epr_family(math.pi / 4, "00")
        exact = visibility_scan(state, 0.0, self.GRID)
        exact_path = tmp_path / "exact.csv"
        exact.to_csv(exact_path)
        header = exact_path.read_text().splitlines()[0]
        assert header == "angle,rate"
        sim = visibility_scan(
            state, 0.0, self.GRID, ExperimentConfig(seed=3), simulate=True
        )
        sim_path = tmp_path / "sim.csv"
        sim.to_csv(sim_path)
        lines = sim_path.read_text().splitlines()
        assert lines[0] == "angle,rate,counts"
        assert len(lines) == len(self.GRID) + 1

    def test_rejects_bad_inputs(self):
        state = epr_family(math.pi / 4, "00")
        with pytest.raises(ValueError, match="nonempty"):
            visibility_scan(state, 0.0, [])
        with pytest.raises(ValueError, match="2-qubit"):
            visibility_scan(StateVector([1.0, 0.0]), 0.0, self.GRID)

    def test_dark_port_fit_fails_loudly(self):
        dark = StateVector([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ArithmeticError, match="fit"):
            visibility_scan(dark, 0.0, self.GRID)
