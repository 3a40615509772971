"""Synthetic counting experiment: counts, estimators, p-values, fringes."""

import csv
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cohsim import experiment
from cohsim.cli import main, parse_angle
from cohsim.experiment import (
    _MAX_DRAWS,
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
    judge,
    paradox_counts,
    paradox_p_value,
    simulate_counts,
    visibility_scan,
)
from cohsim.game import quantum_strategy
from cohsim.measurement import AXES, ObservableChain, setting_distribution
from cohsim.paradox import (
    MixtureClaim,
    ParadoxConstraint,
    ParadoxSpec,
    _mixture_gap,
    coherence_paradox,
)
from cohsim.reports import (
    _game_spec,
    paradox_exact_block,
    paradox_simulated_block,
    paradox_sources,
)
from cohsim.states import EPR_LABELS, DensityOperator, StateVector, epr_family, werner_mix
from cohsim.tomography import simulate_tomography_counts

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


COUNT_HEADER = ["u", "v", "a", "b", "trial", "count"]  # the header ``to_csv`` writes


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
            pytest.param("num_trials", 10**400, id="num_trials-1e400"),
            # A whole float is no integer, as for a qubit count or a stream tag.
            ("num_trials", 3.0),
            pytest.param("num_trials", np.float64(3.0), id="num_trials-np.float64(3.0)"),
            ("seed", 2.0),
            ("visibility_v", 1.5),
            ("efficiency", 0.0),
            ("efficiency", 1.0001),
            ("seed", -1),
            ("seed", 2**64),
            # int(True) == True, so without its own check a bool passes as 1.
            ("num_trials", True),
            ("seed", True),
            pytest.param("num_trials", np.True_, id="num_trials-np.True_"),
            pytest.param("seed", np.True_, id="seed-np.True_"),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field", ["num_trials", "seed"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_count_refused(self, field, value):
        # int(inf) raises OverflowError, an ArithmeticError the CLI reports
        # as a numerical failure; a count that is no integer is bad input.
        with pytest.raises(ValueError, match=f"{field}=.* must be"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value,rule",
        [
            ("seed", None, "must be an unsigned 64-bit integer"),
            ("pair_rate", "1e5", "must be positive and finite"),
            ("efficiency", [0.5], "must lie in (0, 1]"),
            ("visibility_v", None, "must lie in [0, 1]"),
        ],
        ids=["seed-None", "pair_rate-str", "efficiency-list", "visibility_v-None"],
    )
    def test_wrong_type_is_named(self, field, value, rule):
        # A value of the wrong type breaks its field's rule, named like any
        # other, with its repr: the str "1e5" shows as '1e5'.
        message = f"^{re.escape(f'{field}={value!r} {rule}')}$"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=message):
            ExperimentConfig().replace(**{field: value})

    def test_numpy_integers_are_stored_as_ints(self):
        cfg = ExperimentConfig(num_trials=np.int64(3), seed=np.uint64(7))
        assert (type(cfg.num_trials), type(cfg.seed)) == (int, int)
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()
        assert (cfg.num_trials, cfg.seed) == (3, 7)

    def test_pooled_count_ceiling(self):
        # Four trials of 2**48 pool to 2**50 per setting, the largest accepted.
        edge = dict(duration_per_setting=1.0, num_trials=4, efficiency=1.0)
        assert ExperimentConfig(pair_rate=2.0**48, **edge).mean_per_trial == 2.0**48
        with pytest.raises(ValueError, match=r"exceeds 2\*\*50"):
            ExperimentConfig(pair_rate=2.0**48 * (1 + 2**-40), **edge)
        # Unchecked, the default pooled int64 counts at this rate would wrap.
        with pytest.raises(ValueError, match=r"exceeds 2\*\*50"):
            ExperimentConfig(pair_rate=1.5e17)
        # A mean per trial that rounds to 0.0 is accepted: the check never divides by it.
        assert ExperimentConfig(pair_rate=5e-324, duration_per_setting=1e-10).mean_per_trial == 0.0

    def test_trial_ceiling(self, tmp_path, monkeypatch):
        # Each trial opens its own random stream, so a config may hold at
        # most 100000 of them, a bound of num_trials's own rule; only
        # constructed here, never drawn.
        def no_draws(*args):
            raise AssertionError("a draw ran at a refused trial count")

        monkeypatch.setattr(experiment, "_draws", no_draws)
        assert ExperimentConfig(num_trials=100_000).num_trials == 100_000
        message = re.escape("num_trials=100001 must be an integer in [1, 100000]")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(num_trials=100_001)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig().replace(num_trials=100_001)
        path = tmp_path / "run.cfg"
        path.write_text("pair_rate = 1e5\nnum_trials = 100001\n")
        where = re.escape(f"config file {path} line 2: ")
        with pytest.raises(ValueError, match=f"^{where}{message}$"):
            ExperimentConfig.from_file(path)

    def test_replace(self):
        cfg = ExperimentConfig().replace(seed=9, visibility_v=0.5)
        assert cfg.seed == 9
        assert cfg.visibility_v == 0.5
        assert cfg.pair_rate == 0.34e6
        with pytest.raises(TypeError, match="sed"):
            ExperimentConfig().replace(sed=1)

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

    def test_from_file_refuses_repeated_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ValueError, match="config key 'seed' repeats line 1"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("seed = 4\nvisibility_v = 2\n", " line 2: visibility_v=2.0 must lie in [0, 1]"),
            ("num_trials = 2.5\n", " line 1: num_trials = '2.5' is not an int"),
            ("pair_rate = fast\n", " line 1: pair_rate = 'fast' is not a float"),
            ("pair_rate = 1.5e17\n", ": expected pooled count per setting"),
        ],
        ids=["out-of-range", "not-int", "not-float", "pooled"],
    )
    def test_from_file_error_names_file_and_line(self, text, message, tmp_path):
        # A count beyond exact range spans several lines, so only the file is named.
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_file(path)
        assert str(info.value).startswith(f"config file {path}{message}")

    def test_from_file_names_a_byte_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\npair_rate = 1e5 # \xff\n")
        prefix = f"config file {path} line 2: 'utf-8' codec can't decode byte 0xff"
        with pytest.raises(ValueError, match=re.escape(prefix)):
            ExperimentConfig.from_file(path)

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("pair_rate = 1e5\nrate = 1e5\n")
        where = f"config file {re.escape(str(path))} line 2: unknown config key 'rate'"
        with pytest.raises(ValueError, match=where):
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
        path.write_text("# counting run\npair_rate 1e5\n")
        where = f"config file {re.escape(str(path))} line 2: 'pair_rate 1e5' is not 'key = value'"
        with pytest.raises(ValueError, match=where):
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
        pooled = table.counts.sum(axis=0)
        total_mean = DESK.mean_per_trial * DESK.num_trials
        # ZZ outcomes concentrate on (0,1) and (1,0); 0.99 visibility
        # leaks 0.25% of the weight into each of the other two cells.
        for cell, prob in (((0, 1), 0.4975), ((1, 0), 0.4975), ((0, 0), 0.0025)):
            mean = total_mean * prob
            assert abs(pooled[cell] - mean) < 5 * math.sqrt(mean)

    @pytest.mark.parametrize("num_qubits", [1, 3])
    def test_rejects_non_two_qubit_state(self, num_qubits):
        # setting_distribution's guard, the one two-qubit check on the count path.
        state = random_state(num_qubits, 7)
        with pytest.raises(ValueError, match="two-party setting needs a 2-qubit state"):
            simulate_counts(state, ("Z", "Z"), DESK)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            simulate_counts(epr_family(0.4, "00"), ("Q", "Z"), DESK)


MALFORMED_SETTINGS = [
    ("X", "Z", "Y"),
    "XZY",
    "XZ",
    ["X", "Z"],
    ("X",),
    ("Q", "Z"),
    ("-X", "X"),
    ("+X", "Z"),
    ("x", "Z"),
]
MALFORMED_PAIRS = [s for s in MALFORMED_SETTINGS if isinstance(s, tuple) and len(s) == 2]


class TestSettingCheck:
    """One rule and one message for a two-party setting, wherever it enters."""

    @pytest.mark.parametrize("setting", MALFORMED_SETTINGS, ids=repr)
    def test_simulate_counts_refuses(self, setting):
        with pytest.raises(ValueError, match="setting axis"):
            simulate_counts(epr_family(0.4, "00"), setting, DESK)

    @pytest.mark.parametrize("setting", MALFORMED_SETTINGS, ids=repr)
    def test_count_table_refuses(self, setting):
        with pytest.raises(ValueError, match="axis pair"):
            CountTable(setting, np.zeros((1, 2, 2), dtype=np.int64), ONE_TRIAL)

    @pytest.mark.parametrize("setting", MALFORMED_PAIRS, ids=repr)
    def test_setting_distribution_refuses(self, setting):
        with pytest.raises(ValueError, match="setting axis"):
            setting_distribution(epr_family(0.4, "00"), *setting)

    @pytest.mark.parametrize("setting", MALFORMED_PAIRS, ids=repr)
    def test_quantum_strategy_refuses(self, setting):
        with pytest.raises(ValueError, match="setting axis"):
            quantum_strategy(0.4, *setting)


# Each way a stream tag enters: the table itself, and every function that draws.
TAG_ENTRIES = {
    "CountTable": lambda tag: hand_table([[1, 0], [0, 1]], stream_tag=tag),
    "simulate_counts": lambda tag: simulate_counts(
        epr_family(0.4, "00"), ("Z", "Z"), ONE_TRIAL, stream_tag=tag
    ),
    "visibility_scan": lambda tag: visibility_scan(
        epr_family(math.pi / 4, "00"), 0.0, [0.0, 0.5, 1.0], ONE_TRIAL, simulate=True,
        stream_tag=tag,
    ),
    "paradox_counts": lambda tag: paradox_counts(
        coherence_paradox(math.pi / 4, "X"),
        {label: epr_family(math.pi / 4, label) for label in EPR_LABELS},
        ONE_TRIAL,
        tag_base=tag,
    ),
    "simulate_tomography_counts": lambda tag: simulate_tomography_counts(
        epr_family(0.4, "00"), ONE_TRIAL, stream_tag=tag
    ),
}


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

    @pytest.mark.parametrize("entry", sorted(TAG_ENTRIES))
    @pytest.mark.parametrize(
        "tag",
        [
            1.5, float("nan"), 2.0, "1", -1, True, 2**32, np.uint64(2**32),
            pytest.param(10**400, id="10**400"),
        ],
        ids=repr,
    )
    def test_non_integer_stream_tag_rejected(self, entry, tag):
        # Every draw entry applies the table's rule; numpy would refuse
        # the first five as seeds with a TypeError or its own message, and
        # take True as 1 and a tag of 2**32 or more as two 32-bit words.
        # The refused value is cut short in the message.
        with pytest.raises(ValueError, match="stream_tag=.* must be a nonnegative integer") as err:
            TAG_ENTRIES[entry](tag)
        assert len(str(err.value)) < 120

    @pytest.mark.parametrize("tag", [np.int64(3), np.uint64(2**32 - 1), 2**32 - 1], ids=repr)
    def test_integer_stream_tag_accepted(self, tag):
        assert hand_table([[1, 0], [0, 1]], stream_tag=tag).stream_tag == tag

    def test_tag_cannot_spell_another_seed(self):
        # A seed sequence splits ints into 32-bit words: seed 2**32 with
        # tag 1 and seed 0 with tag 2**32 + 1 are both the words 0, 1, 1,
        # and would draw the same counts.
        state = epr_family(0.4, "00")
        simulate_counts(state, ("X", "X"), ONE_TRIAL.replace(seed=2**32), stream_tag=1)
        with pytest.raises(ValueError, match=re.escape(f"stream_tag={2**32 + 1} must be")):
            simulate_counts(state, ("X", "X"), ONE_TRIAL, stream_tag=2**32 + 1)

    @pytest.mark.parametrize(
        "cell", [1.5, float("nan"), 2**63], ids=["fraction", "nan", "beyond-int64"]
    )
    def test_inexact_count_rejected(self, cell):
        # int64 conversion would truncate 1.5 to 1, fail on NaN with numpy's
        # own message and on 2**63 with OverflowError.
        with pytest.raises(ValueError, match="whole numbers within int64"):
            CountTable(("Z", "Z"), [[[cell, 0], [0, 0]]], ONE_TRIAL)

    def test_total_at_two_to_the_53_accepted(self):
        assert hand_table([[2**51, 2**51], [2**51, 2**51]]).counts.sum(axis=0).sum() == 2**53

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
        np.testing.assert_array_equal(table.counts.sum(axis=0), [[6, 8], [10, 12]])
        assert correlator_from_counts(table, "X", "Z").n_total == 36

    def test_other_setting_rejected(self):
        # Without the guard a ZZ table would answer for XX.
        table = hand_table([[1, 2], [3, 4]])
        message = r"^counts under key \('X', 'X'\) are for setting \('Z', 'Z'\)$"
        with pytest.raises(ValueError, match=message):
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
        stream_tag=st.integers(0, 2**32 - 1),
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
        line = len(xy.read_text().splitlines()) + 1
        xy.write_text(xy.read_text() + "".join(rows))
        where = f"count file {re.escape(str(xy))} line {line}: the file holds settings"
        with pytest.raises(ValueError, match=where):
            CountTable.from_csv(xy, DESK)

    def test_csv_dropped_row_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3] + lines[4:]))
        where = f"count file {path} line 4 holds cell (trial, a, b) = (0, 1, 1) where (0, 1, 0)"
        with pytest.raises(ValueError, match=re.escape(where)):
            CountTable.from_csv(path, DESK)

    def test_csv_duplicated_row_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + [lines[1]]))
        where = f"count file {path} line {len(lines) + 1} holds cell (trial, a, b) = (0, 0, 0)"
        where += " where no row belongs"
        with pytest.raises(ValueError, match=re.escape(where)):
            CountTable.from_csv(path, DESK)

    def test_csv_swapped_rows_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[5], lines[6] = lines[6], lines[5]
        path.write_text("".join(lines))
        where = f"count file {path} line 6 holds cell (trial, a, b) = (1, 0, 1) where (1, 0, 0)"
        with pytest.raises(ValueError, match=re.escape(where)):
            CountTable.from_csv(path, DESK)

    def test_csv_short_file_rejected_at_its_end(self, tmp_path):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        where = f"count file {path} line 40: the file ends before cell (trial, a, b) = (9, 1, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}$"):
            CountTable.from_csv(path, DESK)

    def test_csv_without_rows_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        with pytest.raises(ValueError, match=f"^count file {re.escape(str(path))} holds no rows$"):
            CountTable.from_csv(path, DESK)

    def test_csv_byte_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"X", b"\xff", 1)
        path.write_bytes(b"".join(lines))
        prefix = f"count file {path} line 3: 'utf-8' codec can't decode byte 0xff"
        with pytest.raises(ValueError, match=re.escape(prefix)):
            CountTable.from_csv(path, DESK)

    def test_csv_missing_column_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        rows = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        path.write_text("\n".join(rows) + "\n")
        where = f"count file {path} line 1: the header must be u,v,a,b,trial,count, not"
        with pytest.raises(ValueError, match=f"^{re.escape(where)} 'u,v,a,b,trial'$"):
            CountTable.from_csv(path, DESK)

    @pytest.mark.parametrize(
        "header", ["count,trial,b,a,v,u", "v,u,a,b,trial,count", "u,v,a,b,trial,count,note"]
    )
    def test_csv_other_header_rejected(self, tmp_path, header):
        # A reader that looks columns up by name takes each of these as data.
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        columns = header.split(",")
        body = [[dict(zip(COUNT_HEADER, row)).get(col, "x") for col in columns] for row in rows]
        path.write_text("\n".join(",".join(row) for row in [columns, *body]) + "\n")
        where = f"count file {path} line 1: the header must be u,v,a,b,trial,count, not"
        with pytest.raises(ValueError, match=f"^{re.escape(where)} {header!r}$"):
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

    @staticmethod
    def edited_csv(tmp_path, line, column, text):
        """A ``to_csv`` file of setting (X,Y), ``text`` in cell ``column`` of line ``line``."""
        path = tmp_path / "counts.csv"
        simulate_counts(epr_family(0.5, "00"), ("X", "Y"), DESK).to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[line - 1].rstrip("\r\n").split(",")
        cells[COUNT_HEADER.index(column)] = text
        lines[line - 1] = ",".join(cells) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        return path

    @pytest.mark.parametrize("column", ["trial", "a", "b", "count"])
    def test_csv_non_integer_cell_rejected(self, tmp_path, column):
        path = self.edited_csv(tmp_path, 3, column, "abc")
        pattern = f"count file {re.escape(str(path))} line 3 column {column} is not an integer: 'abc'"
        with pytest.raises(ValueError, match=pattern):
            CountTable.from_csv(path, DESK)

    @pytest.mark.parametrize("column", ["trial", "a", "b", "count"])
    @pytest.mark.parametrize("text", ["1_0", " 7", "7 ", "+7", "07", "\u0663", "-0"], ids=repr)
    def test_csv_integer_not_as_str_writes_it_rejected(self, tmp_path, column, text):
        # int() reads each of these (the Arabic-Indic digit three as 3), but
        # str() writes none of them, so none is a cell to_csv wrote.
        path = self.edited_csv(tmp_path, 3, column, text)
        where = f"count file {path} line 3 column {column} is not an integer: {text!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}$"):
            CountTable.from_csv(path, DESK)

    def test_csv_negative_count_rejected_on_its_line(self, tmp_path):
        # "-3" is an integer as str writes it, but no count.
        path = self.edited_csv(tmp_path, 3, "count", "-3")
        where = f"count file {path} line 3 column count is negative: -3"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}$"):
            CountTable.from_csv(path, DESK)

    @pytest.mark.parametrize("column", ["u", "v"])
    def test_csv_axis_outside_xyz_rejected_on_its_line(self, tmp_path, column):
        path = self.edited_csv(tmp_path, 2, column, "Q")
        setting = ("Q", "Y") if column == "u" else ("X", "Q")
        where = f"count file {path} line 2: the setting {setting} holds an axis not in {AXES}"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}$"):
            CountTable.from_csv(path, DESK)

    @pytest.mark.parametrize(
        "count, refusal",
        [
            (2**63, "counts for (X,Y) must be whole numbers within int64"),
            (10**400, "counts for (X,Y) must be whole numbers within int64"),
            (2**53, "setting (X,Y) totals more than 2**53 counts"),
        ],
        ids=["2**63", "10**400", "2**53"],
    )
    def test_csv_count_the_table_refuses_names_the_file(self, tmp_path, count, refusal):
        path = self.edited_csv(tmp_path, 3, "count", str(count))
        with pytest.raises(ValueError, match=f"^{re.escape(f'count file {path}: {refusal}')}$"):
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


class TestCorrelatorFromCounts:
    def test_zero_total_rejected(self):
        message = re.escape("zero total count for setting (Z,Z) under key ('Z', 'Z')")
        with pytest.raises(ValueError, match=f"^{message}$"):
            correlator_from_counts(hand_table([[0, 0], [0, 0]]), "Z", "Z")

    def test_one_count_is_enough(self):
        # About 63 % of the 1000 redraws of the single count are nonzero.
        est = correlator_from_counts(hand_table([[0, 1], [0, 0]]), "Z", "Z")
        assert (est.value, est.n_total) == (-1.0, 1)

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

    def test_bootstrap_stream_is_keyed_by_the_setting(self):
        # The redraws of an (X, Z) table come from the stream (seed, tag, 0, 2,
        # _BOOT_DOMAIN, 0), axis indices in order, one replicate per draw.
        table = simulate_counts(epr_family(0.5, "00"), ("X", "Z"), DESK, stream_tag=4)
        pooled = table.counts.sum(axis=0)
        rng = np.random.default_rng(np.random.SeedSequence((DESK.seed, 4, 0, 2, 811, 0)))
        draws = rng.poisson(pooled, size=(1000, 2, 2))
        signed = draws[:, 0, 0] - draws[:, 0, 1] - draws[:, 1, 0] + draws[:, 1, 1]
        want = float(np.std(signed / draws.sum(axis=(1, 2)), ddof=1))
        assert correlator_from_counts(table, "X", "Z").std_err == want

    def test_deterministic_given_seed_and_tag(self):
        table = simulate_counts(epr_family(0.5, "00"), ("X", "X"), DESK, stream_tag=4)
        a = correlator_from_counts(table, "X", "X")
        b = correlator_from_counts(table, "X", "X")
        assert (a.value, a.std_err) == (b.value, b.std_err)

    @pytest.mark.parametrize("num_bootstrap", [0, 1, 2.0, 2.5, np.float64(3), True], ids=repr)
    def test_fewer_than_two_replicates_rejected(self, num_bootstrap, monkeypatch):
        # No spread to measure; a 0.0 error would read as exact. A count
        # that is no integer is refused too, before any draw; numpy would
        # raise a TypeError for a float size.
        def no_draw(*args):
            raise AssertionError("a bootstrap replicate was drawn")

        monkeypatch.setattr(experiment, "_poisson_bootstrap", no_draw)
        table = hand_table([[1, 49], [49, 1]])
        shown = re.escape(repr(num_bootstrap))
        with pytest.raises(ValueError, match=f"^num_bootstrap={shown}: .* at least 2"):
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

    def test_replicate_count_ceiling(self, monkeypatch):
        # _MAX_DRAWS replicates are drawn; one more is refused before any draw.
        table = hand_table([[1, 49], [49, 1]])
        assert correlator_from_counts(table, "Z", "Z", num_bootstrap=_MAX_DRAWS).std_err > 0.0

        def no_draw(*args):
            raise AssertionError("a bootstrap replicate was drawn")

        monkeypatch.setattr(experiment, "_poisson_bootstrap", no_draw)
        refusal = f"^num_bootstrap={_MAX_DRAWS + 1}: .* at most 100000$"
        with pytest.raises(ValueError, match=refusal):
            correlator_from_counts(table, "Z", "Z", num_bootstrap=_MAX_DRAWS + 1)


class TestEstimatedCorrelator:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatedCorrelator(value=1.5, std_err=0.0, n_total=10)
        with pytest.raises(ValueError):
            EstimatedCorrelator(value=0.5, std_err=-1.0, n_total=10)
        with pytest.raises(ValueError):
            EstimatedCorrelator(value=0.5, std_err=0.1, n_total=0)
        for std_err in (float("nan"), math.inf):
            with pytest.raises(ValueError, match="must be finite and nonnegative"):
                EstimatedCorrelator(value=0.5, std_err=std_err, n_total=10)
        with pytest.raises(ValueError, match=r"^n_total=2\.5 must be an integer of at least 1$"):
            EstimatedCorrelator(value=0.5, std_err=0.1, n_total=2.5)


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

    def test_one_pair_is_a_full_unit_error(self):
        assert delta_method_std_err(0.0, 1) == 1.0

    @pytest.mark.parametrize(
        "value, n_total, message",
        [
            (float("nan"), 10, "correlator nan outside"),
            (2.0, 10, "correlator 2.0 outside"),
            (-1.0 - 2**-52, 10, "correlator -1.0000000000000002 outside"),
            (0.5, True, "n_total=True must be"),
            (0.5, 2.0, "n_total=2.0 must be"),
            (0.5, -3, "n_total=-3 must be"),
        ],
        ids=["nan", "above-one", "below-minus-one", "bool", "float", "negative"],
    )
    def test_impossible_input_refused(self, value, n_total, message):
        # NaN and 2.0 once gave 0.0, an error that reads as exact, and True
        # counted as one pair; no estimate holds any of them.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            delta_method_std_err(value, n_total)


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

    def test_repeated_key_rejected(self):
        # Once 4 tables were drawn and 3 returned: tag 3's replaced tag 2's.
        # The spec itself now refuses the repeat, so no count is drawn.
        xx = ObservableChain(("X", "X"))
        labels = ("01", "10", "00", "00")
        with pytest.raises(ValueError, match=re.escape("repeats constraint key ('00', 'XX')")):
            spec = ParadoxSpec(
                [ParadoxConstraint(lb, xx, 0.0) for lb in labels], MixtureClaim("00", ("01", "10"))
            )
            paradox_counts(spec, self.sources(), DESK)


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
            ("01", "ZZ"): hand_table(flat, stream_tag=0),
            ("10", "ZZ"): hand_table(flat, stream_tag=1),
            ("00", "ZZ"): hand_table(flat, stream_tag=2),
        }
        assert paradox_p_value(spec, counts) == (1.0, 0.0)

    def test_hand_computed_bound(self):
        # Components read E = 0 on N = 100; the mixed row reads E = 0.4
        # on N = 100, so the weighted gap is sqrt(100) * 0.4 = 4. One
        # mixed row and a two-sided tail make the bound 2 exp(-8).
        spec = two_party_mixture_spec()
        flat = [[25, 25], [25, 25]]
        counts = {
            ("01", "ZZ"): hand_table(flat, stream_tag=0),
            ("10", "ZZ"): hand_table(flat, stream_tag=1),
            ("00", "ZZ"): hand_table([[45, 15], [15, 25]], stream_tag=2),
        }
        p, log10_p = paradox_p_value(spec, counts)
        assert p == pytest.approx(2.0 * math.exp(-8.0), rel=1e-12)
        assert log10_p == pytest.approx(math.log10(2.0) - 8.0 / math.log(10.0), rel=1e-12)

    def test_more_data_means_smaller_p(self):
        spec = two_party_mixture_spec()
        flat = [[25, 25], [25, 25]]
        skew = [[45, 15], [15, 25]]
        small = {
            ("01", "ZZ"): hand_table(flat, stream_tag=0),
            ("10", "ZZ"): hand_table(flat, stream_tag=1),
            ("00", "ZZ"): hand_table(skew, stream_tag=2),
        }
        big = {
            ("01", "ZZ"): hand_table([[c * 4 for c in row] for row in flat], stream_tag=0),
            ("10", "ZZ"): hand_table([[c * 4 for c in row] for row in flat], stream_tag=1),
            ("00", "ZZ"): hand_table([[c * 4 for c in row] for row in skew], stream_tag=2),
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
            ("01", "ZZ"): hand_table(flat, stream_tag=0),
            ("10", "ZZ"): hand_table(flat, stream_tag=1),
            ("00", "ZZ"): hand_table(skew, stream_tag=2),
        }
        p, log10_p = paradox_p_value(spec, counts)
        assert p == 5e-324
        assert log10_p == pytest.approx(-(1e8 * 0.16) / (2 * math.log(10)), rel=1e-6)

    def test_missing_table_rejected(self):
        spec = two_party_mixture_spec()
        counts = {("01", "ZZ"): hand_table([[25, 25], [25, 25]])}
        with pytest.raises(ValueError, match=re.escape("no counts under key ('10', 'ZZ')")):
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

    def test_union_counts_every_mixed_row(self):
        # Two mixed rows (XX and YY) on the coherence sources: the union runs
        # over 2 * 2 tails, so log10 p = log10 4 - g^2 / (2 ln 10), with g
        # the sqrt(N)-weighted gap of the same point estimates.
        theta = math.pi / 8
        spec = coherence_paradox(theta, "X")
        yy = ObservableChain(("Y", "Y"))
        spec = ParadoxSpec(
            spec.constraints
            + (
                ParadoxConstraint("01", yy, 0.0),
                ParadoxConstraint("10", yy, 0.0),
                ParadoxConstraint("00", yy, math.sin(2.0 * theta)),
            ),
            spec.mixture_claim,
        )
        cfg = ExperimentConfig(
            pair_rate=600.0,
            duration_per_setting=1.0,
            num_trials=2,
            visibility_v=0.9,
            efficiency=1.0,
            seed=5,
        )
        assert cfg.mean_per_trial == 600.0
        sources = {label: epr_family(theta, label) for label in EPR_LABELS}
        counts = paradox_counts(spec, sources, cfg)
        cells = {key: t.counts.sum(axis=0) for key, t in counts.items()}
        gap, _, rows = _mixture_gap(
            spec,
            {key: float(_cell_correlator(c)) for key, c in cells.items()},
            {key: math.sqrt(c.sum()) for key, c in cells.items()},
        )
        assert rows == 2 and gap > 0.0
        _, log10_p = paradox_p_value(spec, counts)
        assert log10_p == math.log10(4.0) - gap * gap / (2.0 * math.log(10.0))

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


class TestJudge:
    """``judge`` rebuilds a run's verdict from its count files alone."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """A default ``paradox --mode simulated`` run, its count files read back
        with the manifest's config and each constraint's index as stream tag."""
        out = tmp_path_factory.mktemp("judge") / "o"
        assert main(["paradox", "--mode", "simulated", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = ExperimentConfig(**manifest["config"])
        args = manifest["arguments"]
        spec = coherence_paradox(parse_angle(args["theta"]), args["axis"])
        counts = {
            (label, obs): CountTable.from_csv(out / f"counts_{label}_{obs}.csv", cfg, stream_tag=i)
            for i, (label, obs) in enumerate(spec.observation_keys())
        }
        assert sorted(f"counts_{lb}_{ob}.csv" for lb, ob in counts) == sorted(
            name for name in os.listdir(out) if name.startswith("counts_")
        )
        return out, spec, counts

    def test_count_files_rebuild_the_verdict_and_estimates(self, run):
        out, spec, counts = run
        rows, verdict = judge(spec, counts)
        doc = json.dumps(verdict.to_dict(), indent=2, sort_keys=True) + "\n"
        assert doc == (out / "verdict.json").read_text()
        with open(out / "paradox.csv", newline="") as fh:
            written = list(csv.DictReader(fh))
        assert [(r["label"], r["observable"]) for r in written] == list(spec.observation_keys())
        for want, got in zip(written, rows):
            assert list(got) == ["estimate", "std_err", "delta_std_err", "n_total"]
            assert [want[col] for col in got] == [
                repr(got["estimate"]), repr(got["std_err"]), repr(got["delta_std_err"]),
                str(got["n_total"]),
            ]

    def test_one_moved_count_changes_the_verdict(self, run):
        _out, spec, counts = run
        _rows, verdict = judge(spec, counts)
        key = ("00", "XX")
        cells = counts[key].counts.copy()
        cells[0, 0, 0] -= 1
        cells[0, 0, 1] += 1
        table = CountTable(counts[key].setting, cells, counts[key].config, counts[key].stream_tag)
        _rows, moved = judge(spec, {**counts, key: table})
        assert moved.violation_gap != verdict.violation_gap
        assert moved.log10_p_value != verdict.log10_p_value
        assert moved.per_constraint_values[key] != verdict.per_constraint_values[key]

    @pytest.mark.parametrize("entry", [judge, paradox_p_value], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "fault",
        ["missing", "another key", "zero total", "another constraint", "every tag 0",
         "another config"],
    )
    def test_refused_before_any_bootstrap_draw(self, run, fault, entry, monkeypatch):
        # ``judge`` and ``paradox_p_value`` read the tables through the one
        # ``_one_draw`` call, so the exported p-value refuses every set of
        # tables the verdict refuses, and ``judge`` refuses them before it
        # draws any row's bootstrap.
        out, spec, counts = run

        def no_draw(*args):
            raise AssertionError("a bootstrap replicate was drawn")

        monkeypatch.setattr(experiment, "_poisson_bootstrap", no_draw)
        counts = dict(counts)
        if fault == "missing":
            del counts[("00", "XX")]
            message = r"^no counts under key \('00', 'XX'\)$"
        elif fault == "another key":
            counts[("01", "XX")] = counts[("01", "ZZ")]
            message = r"counts under key \('01', 'XX'\) are for setting \('Z', 'Z'\)"
        elif fault == "zero total":
            table = counts[("10", "XX")]
            zeros = np.zeros_like(table.counts)
            counts[("10", "XX")] = CountTable(table.setting, zeros, table.config, table.stream_tag)
            # Two more rows are XX; the key tells them apart.
            message = r"^zero total count for setting \(X,X\) under key \('10', 'XX'\)$"
        elif fault == "another constraint":
            # The same setting, so only the stream tag tells the two rows apart.
            counts[("10", "XX")] = counts[("00", "XX")]
            message = (
                r"^counts under key \('10', 'XX'\) are of another draw than those under"
                r" \('01', 'ZZ'\): row 3 needs their config and stream tag 3$"
            )
        elif fault == "every tag 0":
            cfg = counts[("01", "ZZ")].config
            counts = {
                (label, obs): CountTable.from_csv(out / f"counts_{label}_{obs}.csv", cfg)
                for label, obs in spec.observation_keys()
            }
            message = r"^counts under key \('10', 'ZZ'\) are of another draw .* row 1 needs"
        else:
            table = counts[("00", "XX")]
            other = table.config.replace(seed=table.config.seed + 1)
            counts[("00", "XX")] = CountTable(table.setting, table.counts, other, table.stream_tag)
            message = r"^counts under key \('00', 'XX'\) are of another draw"
        with pytest.raises(ValueError, match=message):
            entry(spec, counts)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "cfg", [DESK, ONE_TRIAL.replace(pair_rate=10.0)], ids=["desk", "ten-pairs"]
    )
    @pytest.mark.parametrize(
        "make_spec",
        [lambda t: coherence_paradox(t, "X"), lambda t: _game_spec(t, "x")],
        ids=["coherence_paradox", "game"],
    )
    def test_rows_are_the_estimates_of_one_read(self, seed, cfg, make_spec, monkeypatch):
        # One read of the tables gives every row and the p-value; each row is
        # what ``correlator_from_counts`` makes of its table alone.
        theta = 0.3
        spec = make_spec(theta)
        counts = paradox_counts(spec, paradox_sources(theta), cfg.replace(seed=seed))
        reads = []

        def spy(*args):
            reads.append(args)
            return one_draw(*args)

        one_draw = experiment._one_draw
        monkeypatch.setattr(experiment, "_one_draw", spy)
        rows, verdict = judge(spec, counts)
        assert len(reads) == 1
        monkeypatch.undo()
        for row, key in zip(rows, spec.observation_keys()):
            e = correlator_from_counts(counts[key], *counts[key].setting)
            assert (row["estimate"], row["std_err"], row["n_total"]) == (
                e.value, e.std_err, e.n_total
            )
            assert type(row["n_total"]) is int
        assert (verdict.p_value, verdict.log10_p_value) == paradox_p_value(spec, counts)

    @pytest.mark.parametrize("entry", [judge, paradox_p_value], ids=lambda f: f.__name__)
    def test_table_under_an_unlisted_key_is_ignored(self, run, entry):
        # A ZZ table under an XX key the spec does not list: read, it would be refused.
        _out, spec, counts = run
        got = entry(spec, {**counts, ("11", "XX"): counts[("01", "ZZ")]})
        if entry is judge:
            got = (got[1].p_value, got[1].log10_p_value)
        assert got == paradox_p_value(spec, counts)


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

    # An int beyond the float range once raised OverflowError, an
    # ArithmeticError, which the CLI reports as a numerical failure.
    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_angle_beyond_float_range_rejected(self, sign):
        state = epr_family(math.pi / 4, "00")
        angle = sign * 10**400
        message = re.escape(f"angle {angle!r}: an analyzer angle and twice it must be finite")
        with pytest.raises(ValueError, match=message):
            visibility_scan(state, angle, self.GRID)
        with pytest.raises(ValueError, match=message):
            visibility_scan(state, 0.0, [*self.GRID, angle])

    # Fewer than three angles distinct modulo pi leave the fit's design
    # matrix below rank 3: once V = 6.54 and V = 1.0 as data for the first
    # two grids, and ArithmeticError for the third.
    @pytest.mark.parametrize(
        "grid, distinct", [([0.0, 0.3], 2), ([0.1] * 4, 1), ([0.0, math.pi, 2 * math.pi], 1)]
    )
    @pytest.mark.parametrize("simulate", [False, True])
    def test_grid_with_fewer_than_three_angles_modulo_pi_rejected(self, grid, distinct, simulate):
        message = f"needs 3 grid angles distinct modulo pi, found {distinct}"
        with pytest.raises(ValueError, match=message):
            visibility_scan(epr_family(math.pi / 4, "00"), 0.0, grid, simulate=simulate)

    def test_three_angles_distinct_modulo_pi_are_enough(self):
        grid = [0.0, math.pi / 3, 2 * math.pi / 3, math.pi]
        scan = visibility_scan(epr_family(math.pi / 4, "00"), 0.0, grid)
        assert scan.visibility == pytest.approx(1.0, abs=1e-10)

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

    @pytest.mark.parametrize("pair_rate", [1e-3, 1e3])
    def test_visibility_does_not_depend_on_the_rate(self, pair_rate):
        # The rates scale with pair_rate and the fitted visibility does not,
        # also when the mean rate is far below one per second.
        cfg = ExperimentConfig(pair_rate=pair_rate, visibility_v=0.8)
        scan = visibility_scan(epr_family(math.pi / 4, "00"), 0.0, self.GRID, cfg)
        assert scan.visibility == pytest.approx(0.8, abs=1e-12)

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

    def test_simulated_scan_above_the_draw_ceiling_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a scan beyond the ceiling must not draw")

        monkeypatch.setattr(experiment, "_draws", no_draw)
        state = epr_family(math.pi / 4, "00")
        grid = np.linspace(0.0, math.pi, _MAX_DRAWS + 1)
        with pytest.raises(ValueError, match=f"{_MAX_DRAWS + 1} angles is above the ceiling"):
            visibility_scan(state, 0.0, grid, simulate=True)
        # An exact scan draws nothing and has no ceiling.
        assert len(visibility_scan(state, 0.0, grid).angles) == _MAX_DRAWS + 1

    def test_simulated_scan_at_the_draw_ceiling_runs(self, monkeypatch):
        # The ceiling itself is allowed; a small one keeps the draws cheap.
        cfg = ExperimentConfig(num_trials=1)
        monkeypatch.setattr(experiment, "_MAX_DRAWS", 3)
        state = epr_family(math.pi / 4, "00")
        assert visibility_scan(state, 0.0, [0.0, 0.5, 1.0], cfg, simulate=True).counts
        with pytest.raises(ValueError, match="4 angles is above the ceiling of 3"):
            visibility_scan(state, 0.0, [0.0, 0.5, 1.0, 1.5], cfg, simulate=True)

    def test_simulated_scan_with_no_counts_rejected(self):
        # About 2e-295 pairs per point: every draw is 0, which is no data
        # rather than a numerical failure.
        cfg = ExperimentConfig(duration_per_setting=1e-300, seed=1)
        state = epr_family(math.pi / 4, "00")
        with pytest.raises(ValueError, match="^zero total count for the fringe scan$"):
            visibility_scan(state, 0.0, self.GRID, cfg, simulate=True)

    def test_dark_port_fit_fails_loudly(self):
        dark = StateVector([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="fit"):
            visibility_scan(dark, 0.0, self.GRID)

    def test_few_counts_fit_is_refused_as_a_value(self):
        # About one pair per second: most seeds draw nothing, and a few
        # draw counts whose fit has a negative mean rate. Each is a
        # refusal of the data (ValueError), never a numerical failure.
        state = epr_family(math.pi / 4, "00")
        refused = []
        for seed in range(200):
            cfg = ExperimentConfig(
                pair_rate=1.0, duration_per_setting=1.0, num_trials=1, efficiency=1.0, seed=seed
            )
            try:
                visibility_scan(state, 0.0, [0.0, 0.3, 0.6], cfg, simulate=True)
            except ValueError as exc:
                refused.append(str(exc))
        assert any(message.startswith("the fringe fit ") for message in refused)
