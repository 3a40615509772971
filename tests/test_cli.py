"""Command-line interface: parsing, exit codes, file outputs, manifests."""

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import cohsim
from cohsim import __version__
from cohsim.cli import main, parse_angle, parse_angle_list
from cohsim.experiment import CountTable, ExperimentConfig, point_correlator
from cohsim.reports import write_rows_csv
from cohsim.tomography import report_states

FAST_CFG_TEXT = (
    "pair_rate = 1e5\n"
    "duration_per_setting = 0.01\n"
    "num_trials = 2\n"
    "efficiency = 1.0\n"
    "seed = 1\n"
)


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG_TEXT)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def manifest_of(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def assert_manifest_complete(out_dir):
    """The manifest must list exactly the files on disk."""
    manifest = manifest_of(out_dir)
    on_disk = sorted(
        os.path.relpath(os.path.join(root, name), out_dir).replace(os.sep, "/")
        for root, _dirs, names in os.walk(out_dir)
        for name in names
    )
    assert manifest["output_files"] == on_disk
    return manifest


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi/12", math.pi / 12),
            ("3pi/4", 3 * math.pi / 4),
            ("3*pi/4", 3 * math.pi / 4),
            ("pi", math.pi),
            ("2pi", 2 * math.pi),
            ("PI/6", math.pi / 6),
            ("0.5", 0.5),
            (" pi/8 ", math.pi / 8),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert parse_angle(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize(
        "text",
        [
            "pi/0",
            "junk",
            "",
            "pi/pi",
            "4/pi",
            "nan",
            "inf",
            "1e400",
            pytest.param("1" + "0" * 308 + "pi", id="1e308pi"),
            pytest.param("1" + "0" * 400 + "pi", id="1e400pi"),
        ],
    )
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)

    def test_angle_list(self):
        assert parse_angle_list("pi/4, 0.5") == pytest.approx((math.pi / 4, 0.5))
        with pytest.raises(ValueError, match="nonempty"):
            parse_angle_list(" , ")


class TestExitCodes:
    def test_bad_angle_exits_two(self, tmp_path, capsys):
        code = main(["paradox", "--theta", "junk", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cohsim: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["paradox", "--theta", "pi/2"],
            ["paradox", "--theta", "0", "--mode", "simulated"],
            ["game", "--theta-grid", "pi/2"],
        ],
        ids=["paradox-half-pi", "paradox-simulated-zero", "game-half-pi"],
    )
    def test_boundary_angle_exits_two(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert "cohsim: error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_unusable_out_exits_two(self, under, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "o" if under else blocker
        assert main(["dicke", "--n", "3", "--out", str(out)]) == 2
        assert "cohsim: error: cannot create output directory" in capsys.readouterr().err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_exits_two(self, kind, tmp_path, capsys):
        config = tmp_path / "cfg"
        if kind == "directory":
            config.mkdir()
        out = tmp_path / "o"
        assert main(["paradox", "--config", str(config), "--out", str(out)]) == 2
        assert f"cohsim: error: {config}: " in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_data_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "paradox.csv").mkdir(parents=True)
        assert main(["paradox", "--out", str(out)]) == 2
        assert f"cohsim: error: {out / 'paradox.csv'}: Is a directory" in capsys.readouterr().err

    def test_failed_run_manifest_says_it_failed(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "paradox.csv").mkdir(parents=True)
        assert main(["paradox", "--out", str(out)]) == 2
        manifest = assert_manifest_complete(out)
        assert manifest["output_files"] == ["manifest.json"]
        assert manifest["exit_code"] == 2
        assert manifest["error"] == capsys.readouterr().err.rstrip("\n")
        assert manifest["wall_clock_seconds"] >= 0.0

    def test_successful_run_records_exit_code_zero(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["dicke", "--n", "2", "--out", str(out)]) == 0
        manifest = assert_manifest_complete(out)
        assert manifest["exit_code"] == 0
        assert manifest["error"] is None

    def test_failed_manifest_rewrite_keeps_code_and_message(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "o"

        def fail_after_writing(verdict):
            (out / "manifest.json").unlink()
            (out / "manifest.json").mkdir()
            raise ArithmeticError("boom")

        monkeypatch.setattr("cohsim.cli._verdict_line", fail_after_writing)
        assert main(["paradox", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "cohsim: numerical failure: boom\n"

    def test_dicke_n_too_small_exits_two(self, tmp_path, capsys):
        assert main(["dicke", "--n", "1", "--out", str(tmp_path / "o")]) == 2

    def test_empty_game_grid_exits_two(self, tmp_path, capsys):
        code = main(["game", "--theta-grid", " , ", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_too_few_scan_points_exits_two(self, tmp_path, capsys):
        code = main(["visibility", "--points", "2", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_nonfinite_fixed_arm_exits_two(self, tmp_path, capsys):
        code = main(["visibility", "--fixed", "nan", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1e308", "-1e308"])
    def test_fixed_arm_whose_double_overflows_exits_two(self, text, tmp_path, capsys):
        # Once exit 2 with only "math domain error", from cos(2 * 1e308).
        out = tmp_path / "o"
        code = main(["visibility", f"--fixed={text}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"angle {float(text)!r}: an analyzer angle and twice it must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("zeros", [308, 400])
    def test_huge_multiple_of_pi_exits_two(self, zeros, tmp_path, capsys):
        text = "1" + "0" * zeros + "pi"
        code = main(["visibility", "--fixed", text, "--out", str(tmp_path / "o")])
        assert code == 2
        assert repr(text) in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["seed = 1e3", "pair_rate = fast", "num_trials = 2.5"])
    def test_unparsable_config_value_names_key_and_file(self, line, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "o"
        assert main(["paradox", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cohsim: error: ")
        assert line.split(" = ")[0] in err and str(config) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tomo", "report"])
    def test_negative_bootstrap_exits_two(self, command, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([command, "--bootstrap", "-1", "--out", str(out)]) == 2
        assert "bootstrap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tomo", "report"])
    def test_single_bootstrap_replicate_exits_two(self, command, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([command, "--bootstrap", "1", "--out", str(out)]) == 2
        assert "at least 2 replicates" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("states", ["pi/4,pi/4", "pi/4,0.7853982"])
    def test_repeated_tomography_state_exits_two(self, states, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["tomo", "--states", states, "--bootstrap", "0", "--out", str(out)]) == 2
        assert "'00(theta=0.785398)'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_raises_argparse_exit(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert f"cohsim {__version__}" in capsys.readouterr().out

    def test_numerical_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise ArithmeticError("fit degenerate")

        monkeypatch.setattr("cohsim.cli.visibility_scan", explode)
        out = tmp_path / "o"
        assert main(["visibility", "--out", str(out)]) == 3
        assert "cohsim: numerical failure:" in capsys.readouterr().err
        assert not out.exists()


class TestNoScipy:
    def test_runs_with_scipy_blocked(self, tmp_path):
        # A fresh interpreter, since this test process already holds scipy
        # from the oracle tests; None in sys.modules makes any import of
        # scipy raise ImportError.
        script = textwrap.dedent(
            f"""
            import sys
            sys.modules["scipy"] = None
            import cohsim.cli
            assert cohsim.cli.main(["report", "--out", {str(tmp_path / "r")!r}]) == 0
            from cohsim.paradox import dicke_paradox, lhv_mixture_test, theoretical_values
            spec = dicke_paradox(3, 0)
            verdict = lhv_mixture_test(spec, theoretical_values(spec), tol=1e-9)
            assert abs(verdict.violation_gap - 2 / 3) < 1e-9, verdict.violation_gap
            from cohsim.paradox import ghz_stabilizer_check
            from cohsim.states import ghz_state
            verdict = ghz_stabilizer_check(ghz_state(3))
            assert abs(verdict.violation_gap - 0.5) < 1e-9, verdict.violation_gap
            from cohsim.paradox import ParadoxSpec
            rows = {{"A": (1, 1), "B": (-1, 1), "C": (1, -1), "M": (-1, -1)}}
            spec = ParadoxSpec.from_dict({{
                "constraints": [
                    {{"source": lb, "observable": ob, "expected": val}}
                    for lb, pair in rows.items() for ob, val in zip(("XX", "ZZ"), pair)
                ],
                "mixture_claim": {{"mixed": "M", "components": ["A", "B", "C"]}},
            }})
            verdict = lhv_mixture_test(spec, theoretical_values(spec), tol=1e-9)
            assert verdict.violation_gap == 1.0, verdict.violation_gap
            assert verdict.witness_weights == (0.0, 0.5, 0.5), verdict.witness_weights
            loaded = [
                name for name, module in sys.modules.items()
                if (name == "scipy" or name.startswith("scipy.")) and module is not None
            ]
            assert not loaded, loaded
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cohsim.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestConfigPlumbing:
    def test_config_flag_feeds_manifest_and_run(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "o"
        assert main(["paradox", "--config", fast_cfg, "--out", str(out)]) == 0
        manifest = manifest_of(out)
        assert manifest["config"]["pair_rate"] == 1e5
        assert manifest["config"]["num_trials"] == 2
        assert manifest["seed"] == 1

    def test_env_var_used_when_flag_absent(self, tmp_path, fast_cfg, monkeypatch, capsys):
        monkeypatch.setenv("COHSIM_CONFIG", fast_cfg)
        out = tmp_path / "o"
        assert main(["paradox", "--out", str(out)]) == 0
        assert manifest_of(out)["config"]["duration_per_setting"] == 0.01

    def test_flag_overrides_file_values(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "visibility",
                "--config",
                fast_cfg,
                "--seed",
                "77",
                "--visibility",
                "0.85",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest = manifest_of(out)
        assert manifest["seed"] == 77
        assert manifest["config"]["visibility_v"] == 0.85
        doc = json.loads((out / "visibility.json").read_text())
        assert doc["visibility"] == pytest.approx(0.85, abs=1e-10)

    @pytest.mark.parametrize(
        "line", ["pair_rate = nan", "pair_rate = inf", "duration_per_setting = inf"]
    )
    def test_nonfinite_config_value_exits_two(self, line, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        out = tmp_path / "o"
        assert main(["paradox", "--config", str(path), "--out", str(out)]) == 2
        assert f"{line.split()[0]}=" in capsys.readouterr().err
        assert not out.exists()

    def test_count_beyond_exact_range_exits_two(self, tmp_path, capsys):
        # Unchecked, the pooled int64 counts at this rate would wrap.
        path = tmp_path / "huge.cfg"
        path.write_text("pair_rate = 1.5e17\n")
        out = tmp_path / "o"
        args = ["paradox", "--mode", "simulated", "--config", str(path), "--out", str(out)]
        assert main(args) == 2
        assert "exceeds 2**50" in capsys.readouterr().err
        assert not out.exists()

    def test_versions_block(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["paradox", "--out", str(out)]) == 0
        versions = manifest_of(out)["versions"]
        assert set(versions) == {"cohsim", "numpy", "python"}
        assert versions["cohsim"] == __version__


class TestParadoxCommand:
    def test_exact_table_values(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["paradox", "--theta", "pi/4", "--out", str(out)]) == 0
        rows = read_csv(out / "paradox.csv")
        assert len(rows) == 5
        by_key = {(r["label"], r["observable"]): float(r["theoretical"]) for r in rows}
        assert by_key[("01", "ZZ")] == -1.0
        assert by_key[("10", "ZZ")] == -1.0
        assert by_key[("01", "XX")] == 0.0
        assert by_key[("10", "XX")] == 0.0
        assert by_key[("00", "XX")] == pytest.approx(1.0)
        verdict = json.loads((out / "verdict.json").read_text())
        assert not verdict["lhv_feasible"]
        assert verdict["violation_gap"] == pytest.approx(1.0)
        assert "INFEASIBLE" in capsys.readouterr().out
        assert_manifest_complete(out)

    def test_simulated_run_files_and_estimates(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "paradox",
                "--mode",
                "simulated",
                "--config",
                fast_cfg,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest = assert_manifest_complete(out)
        count_files = [f for f in manifest["output_files"] if f.startswith("counts_")]
        assert len(count_files) == 5
        rows = read_csv(out / "paradox.csv")
        for row in rows:
            assert abs(float(row["estimate"]) - float(row["theoretical"])) < 0.12
            assert 0.0 <= float(row["std_err"]) < 0.1
            assert int(row["n_total"]) > 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["p_value"] < 1e-10

    def test_count_csv_round_trips_to_the_reported_estimate(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "o"
        main(["paradox", "--mode", "simulated", "--config", fast_cfg, "--out", str(out)])
        manifest = manifest_of(out)
        cfg = ExperimentConfig(**manifest["config"])
        rows = {(r["label"], r["observable"]): r for r in read_csv(out / "paradox.csv")}
        # Stream tags follow constraint order: ZZ on 01 and 10, then the
        # transverse rows on 01, 10, 00.
        tags = {
            ("01", "ZZ"): 0,
            ("10", "ZZ"): 1,
            ("01", "XX"): 2,
            ("10", "XX"): 3,
            ("00", "XX"): 4,
        }
        for (label, obs), tag in tags.items():
            table = CountTable.from_csv(out / f"counts_{label}_{obs}.csv", cfg, stream_tag=tag)
            value, total = point_correlator(table, obs[0], obs[1])
            row = rows[(label, obs)]
            assert value == pytest.approx(float(row["estimate"]), abs=1e-12)
            assert total == int(row["n_total"])

    def test_simulated_outputs_are_deterministic(self, tmp_path, fast_cfg, capsys):
        args = ["paradox", "--mode", "simulated", "--config", fast_cfg]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in manifest_of(out_a)["output_files"]:
            if name == "manifest.json":
                continue
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


class TestGameCommand:
    def test_exact_default_grid(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["game", "--out", str(out)]) == 0
        rows = read_csv(out / "game.csv")
        assert [float(r["p_win"]) for r in rows] == pytest.approx(
            [0.5625, 0.5883883476483184, 0.6082531754730548, 0.625]
        )
        for row in rows:
            coherence_sum = sum(float(row[f"i_{a}{b}"]) for a in "01" for b in "01")
            assert coherence_sum == pytest.approx(0.0, abs=1e-12)
        assert_manifest_complete(out)

    def test_simulated_z_strategy(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "game",
                "--strategy",
                "z",
                "--mode",
                "simulated",
                "--theta-grid",
                "pi/4",
                "--config",
                fast_cfg,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        (row,) = read_csv(out / "game.csv")
        assert float(row["p_win"]) == pytest.approx(0.625)
        # At unit visibility every ZZ count lands in an anticorrelated
        # cell, so the estimate is exact and the bootstrap spread is 0.
        assert float(row["p_win_estimate"]) == pytest.approx(0.625)
        assert float(row["p_win_std_err"]) == 0.0

    def test_simulated_x_strategy_has_real_spread(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "game",
                "--mode",
                "simulated",
                "--theta-grid",
                "pi/6",
                "--config",
                fast_cfg,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        (row,) = read_csv(out / "game.csv")
        p_win = 0.5 + math.sin(2 * math.pi / 6) / 8.0
        assert float(row["p_win"]) == pytest.approx(p_win)
        assert abs(float(row["p_win_estimate"]) - p_win) < 0.05
        assert float(row["p_win_std_err"]) > 0.0


class TestDickeCommand:
    def test_n_three_matches_born_rule(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["dicke", "--n", "3", "--out", str(out)]) == 0
        rows = read_csv(out / "dicke.csv")
        assert len(rows) == 21
        finals = [r for r in rows if r["observable"].count("Z") == 0]
        for row in rows:
            if float(row["expected"]) == pytest.approx(2.0 / 3.0):
                assert float(row["born_value"]) == pytest.approx(2.0 / 3.0)
        text = capsys.readouterr().out
        assert "+0.666667" in text
        docs = json.loads((out / "dicke_specs.json").read_text())
        assert len(docs) == 3
        assert_manifest_complete(out)

    def test_n_four_shows_construction_gap(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["dicke", "--n", "4", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "advertises +0.750000" in text
        assert "(Born value +0.000000)" in text


class TestTomoCommand:
    def test_single_angle_run(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "tomo",
                "--states",
                "pi/4",
                "--bootstrap",
                "5",
                "--config",
                fast_cfg,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest = assert_manifest_complete(out)
        slug = "00_theta_0_785398"
        for name in (f"rho_{slug}.csv", f"rho_{slug}.json", "fidelities.csv"):
            assert name in manifest["output_files"]
        rows = read_csv(out / "fidelities.csv")
        assert [r["label"] for r in rows] == ["01", "00(theta=0.785398)", "10"]
        for row in rows:
            assert float(row["fidelity"]) > 0.99

    @pytest.mark.parametrize("bootstrap", ["0", "5"])
    def test_dump_agrees_with_itself(self, bootstrap, tmp_path, fast_cfg, capsys):
        out = tmp_path / "o"
        args = ["tomo", "--states", "pi/6,pi/4", "--bootstrap", bootstrap]
        assert main(args + ["--config", fast_cfg, "--out", str(out)]) == 0
        rows = {row["label"]: row for row in read_csv(out / "fidelities.csv")}
        docs = sorted(out.glob("rho_*.json"))
        assert len(docs) == len(rows) == 4
        for path in docs:
            doc = json.loads(path.read_text())
            re, im = np.zeros((4, 4)), np.zeros((4, 4))
            for cell in read_csv(path.with_suffix(".csv")):
                block = re if cell["block"] == "re" else im
                block[int(cell["row"])] = [float(cell[f"c{j}"]) for j in range(4)]
            np.testing.assert_array_equal(re, doc["re"])
            np.testing.assert_array_equal(im, doc["im"])
            row = rows[doc["label"]]
            assert float(row["fidelity"]) == doc["fidelity"]
            assert float(row["clip_magnitude"]) == doc["clip_magnitude"]
            if bootstrap == "0":
                assert row["fidelity_std_err"] == "" and doc["fidelity_std_err"] is None
            else:
                assert float(row["fidelity_std_err"]) == doc["fidelity_std_err"]

    @pytest.mark.parametrize(
        "command, bootstrap, used", [("tomo", "0", None), ("tomo", "7", 7), ("report", "5", 5)]
    )
    def test_manifest_counts_bootstrap_replicates(
        self, command, bootstrap, used, tmp_path, fast_cfg, capsys
    ):
        out = tmp_path / "o"
        args = [command, "--bootstrap", bootstrap, "--config", fast_cfg, "--out", str(out)]
        assert main(args) == 0
        counts = manifest_of(out)["counters"]["tomography_bootstrap"]
        assert sorted(counts) == sorted(label for label, _psi in report_states())
        for count in counts.values():
            assert count == {"requested": int(bootstrap), "used": used}


class TestVisibilityCommand:
    def test_exact_scan_reports_config_visibility(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["visibility", "--visibility", "0.9", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "visibility.json").read_text())
        assert doc["visibility"] == pytest.approx(0.9, abs=1e-10)
        assert doc["exceeds_classical_bound"] is True
        assert doc["num_points"] == 25
        assert "exceeds" in capsys.readouterr().out
        assert_manifest_complete(out)

    def test_low_visibility_stays_within_bound(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["visibility", "--visibility", "0.6", "--out", str(out)]) == 0
        assert "is within" in capsys.readouterr().out


class TestReportCommand:
    def test_full_report_layout(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "o"
        code = main(
            ["report", "--config", fast_cfg, "--bootstrap", "5", "--out", str(out)]
        )
        assert code == 0
        manifest = assert_manifest_complete(out)
        files = manifest["output_files"]
        expected = {
            "manifest.json",
            "paradox_x.csv",
            "paradox_y.csv",
            "paradox_simulated.csv",
            "verdicts.json",
            "paradox_curve.csv",
            "game_x.csv",
            "game_z.csv",
            "game_curve.csv",
            "dicke.csv",
            "visibility_arm0.csv",
            "visibility_arm3pi4.csv",
            "visibility.json",
            "tomo/fidelities.csv",
        }
        assert expected <= set(files)
        assert sum(name.startswith("tomo/rho_") for name in files) == 12
        verdicts = json.loads((out / "verdicts.json").read_text())
        assert set(verdicts["exact"]) == {"X", "Y"}
        sim = verdicts["simulated"]["axis=X theta=pi/4"]
        assert not sim["lhv_feasible"]
        assert sim["p_value"] < 1e-6
        assert manifest["wall_clock_seconds"] > 0.0

    def test_count_draws_use_distinct_stream_keys(self, tmp_path, monkeypatch, capsys):
        """Every count the report draws shares one seed, so its blocks stay
        independent only if no two draws share a seeded generator state.
        The states are compared, not the key tuples, because distinct keys
        can seed the same state (``test_zero_padded_keys_share_a_state``)."""
        seed_sequence = np.random.SeedSequence
        states = []

        def recording(entropy, **kwargs):
            seq = seed_sequence(entropy, **kwargs)
            states.append((tuple(seq.pool), seq.spawn_key))
            return seq

        monkeypatch.setattr(np.random, "SeedSequence", recording)
        assert main(["report", "--seed", "0", "--out", str(tmp_path / "o")]) == 0
        assert states
        assert len(set(states)) == len(states)

    def test_zero_padded_keys_share_a_state(self):
        # SeedSequence pads entropy shorter than its 4-word pool with zeros.
        short, padded = np.random.SeedSequence((0, 5, 101)), np.random.SeedSequence((0, 5, 101, 0))
        np.testing.assert_array_equal(short.pool, padded.pool)

    def test_reproducible_across_interpreters(self, tmp_path):
        """Two fresh interpreters with different string hashing write the
        same data files and the same file list."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cohsim.__file__)))
        manifests = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            args = ["-m", "cohsim.cli", "report", "--seed", "0", "--out", str(tmp_path / hash_seed)]
            proc = subprocess.run(
                [sys.executable] + args, env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            manifests.append(manifest_of(tmp_path / hash_seed))
        files = manifests[0]["output_files"]
        assert files == manifests[1]["output_files"]
        data = [name for name in files if name != "manifest.json"]
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "1", tmp_path / "2", data, shallow=False
        )
        assert (sorted(match), mismatch, errors) == (sorted(data), [], [])


class TestWriteRowsCsv:
    def test_numpy_scalars_write_like_python_scalars(self, tmp_path):
        plain = [{"label": "a", "value": 0.5, "small": 1e-300, "count": 3, "flag": True}]
        numpy_row = [
            {
                "label": "a",
                "value": np.float64(0.5),
                "small": np.float64(1e-300),
                "count": np.int64(3),
                "flag": np.bool_(True),
            }
        ]
        write_rows_csv(tmp_path / "plain.csv", plain)
        write_rows_csv(tmp_path / "numpy.csv", numpy_row)
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert read_csv(tmp_path / "numpy.csv")[0]["value"] == "0.5"

    def test_header_is_first_row_key_order(self, tmp_path):
        rows = [{"b": 1, "a": None}, {"a": 0.25, "b": 2}]
        write_rows_csv(tmp_path / "rows.csv", rows)
        assert (tmp_path / "rows.csv").read_bytes() == b"b,a\r\n1,\r\n2,0.25\r\n"
