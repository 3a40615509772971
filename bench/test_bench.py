"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class TestTailPercentile:
    def test_needs_ten_samples_beyond(self):
        assert common.tail_percentile(range(1, 100)) is None
        assert common.tail_percentile(range(1, 101)) == (90.0, 90)

    def test_picks_highest_qualifying(self):
        assert common.tail_percentile(range(1, 1001)) == (99.0, 990)
        assert common.tail_percentile(range(1, 10011)) == (99.9, 10000)

    def test_order_of_samples_is_irrelevant(self):
        assert common.tail_percentile(list(range(200, 0, -1))) == (90.0, 180)


class TestRoundMetrics:
    def test_each_unit_at_its_fastest(self):
        rounds = [
            [[(1.0, 0.5)], [(4.0, 4.0)], [(2.0, 1.0)]],
            [[(3.0, 0.4)], [(2.0, 3.0)], [(2.5, 2.0)]],
        ]
        got = common.round_metrics(rounds)
        assert got["wall_s"] == pytest.approx(1.0 + 2.0 + 2.0)
        assert got["cpu_s"] == pytest.approx(0.4 + 3.0 + 1.0)
        assert got["unit_ms_p50"] == pytest.approx(2000.0)

    def test_each_step_at_its_fastest(self):
        rounds = [[[(1.0, 1.0), (5.0, 5.0)]], [[(3.0, 3.0), (2.0, 2.0)]]]
        got = common.round_metrics(rounds)
        assert got["wall_s"] == pytest.approx(1.0 + 2.0)
        assert got["cpu_s"] == pytest.approx(1.0 + 2.0)

    def test_shared_steps_at_their_fastest_over_all_units(self):
        rounds = [
            [[(1.0, 1.0), (5.0, 5.0)], [(3.0, 3.0), (2.0, 2.0)], [(9.0, 9.0)]],
            [[(2.0, 2.0), (4.0, 4.0)], [(0.5, 0.5), (3.0, 3.0)], [(8.0, 8.0)]],
        ]
        got = common.round_metrics(rounds, shared=(0,))
        assert got["wall_s"] == pytest.approx((0.5 + 4.0) + (0.5 + 2.0) + 8.0)
        assert common.round_metrics(rounds)["wall_s"] == pytest.approx(5.0 + 2.5 + 8.0)

    def test_a_unit_whose_steps_changed_is_taken_whole(self):
        rounds = [[[(1.0, 1.0), (5.0, 5.0)]], [[(4.0, 4.0)]]]
        assert common.round_metrics(rounds)["wall_s"] == pytest.approx(4.0)
        assert common.unit_walls(rounds) == pytest.approx([6.0, 4.0])


class TestLedger:
    def test_merge_compares_digests_across_processes(self):
        first, second = common.Ledger(), common.Ledger()
        first.record(1, [], "aa")
        second.record(1, [], "aa")
        second.record(2, ["unit 2: wrong"], "bb")
        merged = common.Ledger()
        merged.merge(first.to_dict())
        merged.merge(json.loads(json.dumps(second.to_dict())))
        assert (merged.attempted, merged.failed) == (3, 1)
        third = common.Ledger()
        third.record(1, [], "cc")
        merged.merge(third.to_dict())
        assert (merged.attempted, merged.failed) == (4, 2)
        assert any("differ" in note for note in merged.notes)


def span(name, start, end, parent, unit=0):
    return [name, start, end, parent, unit]


class TestSelfTime:
    def test_nested_spans(self):
        spans_ = [
            span("a.outer", 0.0, 10.0, -1),
            span("b.mid", 1.0, 4.0, 0),
            span("c.leaf", 2.0, 3.0, 1),
            span("b.mid", 5.0, 9.0, 0),
        ]
        assert spans.self_times(spans_) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self):
        spans_ = [span("a.x", 0.0, 10.0, -1), span("b.y", 1.0, 5.0, 0), span("b.y", 3.0, 7.0, 0)]
        assert spans.self_times(spans_)[0] == pytest.approx(4.0)

    def test_layer_totals_and_untraced_time(self):
        spans_ = [
            span("reports.paradox_exact_block", 0.0, 10.0, -1),
            span("paradox.lhv_mixture_test", 1.0, 4.0, 0),
            span("paradox.lp", 2.0, 3.0, 1),
            span("reports.write_rows_csv", 5.0, 6.0, 0),
            span("states.fidelity", 12.0, 13.0, -1, unit=1),
        ]
        got = spans.layer_metrics(spans_, {}, traced_wall_s=15.0)
        assert got["reports.self_s"] == pytest.approx(6.0)  # writers count in cli.write_s only
        assert got["cli.write_s"] == pytest.approx(1.0)
        assert got["paradox.self_s"] == pytest.approx(3.0)
        assert got["paradox.lhv_mixture_test.self_s"] == pytest.approx(2.0)
        assert got["paradox.lp_solves"] == 1
        assert got["paradox.lp_s"] == pytest.approx(1.0)
        assert got["states.fidelity.calls"] == 1
        assert got["trace.untraced_s"] == pytest.approx(15.0 - 10.0 - 1.0)


def bindings() -> dict:
    """Every attribute of every cohsim module and traced class, plus scipy's linprog."""
    import scipy.optimize

    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "cohsim" or name.startswith("cohsim."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
    for mod_name, cls_name, attr, _ in spans.METHODS:
        snap[(mod_name, cls_name, attr)] = getattr(sys.modules[mod_name], cls_name).__dict__[attr]
    snap["linprog"] = scipy.optimize.linprog
    return snap


class TestTracer:
    def test_records_calls_and_restores_every_binding(self):
        import cohsim
        import cohsim.cli  # noqa: F401  the CLI namespace is rebound too

        before = bindings()
        tracer = spans.Tracer()
        with tracer.installed():
            assert cohsim.expectation is not before[("cohsim", "expectation")]
            assert cohsim.paradox.expectation is cohsim.expectation
            tracer.unit = 7
            spec = cohsim.dicke_paradox(3, 0)
            cohsim.lhv_mixture_test(spec, cohsim.theoretical_values(spec), tol=1e-10)
            cohsim.DensityOperator([[1.0, 0.0], [0.0, 0.0]])
        after = bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)
        names = [s[spans.NAME] for s in tracer.spans]
        assert names.count(spans.LP_SPAN) == 1
        assert "states.density_check" in names
        assert {s[spans.UNIT] for s in tracer.spans} == {7}
        lp = names.index(spans.LP_SPAN)
        assert tracer.spans[tracer.spans[lp][spans.PARENT]][spans.NAME] == "paradox.lhv_mixture_test"

    def test_uninstalls_after_an_exception(self):
        import cohsim

        before = bindings()
        with pytest.raises(ValueError):
            with spans.Tracer().installed():
                cohsim.dicke_paradox(1, 0)
        assert all(bindings()[key] is before[key] for key in before)


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in doc["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS + run.EXTRA_WORKLOADS)
def test_tiny_run_is_correct(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = list(run.PER_LAYER) if trace else list(run.END_TO_END)
    assert list(result["metrics"]) == expected
    if trace:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        if workload == "theta_sweep":
            assert m["paradox.lp_solves"] == 0
        if workload in ("theta_sweep", "multisource"):
            assert m["tomography.bootstrap_replicates"] == 0
        if workload == "cli_cold":
            assert m["cli.files_written"] > 0 and m["cli.work_s"] > 0


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "multisource", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
