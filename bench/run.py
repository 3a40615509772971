"""cohsim benchmark: one run of one workload.

    python3 bench/run.py --workload multisource --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports cohsim from ``src/`` there.
With ``--trace 0`` it measures the end-to-end metrics, with ``--trace 1``
the per-layer ones. It prints a readable summary and, as its last line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (see README.md for why each exists):

* ``multisource`` runs in process, in ``WORKERS`` fresh worker processes
  (``worker.py``) one after another, one unit at a time;
* ``cli_cold`` runs the CLI script of ``common.py``, one fresh
  interpreter per command, one command at a time;
* ``theta_sweep`` and ``tomo_bootstrap`` run in process like
  ``multisource``. They are not in ``BENCHMARK.json``: runs long enough
  to make them steady do not fit its time budget beside the other two.

Nothing here imports numpy: this process only starts and times children.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import common

WORKLOADS = ("multisource", "cli_cold")  # the workloads BENCHMARK.json lists
EXTRA_WORKLOADS = ("theta_sweep", "tomo_bootstrap")  # runnable by name, not listed
# Fresh worker processes per in-process run, one after another, each set
# up and then timed for an equal share of the run's rounds. setup_s is the
# median of their set-ups, which are so spread over the run instead of
# bunched at its start, where one slow moment of the shared host moved them all.
WORKERS = 5
IMPORT_PROBES = 3  # fresh interpreters per cli.* import metric; the median is reported
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# unit_ms_p50 is printed but is no BENCHMARK.json metric: the median
# multisource unit is a small one (n = 7), mostly Python, which host
# phases lasting whole runs slowed by a third while wall_s moved a tenth.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "cli.interpreter_s",
    "cli.import_s",
    "cli.import_scipy_optimize_s",
    "cli.work_s",
    "cli.files_written",
    "cli.bytes_written",
    "cli.write_s",
    "cli.self_s",
    "reports.self_s",
    "measurement.expectation.calls",
    "measurement.expectation.self_s",
    "measurement.expectation.max_qubits",
    "measurement.setting_distribution.calls",
    "measurement.setting_distribution.self_s",
    "measurement.self_s",
    "states.werner_mix.calls",
    "states.werner_mix.self_s",
    "states.fidelity.calls",
    "states.fidelity.self_s",
    "states.density_checks",
    "states.density_checks_s",
    "states.self_s",
    "experiment.simulate_counts.calls",
    "experiment.simulate_counts.self_s",
    "experiment.correlator_from_counts.calls",
    "experiment.correlator_from_counts.self_s",
    "experiment.p_value.self_s",
    "experiment.visibility_scan.calls",
    "experiment.visibility_scan.self_s",
    "experiment.poisson_cells",
    "experiment.self_s",
    "paradox.lhv_mixture_test.calls",
    "paradox.lhv_mixture_test.self_s",
    "paradox.ghz_stabilizer_check.calls",
    "paradox.ghz_stabilizer_check.self_s",
    "paradox.lp_solves",
    "paradox.lp_s",
    "paradox.self_s",
    "game.quantum_strategy.calls",
    "game.quantum_strategy.self_s",
    "game.winning_probability.calls",
    "game.winning_probability.self_s",
    "game.self_s",
    "tomography.simulate_tomography_counts.calls",
    "tomography.simulate_tomography_counts.self_s",
    "tomography.reconstruct.calls",
    "tomography.reconstruct.self_s",
    "tomography.bootstrap_replicates",
    "tomography.replicate_us",
    "tomography.self_s",
    "trace.overhead_frac",
    "trace.untraced_s",
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("max_qubits"):
        return "qubits"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


class BenchError(Exception):
    """A run that cannot produce a result."""


class Run:
    """Paths, environment and deadline of one benchmark run."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.bench = Path(__file__).resolve().parent
        self.root = self.bench.parent
        if not (self.root / "src" / "cohsim" / "__init__.py").is_file():
            raise BenchError(f"no cohsim package under {self.root / 'src'}")
        self.out = self.root / ".bench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.spans = self.root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        self.env = dict(os.environ)
        self.env.pop("COHSIM_CONFIG", None)
        paths = [str(self.root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        # One BLAS thread. OpenBLAS defaults to one per vCPU, but on the
        # 2-vCPU reference machine the second thread did not shorten
        # multisource (3.6 to 4.5 s of wall time either way) while it
        # doubled its CPU time, spinning on a core other tenants share.
        for var in BLAS_THREAD_VARS:
            self.env[var] = "1"
        self.deadline = common.monotonic() + DEADLINE_S

    def remaining(self) -> float:
        left = self.deadline - common.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S} s")
        return left

    def python(self, *args: str, **kwargs) -> subprocess.CompletedProcess:
        """Run one child interpreter to completion within the deadline."""
        return subprocess.run(
            [sys.executable, *args],
            env=self.env,
            cwd=self.root,
            timeout=self.remaining(),
            **kwargs,
        )

    def worker(self, trace: int, rounds: int) -> dict:
        a = self.args
        cmd = [
            str(self.bench / "worker.py"),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--rounds", str(rounds),
            "--trace", str(trace),
            "--root", str(self.root),
            "--out", str(self.out),
            "--spans", str(self.spans),
        ]
        cmd += ["--tiny"] * a.tiny
        proc = self.python(*cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            found = re.search(r"^model name\s*:\s*(.+)$", fh.read(), re.MULTILINE)
        model = found.group(1).strip() if found else model
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model}


# One scripted command in a fresh interpreter, as the ``cohsim`` console
# script runs it (``from cohsim.cli import main``), stamping the system-wide
# clock and its own CPU time before and after the import and ``main``.
# Usage: python -c CHILD <stamp file> <cli arguments>...
CHILD = """\
import sys, time
def stamp():
    return time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time()
marks = [stamp()]
from cohsim.cli import main
marks.append(stamp())
code = main(sys.argv[2:])
marks.append(stamp())
with open(sys.argv[1], "w") as fh:
    fh.write(repr(marks))
sys.exit(code)
"""


# Steps of ``command_steps`` that do the same work in every command.
CLI_SHARED_STEPS = (0, 1)


def command_steps(t0: float, t1: float, cpu: float, stamps: Path) -> list[tuple[float, float]]:
    """Wall and CPU seconds of a command's start, import, ``main`` and exit.

    ``t0`` and ``t1`` bracket the child on the parent's clock and ``cpu``
    is its total CPU time; the child's stamps split them. A child that
    left no stamps is one step.
    """
    try:
        (w0, c0), (w1, c1), (w2, c2) = ast.literal_eval(stamps.read_text())
    except (OSError, ValueError, SyntaxError):
        return [(t1 - t0, cpu)]
    return [(w0 - t0, c0), (w1 - w0, c1 - c0), (w2 - w1, c2 - c1), (t1 - w2, cpu - c2)]


def children_usage() -> tuple[float, float]:
    """CPU seconds and peak RSS (MB) of all waited-for children so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def in_process(run: Run) -> tuple[dict, common.Ledger, dict]:
    """``WORKERS`` fresh workers, one after another; their rounds are pooled.

    Every worker runs the reproducibility probe, and the merged ledger
    also compares each unit's outputs across the workers.
    """
    total = common.rounds_for(run.args.workload, run.args.seconds)
    workers = min(WORKERS, total)
    setups, rounds, peaks = [], [], []
    ledger = common.Ledger()
    for i in range(workers):
        t0 = common.monotonic()
        result = run.worker(trace=0, rounds=total // workers + (i < total % workers))
        setups.append(result["ready_at"] - t0)
        rounds += result["rounds"]
        peaks.append(result["peak_rss_mb"])
        ledger.merge(result["ledger"])
    return (
        {"setup_s": common.median(setups), "rounds": rounds, "peak_rss_mb": max(peaks)},
        ledger,
        result["env"],
    )


def cli_cold(run: Run) -> tuple[dict, common.Ledger, dict]:
    """The script, round after round, one fresh interpreter per command.

    ``setup_s`` is the median over every command of its interpreter
    start and ``import cohsim.cli``: the set-up each command pays.
    """
    a = run.args
    script = common.TINY_SCRIPT if a.tiny else common.SCRIPT
    ledger = common.Ledger()

    def command(uid: int, name: str, args: list[str], tag: str) -> list[tuple[float, float]]:
        out = run.out / f"{tag}-{uid}-{name}"
        stamps = run.out / f"{tag}-{uid}-{name}.stamps"
        cpu0, _ = children_usage()
        t0 = common.monotonic()
        proc = run.python(
            "-c", CHILD, str(stamps), *common.argv(args, a.seed, out),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        t1 = common.monotonic()
        cpu1, _ = children_usage()
        problems = common.check_outputs(out, proc.returncode)
        if proc.returncode != 0:
            problems.append(proc.stderr.strip()[-500:])
        digest = None if problems else common.sha256(json.dumps(common.data_digests(out)).encode())
        ledger.record(uid, problems, digest)
        return command_steps(t0, t1, cpu1 - cpu0, stamps)

    rounds = []
    for _ in range(common.rounds_for(a.workload, a.seconds)):
        tag = f"r{len(rounds) + 1}"
        rounds.append([command(uid, name, args, tag) for uid, (name, args) in enumerate(script)])
    # Reproducibility probe: the command the seed picks, once more, same seed.
    uid = a.seed % len(script)
    command(uid, script[uid][0], script[uid][1], "probe")
    env = run.python(
        "-c", f"import json, sys; sys.path.insert(0, {str(run.bench)!r}); import worker;"
        " print(json.dumps(worker.environment()))",
        stdout=subprocess.PIPE, text=True, check=True,
    )
    setups = [
        math.fsum(steps[j][0] for j in CLI_SHARED_STEPS)
        for r in rounds for steps in r if len(steps) > max(CLI_SHARED_STEPS)
    ]
    if not setups:
        raise BenchError("no command got as far as importing cohsim.cli")
    return (
        {"setup_s": common.median(setups), "rounds": rounds, "peak_rss_mb": children_usage()[1]},
        ledger,
        json.loads(env.stdout),
    )


def import_metrics(run: Run) -> dict:
    """``cli.interpreter_s`` and the ``-X importtime`` figures, from fresh interpreters."""
    interpreter, cli, optimize = [], [], []
    for _ in range(IMPORT_PROBES):
        t0 = common.monotonic()
        run.python("-c", "pass", check=True)
        interpreter.append(common.monotonic() - t0)
        proc = run.python(
            "-X", "importtime", "-c", "import cohsim.cli",
            stderr=subprocess.PIPE, text=True, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        cli.append(cumulative.get("cohsim.cli", 0.0))
        optimize.append(cumulative.get("scipy.optimize", 0.0))
    return {
        "cli.interpreter_s": common.median(interpreter),
        "cli.import_s": common.median(cli),
        "cli.import_scipy_optimize_s": common.median(optimize),
    }


def traced(run: Run) -> tuple[dict, common.Ledger, dict, dict]:
    """Per-layer metrics: import probes, then a worker's untraced and traced passes."""
    metrics = import_metrics(run)
    result = run.worker(trace=1, rounds=common.rounds_for(run.args.workload, run.args.seconds / 2))
    ledger = common.Ledger()
    ledger.merge(result["ledger"])
    untraced = common.round_metrics(result["rounds"])["wall_s"]
    traced_wall = common.round_metrics(result["traced_rounds"])["wall_s"]
    metrics.update(result["per_layer"])
    metrics["trace.overhead_frac"] = traced_wall / untraced - 1.0
    metrics = {name: metrics[name] for name in PER_LAYER}
    info = {"rounds": len(result["rounds"]), "traced_rounds": len(result["traced_rounds"])}
    return metrics, ledger, result["env"], info


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="length of the timed phase on the reference machine; sets its number of rounds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs (self-tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def summary(args: argparse.Namespace, found: dict) -> dict[str, float]:
    """End-to-end metrics of an untraced run; prints the unit count, median and tail."""
    rounds = found["rounds"]
    timings = common.round_metrics(rounds, CLI_SHARED_STEPS if args.workload == "cli_cold" else ())
    unit_ms = [1e3 * wall for wall in common.unit_walls(rounds)]
    tail = common.tail_percentile(unit_ms)
    tail_text = f"unit_ms_p{tail[0]:g} {tail[1]:.4f} ms" if tail else "no tail percentile (< 100 units)"
    print(f"{len(rounds)} rounds, {len(unit_ms)} timed units; unit_ms_p50"
          f" {timings.pop('unit_ms_p50'):.4f} ms (each unit at its fastest); {tail_text}")
    if args.workload == "cli_cold":
        script = common.TINY_SCRIPT if args.tiny else common.SCRIPT
        print("fastest run of each command: " + ", ".join(
            f"{name} {min(sum(s[0] for s in r[i]) for r in rounds):.3f} s"
            for i, (name, _) in enumerate(script)
        ))
    return {
        "setup_s": found["setup_s"],
        **timings,
        "peak_rss_mb": found["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        run = Run(args)
        try:
            if args.trace:
                metrics, ledger, env, info = traced(run)
            elif args.workload == "cli_cold":
                found, ledger, env = cli_cold(run)
            else:
                found, ledger, env = in_process(run)
        finally:
            shutil.rmtree(run.out, ignore_errors=True)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in {**host(), **env}.items()))
    if args.trace:
        units = {name: per_layer_unit(name) for name in PER_LAYER}
        print(f"{info['rounds']} untraced and {info['traced_rounds']} traced rounds;"
              f" per-layer figures are per round; spans in {run.spans.relative_to(run.root)}")
    else:
        units = END_TO_END
        metrics = summary(args, found)
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'fail_frac':<44} {ledger.failed / max(ledger.attempted, 1):>14.6g}"
          f" ({ledger.failed} of {ledger.attempted})")
    for note in ledger.notes:
        print(f"check failed: {note}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
