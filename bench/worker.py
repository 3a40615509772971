"""Worker process of one in-process benchmark run.

Started by ``run.py``, never by hand. It imports cohsim, makes the
workload's inputs from the seed, stamps the moment it is ready, and then
runs the timed phase: ``--rounds`` whole rounds over the workload's
units, one unit at a time. With ``--trace 1`` as many rounds with every
layer wrapped in spans follow. Its last line of output is one JSON
object for ``run.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import platform
import re
import resource
import sys
import time
import traceback
from pathlib import Path

import common
import spans
import workloads


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it can be asked."""
    with open("/proc/self/maps") as fh:
        paths = sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", fh.read())))
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
    }


class Laps:
    """Wall and CPU seconds of the steps of one unit.

    Each call closes the step that began at the previous call (or at
    construction) and starts the next one.
    """

    def __init__(self) -> None:
        self.steps: list[tuple[float, float]] = []
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def __call__(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.steps.append((wall - self._wall, cpu - self._cpu))
        self._wall, self._cpu = wall, cpu


def run_unit(workload, unit, ledger: common.Ledger) -> list[tuple[float, float]]:
    """Run, check and digest one unit; return the wall and CPU seconds of its steps."""
    lap = Laps()
    try:
        output = workload.run(unit, lap)
    except Exception:
        lap()
        ledger.record(unit[0], [f"unit {unit[0]} raised:\n{traceback.format_exc()}"])
        return lap.steps
    lap()
    ledger.record(
        unit[0], workload.check(unit, output), common.sha256(workload.digest(output))
    )
    return lap.steps


def timed_phase(workload, num_rounds: int, seed: int, ledger: common.Ledger) -> dict:
    """Warm-up unit, ``num_rounds`` rounds, then the probe unit.

    ``rounds`` holds, per round, the ``[wall_s, cpu_s]`` steps of each unit.
    """
    workload.start_pass()
    run_unit(workload, workload.units[0], ledger)
    rounds = []
    for _ in range(num_rounds):
        workload.start_pass()
        rounds.append([run_unit(workload, unit, ledger) for unit in workload.units])
    # Reproducibility probe: one more run of a unit the seed picks.
    workload.start_pass()
    run_unit(workload, workload.units[seed % len(workload.units)], ledger)
    return {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_phase(workload, num_rounds: int, ledger: common.Ledger, spans_path: Path) -> dict:
    """``num_rounds`` rounds with every layer wrapped.

    Per-layer metrics are averages per round. The spans of the first
    traced round are written to ``spans_path``.
    """
    tracer = spans.Tracer()
    rounds = []
    with tracer.installed():
        for _ in range(num_rounds):
            workload.start_pass()
            timings = []
            for unit in workload.units:
                tracer.unit = unit[0]
                timings.append(run_unit(workload, unit, ledger))
            rounds.append(timings)
            if len(rounds) == 1:
                first_round = len(tracer.spans)
    wall = math.fsum(common.unit_walls(rounds))
    metrics = spans.layer_metrics(tracer.spans, tracer.counters, wall, rounds=len(rounds))
    files = written = 0
    if isinstance(workload, workloads.CliScript):
        for unit in workload.units:
            n_files, n_bytes = common.written(workload.unit_dir(unit))
            files += n_files
            written += n_bytes
    metrics["cli.files_written"] = files
    metrics["cli.bytes_written"] = written
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        fields = ["name", "start", "end", "parent", "unit"]
        json.dump({"fields": fields, "spans": tracer.spans[:first_round]}, fh)
    return {"traced_rounds": rounds, "per_layer": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not workloads.located_in(args.root):
        print(f"worker: cohsim was not imported from {args.root / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.out)
    result: dict = {"ready_at": common.monotonic()}
    ledger = common.Ledger()
    result["env"] = environment()
    result.update(timed_phase(workload, args.rounds, args.seed, ledger))
    if args.trace:
        result.update(traced_phase(workload, args.rounds, ledger, args.spans))
    result["ledger"] = ledger.to_dict()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
