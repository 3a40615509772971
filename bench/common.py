"""Helpers shared by the orchestrator and the worker.

The ``cli_cold`` command script and its output checks, the ledger of
attempted and failed units, and percentile selection. Standard library
only: the orchestrating process uses it without importing numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from pathlib import Path

# Each unit is timed at least this often per run: a minimum over two
# samples still moved by 20 % between runs of cli_cold.
MIN_ROUNDS = 3
# Seconds one round of each workload takes on the reference machine (2
# vCPUs of an Intel Xeon) while its host is quiet. A run does a fixed
# number of rounds, ``--seconds`` over this, so two commits compared get
# as many samples of each unit. Were rounds counted against the clock, a
# slow host would also cut the samples, and a minimum over fewer samples
# reads higher: cli_cold runs of four rounds read 10 % above runs of five.
ROUND_S = {"theta_sweep": 1.1, "tomo_bootstrap": 2.6, "multisource": 4.0, "cli_cold": 9.0}
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MAX_NOTES = 20


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest percentile in ``TAIL_PERCENTILES`` with at least ten samples beyond it.

    Uses the nearest-rank definition and returns ``(percentile, value)``,
    or None when even the 90th has fewer than ten samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def monotonic() -> float:
    """System-wide clock: the orchestrator and its workers can compare readings."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values) -> float:
    return float(statistics.median(values))


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds that fill ``seconds`` on the reference machine, at least ``MIN_ROUNDS``."""
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def round_metrics(rounds, shared: tuple[int, ...] = ()) -> dict[str, float]:
    """Timings of one round at the workload's fixed size.

    ``rounds`` holds, per round, one list per unit of ``(wall_s, cpu_s)``
    pairs, one pair per step of the unit, in the same order every round.
    Each step is taken at its fastest over the rounds: on a shared
    machine other tenants only ever add time, in bursts lasting seconds,
    so a step's minimum is the steadiest estimate of its own cost, and a
    short step finds a quiet moment more often than a long unit does.
    Steps whose index is in ``shared`` do the same work in every unit (the
    interpreter start and the import of a ``cli_cold`` command), so their
    minimum is taken over all units as well. A unit's time sums its
    steps' minima (a unit whose step count changed between rounds,
    because it raised, is taken whole); ``wall_s`` and ``cpu_s`` sum the
    units, and ``unit_ms_p50`` is their median.
    """
    units = []
    for i in range(len(rounds[0])):
        runs = [r[i] for r in rounds]
        if len({len(steps) for steps in runs}) != 1:
            runs = [[(math.fsum(s[0] for s in steps), math.fsum(s[1] for s in steps))] for steps in runs]
        units.append(runs)
    full = max(len(runs[0]) for runs in units)
    if shared and max(shared) >= full:
        shared = ()

    def fastest(field: int) -> list[float]:
        pooled = {
            j: min(steps[j][field] for runs in units if len(runs[0]) == full for steps in runs)
            for j in shared
        }
        return [
            math.fsum(
                pooled[j] if j in pooled and len(runs[0]) == full else min(s[j][field] for s in runs)
                for j in range(len(runs[0]))
            )
            for runs in units
        ]

    best_wall, best_cpu = fastest(0), fastest(1)
    return {
        "wall_s": math.fsum(best_wall),
        "unit_ms_p50": 1e3 * median(best_wall),
        "cpu_s": math.fsum(best_cpu),
    }


def unit_walls(rounds) -> list[float]:
    """Wall time of every timed unit, every round: the samples of the tail percentile."""
    return [math.fsum(step[0] for step in steps) for r in rounds for steps in r]


class Ledger:
    """Units attempted and failed. A unit fails on any problem its checks report.

    ``digest`` is the sha256 of a unit's serialized outputs; a unit whose
    digest differs from an earlier run of the same unit, in this process
    or in a ledger merged into this one, fails the reproducibility probe.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.digests: dict = {}

    def _differs(self, uid, digest: str) -> list[str]:
        if self.digests.setdefault(str(uid), digest) != digest:
            return [f"unit {uid}: outputs differ from an earlier run with the same seed"]
        return []

    def _note(self, problems: list[str]) -> None:
        self.notes.extend(problems[: max(0, MAX_NOTES - len(self.notes))])

    def record(self, uid, problems, digest: str | None = None) -> None:
        problems = list(problems)
        if digest is not None:
            problems += self._differs(uid, digest)
        self.attempted += 1
        if problems:
            self.failed += 1
            self._note(problems)

    def merge(self, doc: dict) -> None:
        """Add another process's ledger; a digest that differs from this one's fails a unit."""
        self.attempted += doc["attempted"]
        self.failed += doc["failed"]
        self._note(doc["notes"])
        for uid, digest in doc["digests"].items():
            problems = self._differs(uid, digest)
            if problems:
                self.failed += 1
                self._note(problems)

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "notes": self.notes,
            "digests": self.digests,
        }

# (unit name, arguments). ``--seed`` is added to every command that takes one.
SCRIPT = (
    ("paradox_exact", ["paradox"]),
    ("paradox_simulated", ["paradox", "--mode", "simulated"]),
    ("game_exact", ["game"]),
    ("game_simulated", ["game", "--mode", "simulated"]),
    ("dicke_3", ["dicke", "--n", "3"]),
    ("tomo", ["tomo", "--bootstrap", "100"]),
    ("visibility_exact", ["visibility"]),
    ("visibility_simulated", ["visibility", "--mode", "simulated"]),
    ("report", ["report"]),
)
TINY_SCRIPT = (SCRIPT[0], SCRIPT[4])

_NO_SEED = {"dicke"}


def argv(args: list[str], seed: int, out_dir: Path) -> list[str]:
    """Full argument list of one scripted command."""
    full = list(args) + ["--out", str(out_dir)]
    if args[0] not in _NO_SEED:
        full += ["--seed", str(seed)]
    return full


def check_outputs(out_dir: Path, returncode: int) -> list[str]:
    """Exit code 0 and every file listed in ``manifest.json`` exists."""
    if returncode != 0:
        return [f"{out_dir.name}: exit code {returncode}"]
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"{out_dir.name}: unreadable manifest ({exc})"]
    missing = [name for name in manifest["output_files"] if not (out_dir / name).is_file()]
    return [f"{out_dir.name}: manifest lists missing files {missing}"] if missing else []


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def data_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under ``out_dir`` except ``manifest.json``."""
    return {
        str(path.relative_to(out_dir)): sha256(path.read_bytes())
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def written(out_dir: Path) -> tuple[int, int]:
    """Number of files and bytes under ``out_dir``."""
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)
