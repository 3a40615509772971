"""In-process workloads: inputs made from the seed, units, and output checks.

Each workload lists its units for one round. ``run(unit, lap)`` calls
cohsim's public functions and returns their outputs, calling ``lap()``
between the steps it wants timed apart; ``check(unit, output)``
compares them with closed forms computed here and returns a list of
problems (empty when the unit is correct); ``serialize(output)`` gives
the bytes whose sha256 the reproducibility probe compares.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import random
from pathlib import Path

import numpy as np

# Units call cohsim functions through their modules, never through names
# bound here, so that the traced run's rebinding reaches every call.
import cohsim
from cohsim import MAX_QUBITS, ExperimentConfig, StateVector, reports
from cohsim.states import EQ_ATOL

import common

SIGMAS = 6.0  # a simulated estimate must lie within this many standard errors of theory
EXACT_TOL = 1e-9  # closed-form values
VISIBILITY_TOL = 1e-3  # fitted fringe visibility; counts per grid point are ~5e7
FIDELITY_SLACK = 0.01  # reconstructed fidelity may fall this far below the Werner-state value


def _plain(obj):
    """JSON-ready copy of cohsim outputs (dataclasses, arrays, tuple keys)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.generic):
        return _plain(obj.item())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def serialize(output) -> bytes:
    return json.dumps(_plain(output), sort_keys=True).encode()


def _off(value: float, expected: float, allowed: float) -> bool:
    return not abs(value - expected) <= allowed


class Workload:
    """Units of one round; subclasses add ``run`` and ``check``."""

    units: list

    def start_pass(self) -> None:
        """Called before each pass over the units."""

    def digest(self, output) -> bytes:
        return serialize(output)


class ThetaSweep(Workload):
    """Exact and simulated paradox tables, the game and a fringe scan per (theta, axis)."""

    name = "theta_sweep"

    def __init__(self, seed: int, tiny: bool, out_dir: Path) -> None:
        num_thetas = 4 if tiny else 40
        step = (math.pi / 2) / num_thetas
        rng = random.Random(seed)
        self.cfg = ExperimentConfig(seed=seed)
        self.units = []
        for i in range(num_thetas):
            # Jitter stays 0.1 step away from the cell edges, so theta never
            # approaches 0, pi/4 or pi/2 where a correlator is exactly +-1.
            theta = (i + 0.5 + rng.uniform(-0.4, 0.4)) * step
            for axis in ("X", "Y"):
                self.units.append((len(self.units), theta, axis))
        self.grid = [i * math.pi / 25 for i in range(25)]

    def run(self, unit, lap):
        uid, theta, axis = unit
        tag = 20 * uid  # disjoint stream tags per unit: paradox +0..4, game +10..12
        exact = reports.paradox_exact_block(theta, axis)
        lap()
        simulated = reports.paradox_simulated_block(theta, axis, self.cfg, tag_base=tag)
        lap()
        game = reports.game_simulated_rows([theta], "x", self.cfg, tag_base=tag + 10)
        lap()
        source = cohsim.epr_family(math.pi / 4, "00")
        scan = cohsim.visibility_scan(
            source, theta, self.grid, self.cfg, simulate=True, stream_tag=tag
        )
        return exact, simulated, game, scan

    def check(self, unit, output) -> list[str]:
        _uid, theta, axis = unit
        (_, _, verdict), (_, rows, sim_verdict, _), game, scan = output
        s2 = math.sin(2 * theta)
        where = f"theta={theta:.6f} axis={axis}"
        problems = []
        if verdict["lhv_feasible"] or _off(verdict["violation_gap"], s2, EXACT_TOL):
            problems.append(f"{where}: exact gap {verdict['violation_gap']} != sin 2theta {s2}")
        for row in rows:
            allowed = SIGMAS * math.hypot(row["std_err"], 1.0 / row["n_total"])
            if _off(row["estimate"], row["theoretical"], allowed):
                problems.append(f"{where}: {row['label']}:{row['observable']} estimate off theory")
        se = {row["label"]: row["std_err"] for row in rows if row["observable"] == axis + axis}
        allowed = SIGMAS * (se["00"] + max(se["01"], se["10"])) + EXACT_TOL
        if sim_verdict["lhv_feasible"] or _off(sim_verdict["violation_gap"], s2, allowed):
            problems.append(f"{where}: simulated gap {sim_verdict['violation_gap']} off {s2}")
        if not (sim_verdict["p_value"] <= 1e-10 and sim_verdict["log10_p_value"] <= -10.0):
            problems.append(f"{where}: p-value {sim_verdict['p_value']} not below 1e-10")
        p_win = 0.5 + s2 / 8.0
        for row in game:
            if _off(row["p_win"], p_win, EXACT_TOL):
                problems.append(f"{where}: game p_win {row['p_win']} != {p_win}")
            if _off(row["p_win_estimate"], p_win, SIGMAS * row["p_win_std_err"] + 1e-6):
                problems.append(f"{where}: game estimate {row['p_win_estimate']} off {p_win}")
        if _off(scan.visibility, self.cfg.visibility_v, VISIBILITY_TOL):
            problems.append(f"{where}: fitted visibility {scan.visibility}")
        return problems


class TomoBootstrap(Workload):
    """Nine-setting counts and bootstrap reconstruction of the six report states."""

    name = "tomo_bootstrap"

    def __init__(self, seed: int, tiny: bool, out_dir: Path) -> None:
        self.num_bootstrap = 10 if tiny else 200
        states = cohsim.report_states()[: 2 if tiny else None]
        self.cfgs = {v: ExperimentConfig(seed=seed, visibility_v=v) for v in (1.0, 0.9)}
        self.units = [
            (uid, v, label, psi)
            for uid, (v, (label, psi)) in enumerate((v, s) for v in self.cfgs for s in states)
        ]

    def run(self, unit, lap):
        uid, v, _label, psi = unit
        table = cohsim.simulate_tomography_counts(psi, self.cfgs[v], stream_tag=uid)
        lap()
        return cohsim.reconstruct(table, target=psi, num_bootstrap=self.num_bootstrap)

    def check(self, unit, output) -> list[str]:
        _uid, v, label, _psi = unit
        rho = output.rho_hat.matrix
        where = f"{label} at v={v}"
        problems = []
        if _off(float(np.trace(rho).real), 1.0, EXACT_TOL):
            problems.append(f"{where}: trace {np.trace(rho)}")
        if float(np.linalg.eigvalsh(rho).min()) < -1e-10:
            problems.append(f"{where}: rho_hat is not PSD")
        floor = math.sqrt(v + (1.0 - v) / 4.0) - FIDELITY_SLACK
        if not output.fidelity_to_target >= floor:
            problems.append(f"{where}: fidelity {output.fidelity_to_target} below {floor}")
        if not (output.fidelity_std_err is not None and math.isfinite(output.fidelity_std_err)):
            problems.append(f"{where}: fidelity std_err {output.fidelity_std_err}")
        return problems


def _basis_state(label: str) -> StateVector:
    amps = np.zeros(2 ** len(label), dtype=complex)
    amps[int(label, 2)] = 1.0
    return StateVector(amps)


class MultiSource(Workload):
    """The n-source family for every (n, z_position), plus the GHZ stabilizer LP."""

    name = "multisource"

    def __init__(self, seed: int, tiny: bool, out_dir: Path) -> None:
        top = 4 if tiny else MAX_QUBITS
        units = [("dicke", n, z) for n in range(2, top + 1) for z in range(n)]
        # One GHZ check per n. Besides weighting the 64-column LP, this puts
        # the median unit inside the n = 7 group instead of on the edge
        # between two groups, where it would jump from run to run.
        units += [("ghz", n, 0) for n in range(2, top + 1)]
        random.Random(seed).shuffle(units)
        self.units = [(uid,) + u for uid, u in enumerate(units)]

    def run(self, unit, lap):
        _uid, kind, n, z = unit
        if kind == "ghz":
            return cohsim.ghz_stabilizer_check(cohsim.ghz_state(3))
        spec = cohsim.dicke_paradox(n, z)
        superposition = cohsim.dicke_one_excitation(n)
        lap()
        born = []
        for c in spec.constraints:
            state = superposition if c.source_label == "0" * n else _basis_state(c.source_label)
            born.append(cohsim.expectation(state, c.observable))
            lap()  # an n = 10 unit is ~0.3 s; its ~25 ms steps each find a quiet moment
        verdict = cohsim.lhv_mixture_test(spec, cohsim.theoretical_values(spec), tol=EQ_ATOL)
        return spec, born, verdict

    def check(self, unit, output) -> list[str]:
        _uid, kind, n, z = unit
        if kind == "ghz":
            if output.satisfying_assignments != 0 or _off(output.violation_gap, 0.5, EXACT_TOL):
                return [f"ghz: {output.satisfying_assignments} assignments, gap {output.violation_gap}"]
            return []
        spec, born, verdict = output
        where = f"n={n} z={z}"
        problems = []
        for con, value in zip(spec.constraints, born):
            if con.source_label == "0" * n:
                expected = 2.0 / 3.0 if n == 3 else 0.0
            else:
                expected = -1.0 if set(con.observable.axes) == {"Z"} else 0.0
            if _off(value, expected, EXACT_TOL):
                problems.append(f"{where}: Born {con.source_label}:{con.observable.label} = {value}")
        if verdict.lhv_feasible or _off(verdict.violation_gap, (n - 1) / n, EXACT_TOL):
            problems.append(f"{where}: mixture gap {verdict.violation_gap} != (n-1)/n")
        return problems


class CliScript(Workload):
    """The cli_cold script run in process through ``cohsim.cli.main`` (traced runs only)."""

    name = "cli_cold"

    def __init__(self, seed: int, tiny: bool, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.passes = 0
        script = common.TINY_SCRIPT if tiny else common.SCRIPT
        self.units = [(uid, name, args) for uid, (name, args) in enumerate(script)]
        import cohsim.cli  # only this workload needs the CLI in process

    def start_pass(self) -> None:
        self.passes += 1

    def unit_dir(self, unit) -> Path:
        uid, name, _ = unit
        return self.out_dir / f"inproc{self.passes}-{uid}-{name}"

    def run(self, unit, lap):
        out = self.unit_dir(unit)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cohsim.cli.main(common.argv(unit[2], self.seed, out))
        return code, out

    def check(self, unit, output) -> list[str]:
        code, out = output
        return common.check_outputs(out, code)

    def digest(self, output) -> bytes:
        return serialize(common.data_digests(output[1]))


WORKLOADS = {w.name: w for w in (ThetaSweep, TomoBootstrap, MultiSource, CliScript)}


def located_in(root: Path) -> bool:
    """True when the imported cohsim is the one under ``root/src``."""
    return Path(cohsim.__file__).resolve().is_relative_to((root / "src").resolve())
