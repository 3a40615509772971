"""Command-line frontend.

Each subcommand writes one output directory holding ``manifest.json``
plus its data files (CSV/JSON). ``main`` opens a ``_Run``, the command
writes every data file through it and returns its summary lines, and
``main`` closes the run. ``_Run`` picks each path and records it in the
manifest; the library writers (``write_rows_csv``, ``write_density_csv``,
the ``to_csv`` methods) write only the paths it hands them. The
directory and its manifest appear with the first data file, so input
rejected before then leaves no directory. The manifest is finalized with
the exit code, the files on disk and the wall-clock time, so a run can be
audited and replayed: the same arguments reproduce every data file bit
for bit, as the config comes from ``--config`` alone. Its timing fields
are the only nondeterministic bytes.

Exit codes: 0 success, 2 bad arguments or values (an unusable ``--out``,
an unreadable ``--config``, an unwritable output file, a size, such as
``--bootstrap``, whose arrays numpy cannot allocate, a simulated run
with no counts to estimate from, or a fringe fit whose mean rate is not
positive, too), 3 numerical failure (such as a mixture program
unsolved within its pivot cap, or a matrix square root that fails its
residual check).

At exit the process freezes its heap (``gc.freeze``) instead of letting
the interpreter's finalizer garbage-collect the objects numpy and
cohsim made at import, which the OS reclaims anyway. Nothing is frozen
while the process lives, so a caller that runs ``main`` many times keeps
normal collection. The freeze is safe only while every output file is
written and closed before ``main`` returns: a file left for a finalizer
to close could lose the bytes it has not flushed.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import hashlib
import json
import math
import platform
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .experiment import (
    _MAX_DRAWS, CLASSICAL_VISIBILITY_BOUND, ExperimentConfig, _check_bootstrap_count,
    visibility_scan,
)
from .reports import (
    CURVE_THETAS,
    DEFAULT_THETAS,
    correlator_detail_rows,
    dicke_rows,
    game_curve_rows,
    game_exact_rows,
    game_simulated_rows,
    paradox_exact_block,
    paradox_simulated_block,
    write_rows_csv,
)
from .states import StateVector, epr_family
from .tomography import reconstruct, report_states, simulate_tomography_counts, write_density_csv

_ANGLE_RE = re.compile(r"^\s*([0-9]+)?\s*\*?\s*pi\s*(?:/\s*([0-9]+))?\s*$", re.IGNORECASE)

# Stream-tag bases keep the full report's count draws independent even
# though every block shares one seed.
_TAG_PARADOX_SIM = 0
_TAG_GAME_X = 100
_TAG_GAME_Z = 200
_TAG_TOMO = 300
_TAG_VIS = 400

# Freezing the heap at exit spares a command's interpreter the finalizer's full
# collections over the ~22,000 objects made at import. Safe because every
# data file is written and closed before ``main`` returns (``_write_csv``'s
# ``with``, ``Path.write_text``) and the interpreter flushes stdout and stderr
# whatever the collector does; atexit handlers run before those collections.
# Not at import or in ``main``: there it would put a long-lived caller's
# pending cyclic garbage out of the collector's reach for good.
atexit.register(gc.freeze)


def parse_angle(text: str) -> float:
    """Angle in radians from ``pi/12``, ``3pi/4``, ``pi``, or a decimal.

    Raises:
        ValueError: text matches neither form, divides by zero, or is
            not finite or overflows a float (``nan``, ``inf``,
            ``1e400``, ``1<400 zeros>pi``).
    """
    match = _ANGLE_RE.match(text)
    if match:
        num = int(match.group(1)) if match.group(1) else 1
        den = int(match.group(2)) if match.group(2) else 1
        if den == 0:
            raise ValueError(f"angle {text!r} divides by zero")
        try:
            value = num * math.pi / den
        except OverflowError:
            raise ValueError(f"angle {text!r} is out of floating-point range") from None
    else:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(
                f"cannot parse angle {text!r}; use a multiple of pi like 'pi/12' or"
                " '3pi/4', or a decimal in radians"
            ) from None
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not a finite number of radians")
    return value


def parse_angle_list(text: str) -> tuple[float, ...]:
    """Comma-separated angles; must contain at least one entry."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("angle list must be nonempty")
    return tuple(parse_angle(p) for p in parts)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ``--config`` file, or the defaults, with ``--seed`` and
    ``--visibility`` applied once on top; the defaults for a command
    without those flags."""
    if not hasattr(args, "config"):
        return ExperimentConfig()
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    flags = {"seed": args.seed, "visibility_v": args.visibility}
    return cfg.replace(**{field: value for field, value in flags.items() if value is not None})


class _Run:
    """One output directory and its manifest, the audit record of the run.

    Construction loads the config and starts the clock, with no I/O.
    Every data file goes through ``path``, ``csv`` or ``json``, which
    record it (the first also creates the directory and writes the
    manifest); ``close`` rewrites the manifest with the exit code, the
    error line, the sorted recorded files on disk, the sha256 of each of
    them but the manifest itself, and the wall-clock time.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.cfg = _load_config(args)
        self.dir = Path(args.out) if args.out else Path(f"cohsim_{args.command}")
        self.files: set[str] = set()
        self.manifest = {
            "command": args.command,
            "arguments": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
            "config": self.cfg.to_dict(),
            "versions": {
                "cohsim": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "started_utc": datetime.now(timezone.utc).isoformat(),
            "output_files": ["manifest.json"],
            "sha256": {},
            "wall_clock_seconds": None,
            "exit_code": None,
            "error": None,
            "counters": {},
        }
        self._t_start = time.monotonic()

    def path(self, name: str) -> Path:
        """Record ``name`` (relative to the run directory), create its
        parent directory, and return its path. The first call creates the
        run directory (``ValueError`` if it cannot) and writes the manifest."""
        if not self.files:
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
            except OSError as err:
                raise ValueError(f"cannot create output directory {self.dir}: {err.strerror}")
            self.files.add("manifest.json")
            self.json("manifest.json", self.manifest)
        self.files.add(name)
        path = self.dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def csv(self, name: str, rows: list[dict]) -> None:
        write_rows_csv(self.path(name), rows)

    def json(self, name: str, doc) -> None:
        self.path(name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def close(self, exit_code: int, error: str | None = None) -> None:
        self.manifest["output_files"] = sorted(f for f in self.files if (self.dir / f).is_file())
        self.manifest["sha256"] = {
            f: hashlib.sha256((self.dir / f).read_bytes()).hexdigest()
            for f in self.manifest["output_files"]
            if f != "manifest.json"
        }
        self.manifest["wall_clock_seconds"] = time.monotonic() - self._t_start
        self.manifest.update(exit_code=exit_code, error=error)
        self.json("manifest.json", self.manifest)


def _verdict_line(verdict: dict) -> str:
    state = "feasible" if verdict["lhv_feasible"] else "INFEASIBLE"
    line = f"mixture model {state}: gap = {verdict['violation_gap']:.6g}"
    if "p_value" in verdict:
        line += f", p = {verdict['p_value']:.3g} (log10 p = {verdict['log10_p_value']:.1f})"
    return line


def _slug(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label).strip("_")


def _tomography(
    run: _Run,
    prefix: str,
    states: tuple[tuple[str, StateVector], ...],
    num_bootstrap: int,
    tag_base: int = 0,
) -> list[dict]:
    """Tomography dumps under ``prefix``, with each state's requested and
    used bootstrap replicates counted in the manifest.

    State ``i`` is reconstructed from counts under stream tag
    ``tag_base + i`` and scored against itself. Every state is
    reconstructed before the block writes its first file, so a state that
    fails leaves none of them (and ``tomo`` no directory). Per state,
    ``rho_<slug>.csv`` (Re and Im blocks) and ``rho_<slug>.json``; then
    ``fidelities.csv``, one row per state, with an empty std-err cell
    when no bootstrap ran. Returns those rows.
    """
    results = []
    for i, (label, psi) in enumerate(states):
        tables = simulate_tomography_counts(psi, run.cfg, tag_base + i)
        results.append((label, reconstruct(tables, target=psi, num_bootstrap=num_bootstrap)))
    rows = []
    counter = run.manifest["counters"]["tomography_bootstrap"] = {}
    for label, result in results:
        scores = {
            "fidelity": result.fidelity_to_target,
            "fidelity_std_err": result.fidelity_std_err,
            "clip_magnitude": result.clip_magnitude,
        }
        rho = result.rho_hat.matrix
        stem = f"{prefix}rho_{_slug(label)}"
        write_density_csv(run.path(stem + ".csv"), rho)
        doc = {"label": label, "re": np.real(rho).tolist(), "im": np.imag(rho).tolist(), **scores}
        run.json(stem + ".json", doc)
        rows.append({"label": label, **scores})
        counter[label] = {"requested": num_bootstrap, "used": result.bootstrap_used}
    run.csv(prefix + "fidelities.csv", rows)
    return rows


def _scan(run: _Run, name: str, fixed: float, points: int, simulate: bool, tag: int = 0) -> dict:
    """Fringe scan of the pi/4 superposition on the grid ``i*pi/points``:
    the rates go to ``name``, and the fit comes back as a document."""
    grid = [i * math.pi / points for i in range(points)]
    scan = visibility_scan(
        epr_family(math.pi / 4, "00"), fixed, grid, run.cfg, simulate=simulate, stream_tag=tag
    )
    scan.to_csv(run.path(name))
    return scan.to_dict()


def cmd_paradox(args: argparse.Namespace, run: _Run) -> list[str]:
    theta = parse_angle(args.theta)
    if args.mode == "exact":
        _spec, rows, verdict = paradox_exact_block(theta, args.axis)
    else:
        _spec, rows, verdict, counts = paradox_simulated_block(theta, args.axis, run.cfg)
        for (label, obs), table in sorted(counts.items()):
            table.to_csv(run.path(f"counts_{label}_{obs}.csv"))
    run.csv("paradox.csv", rows)
    run.json("verdict.json", verdict)
    lines = []
    for row in rows:
        line = f"  {row['label']:>4}  {row['observable']}  theory {row['theoretical']:+.6f}"
        if args.mode == "simulated":
            line += f"  estimate {row['estimate']:+.6f} +/- {row['std_err']:.6f}"
        lines.append(line)
    return lines + [_verdict_line(verdict)]


def cmd_game(args: argparse.Namespace, run: _Run) -> list[str]:
    thetas = parse_angle_list(args.theta_grid)
    if args.mode == "exact":
        rows = game_exact_rows(thetas, args.strategy)
    else:
        rows = game_simulated_rows(thetas, args.strategy, run.cfg)
    run.csv("game.csv", rows)
    lines = []
    for row in rows:
        line = f"  theta {row['theta']:.6f}  p_win {row['p_win']:.6f}"
        if args.mode == "simulated":
            line += f"  estimate {row['p_win_estimate']:.6f} +/- {row['p_win_std_err']:.6f}"
        lines.append(line)
    return lines


def cmd_tomo(args: argparse.Namespace, run: _Run) -> list[str]:
    if args.states.strip().lower() == "all":
        thetas = DEFAULT_THETAS
    else:
        thetas = parse_angle_list(args.states)
    records = _tomography(run, "", report_states(thetas), args.bootstrap)
    lines = []
    for rec in records:
        err = "" if rec["fidelity_std_err"] is None else f" +/- {rec['fidelity_std_err']:.2g}"
        lines.append(
            f"  {rec['label']:<22} fidelity {rec['fidelity']:.6f}{err}"
            f"  clip {rec['clip_magnitude']:.3g}"
        )
    return lines


def cmd_dicke(args: argparse.Namespace, run: _Run) -> list[str]:
    rows, docs = dicke_rows(args.n)
    run.csv("dicke.csv", rows)
    run.json("dicke_specs.json", docs)
    lines = []
    for z_position in range(args.n):
        final = [r for r in rows if r["z_position"] == z_position][-1]
        lines.append(
            f"  z={z_position}: final constraint {final['observable']} on"
            f" {final['label']} advertises {final['expected']:+.6f}"
            f" (Born value {final['born_value']:+.6f})"
        )
    return lines


def cmd_visibility(args: argparse.Namespace, run: _Run) -> list[str]:
    fixed = parse_angle(args.fixed)
    if args.points > _MAX_DRAWS:
        raise ValueError(f"--points {args.points} is above the ceiling of {_MAX_DRAWS}")
    fit = _scan(run, "visibility.csv", fixed, args.points, simulate=(args.mode == "simulated"))
    run.json("visibility.json", fit)
    relation = "exceeds" if fit["exceeds_classical_bound"] else "is within"
    return [
        f"fixed arm {args.fixed}: V = {fit['visibility']:.6f}, which {relation}"
        f" the classical bound {CLASSICAL_VISIBILITY_BOUND}"
    ]


def cmd_report(args: argparse.Namespace, run: _Run) -> list[str]:
    # Not left to ``reconstruct``: the files before the tomography block come first.
    _check_bootstrap_count(args.bootstrap, allow_none=True)
    verdicts: dict = {"exact": {}, "simulated": {}}

    # Exact five-correlator tables for both transverse axes.
    for axis in ("X", "Y"):
        axis_rows: list[dict] = []
        axis_verdicts: dict = {}
        for theta in DEFAULT_THETAS:
            _spec, rows, verdict = paradox_exact_block(theta, axis)
            axis_rows.extend(rows)
            axis_verdicts[f"theta={theta:.6g}"] = verdict
        run.csv(f"paradox_{axis.lower()}.csv", axis_rows)
        verdicts["exact"][axis] = axis_verdicts

    # Headline simulated table at theta = pi/4 along X.
    _spec, sim_rows, sim_verdict, _counts = paradox_simulated_block(
        math.pi / 4, "X", run.cfg, tag_base=_TAG_PARADOX_SIM
    )
    run.csv("paradox_simulated.csv", sim_rows)
    verdicts["simulated"]["axis=X theta=pi/4"] = sim_verdict
    run.json("verdicts.json", verdicts)

    # Plot-ready exact correlator sweep.
    run.csv("paradox_curve.csv", correlator_detail_rows(CURVE_THETAS, "X"))

    # Game tables (exact values plus count-based estimates) and curve.
    for strategy, tag in (("x", _TAG_GAME_X), ("z", _TAG_GAME_Z)):
        rows = game_simulated_rows(DEFAULT_THETAS, strategy, run.cfg, tag_base=tag)
        run.csv(f"game_{strategy}.csv", rows)
    run.csv("game_curve.csv", game_curve_rows())

    # Multi-source family table at n = 3.
    run.csv("dicke.csv", dicke_rows(3)[0])

    # Tomography dumps.
    records = _tomography(run, "tomo/", report_states(), args.bootstrap, tag_base=_TAG_TOMO)

    # Visibility scans at the two canonical fixed-arm angles.
    vis_doc = {}
    for stem, fixed, tag in (("0", 0.0, _TAG_VIS), ("3pi4", 3 * math.pi / 4, _TAG_VIS + 1)):
        vis_doc[stem] = _scan(run, f"visibility_arm{stem}.csv", fixed, 25, simulate=True, tag=tag)
    run.json("visibility.json", vis_doc)

    fidelities = [rec["fidelity"] for rec in records]
    return [
        _verdict_line(sim_verdict),
        f"tomography fidelities: {min(fidelities):.6f} .. {max(fidelities):.6f}",
        "visibility: " + ", ".join(f"arm {k}: {v['visibility']:.4f}" for k, v in vis_doc.items()),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohsim",
        description=(
            "Coherence-paradox toolkit: exact quantum predictions, convex-mixture"
            " refutation, the XOR game, and a synthetic counting experiment."
        ),
    )
    parser.add_argument("--version", action="version", version=f"cohsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", help="experiment config file with 'key = value' lines")
        sp.add_argument("--seed", type=int, help="override the RNG seed")
        sp.add_argument(
            "--visibility", type=float, help="override the source visibility v in [0, 1]"
        )
        sp.add_argument("--out", help="output directory (default: cohsim_<command>)")

    sp = sub.add_parser(
        "paradox", help="five-correlator table and mixture verdict for one angle"
    )
    sp.add_argument("--theta", default="pi/4", help="superposition angle (pi/12, 0.3927, ...)")
    sp.add_argument("--axis", default="X", choices=["X", "Y"], help="transverse axis")
    sp.add_argument("--mode", default="exact", choices=["exact", "simulated"])
    add_common(sp)
    sp.set_defaults(func=cmd_paradox)

    sp = sub.add_parser("game", help="XOR-game winning probabilities over a theta grid")
    sp.add_argument(
        "--theta-grid",
        default="pi/12,pi/8,pi/6,pi/4",
        help="comma-separated angles (must be nonempty)",
    )
    sp.add_argument("--strategy", default="x", choices=["x", "z"], help="measurement strategy")
    sp.add_argument("--mode", default="exact", choices=["exact", "simulated"])
    add_common(sp)
    sp.set_defaults(func=cmd_game)

    sp = sub.add_parser("tomo", help="simulate counts and reconstruct the source states")
    sp.add_argument(
        "--states",
        default="all",
        help="'all' for the six standard sources, or a comma list of angles"
        " for the superposition family",
    )
    sp.add_argument(
        "--bootstrap", type=int, default=100, help="bootstrap replicates: 0 for none, else at least 2"
    )
    add_common(sp)
    sp.set_defaults(func=cmd_tomo)

    sp = sub.add_parser("dicke", help="paradox family for the n-source superposition")
    sp.add_argument("--n", type=int, required=True, help="number of sources (2..10)")
    sp.add_argument("--out", help="output directory (default: cohsim_dicke)")
    sp.set_defaults(func=cmd_dicke)

    sp = sub.add_parser("visibility", help="two-arm fringe scan and visibility fit")
    sp.add_argument("--fixed", default="0", help="fixed-arm analyzer angle (0 or 3pi/4)")
    sp.add_argument("--mode", default="exact", choices=["exact", "simulated"])
    sp.add_argument(
        "--points", type=int, default=25, help=f"scan grid size, 3 to {_MAX_DRAWS}"
    )
    add_common(sp)
    sp.set_defaults(func=cmd_visibility)

    sp = sub.add_parser("report", help="regenerate every table and dataset in one directory")
    sp.add_argument(
        "--bootstrap",
        type=int,
        default=100,
        help="tomography bootstrap replicates: 0 for none, else at least 2",
    )
    add_common(sp)
    sp.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = None
    try:
        run = _Run(args)
        lines = args.func(args, run)
        run.close(0)
    except (ValueError, MemoryError) as exc:
        code, error = 2, f"cohsim: error: {exc}"
    except ArithmeticError as exc:
        code, error = 3, f"cohsim: numerical failure: {exc}"
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        code, error = 2, f"cohsim: error: {where}{exc.strerror or exc}"
    else:
        for line in lines:
            print(line)
        print(f"wrote {len(run.files)} files to {run.dir}")
        return 0
    print(error, file=sys.stderr)
    # Once the directory exists its manifest records the failure; if that
    # write fails too, the exit code and message stand.
    if run is not None and run.files:
        with contextlib.suppress(OSError):
            run.close(code, error)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
