"""Two-qubit state tomography from coincidence counts.

Linear inversion over the nine axis-pair settings, followed by a
projection of the spectrum onto the probability simplex (the closest
trace-one positive matrix in Frobenius norm among those sharing the
eigenbasis). Single-party marginals are estimated by averaging over the
partner's three bases so every recorded count contributes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .experiment import _TOMO_DOMAIN, CountTable, ExperimentConfig, simulate_counts
from .measurement import AXES, _pauli_action
from .states import DensityOperator, StateVector, epr_family, fidelity

SETTINGS = tuple((u, v) for u in AXES for v in AXES)
FIDELITY_TABLE = "fidelities.csv"

# The 16 two-qubit Pauli pairs as (i, j, idx, flip, phase), where i and j
# index ("I", X, Y, Z) and the pair acts as O[idx, idx ^ flip] = phase.
_PAIR_ACTIONS = tuple(
    (i, j, *_pauli_action((si, sj)))
    for i, si in enumerate(("I",) + AXES)
    for j, sj in enumerate(("I",) + AXES)
)


def tomography_settings() -> tuple[tuple[str, str], ...]:
    """The full 3x3 grid of axis pairs, row-major."""
    return SETTINGS


def simulate_tomography_counts(
    state: StateVector | DensityOperator,
    cfg: ExperimentConfig,
    stream_tag: int = 0,
) -> CountTable:
    """One merged count table covering all nine settings."""
    table = simulate_counts(state, SETTINGS[0], cfg, stream_tag=stream_tag)
    for setting in SETTINGS[1:]:
        table = table.merge(simulate_counts(state, setting, cfg, stream_tag=stream_tag))
    return table


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """Reconstruction output.

    ``rho_linear`` is the raw linear-inversion matrix (unit trace,
    possibly indefinite); ``rho_hat`` is its projection to the physical
    cone. ``clip_magnitude`` is the total negative eigenvalue mass of
    the raw spectrum. Fidelity fields are None when no target was given.
    """

    rho_hat: DensityOperator
    rho_linear: np.ndarray
    settings_used: tuple[tuple[str, str], ...]
    clip_magnitude: float
    fidelity_to_target: float | None = None
    fidelity_std_err: float | None = None

    def __post_init__(self) -> None:
        lin = np.array(self.rho_linear, dtype=complex)
        lin.setflags(write=False)
        object.__setattr__(self, "rho_linear", lin)
        if self.clip_magnitude < 0.0:
            raise ValueError("clip magnitude cannot be negative")
        if self.fidelity_to_target is not None and not 0.0 <= self.fidelity_to_target <= 1.0:
            raise ValueError(f"fidelity {self.fidelity_to_target} outside [0, 1]")


def _simplex_project(eigs: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    Shift-and-threshold: subtract the largest uniform shift that keeps
    the clipped vector summing to one. This is the Frobenius-closest
    spectrum among trace-one nonnegative ones.
    """
    desc = np.sort(eigs)[::-1]
    csum = np.cumsum(desc)
    ranks = np.arange(1, eigs.size + 1)
    valid = desc * ranks > (csum - 1.0)
    k = int(np.nonzero(valid)[0][-1])
    shift = (csum[k] - 1.0) / (k + 1.0)
    return np.maximum(eigs - shift, 0.0)


def _pooled_map(
    counts: CountTable | Mapping[tuple[str, str], CountTable],
) -> tuple[dict[tuple[str, str], np.ndarray], ExperimentConfig, int]:
    """Pooled 2x2 counts per setting plus the seed-bearing config/tag."""
    if isinstance(counts, CountTable):
        tables = {setting: counts for setting in counts.settings()}
    else:
        tables = dict(counts)
    missing = [s for s in SETTINGS if s not in tables]
    if missing:
        raise ValueError(f"missing tomography settings: {missing}")
    pooled = {}
    for setting in SETTINGS:
        cell = tables[setting].pooled(*setting)
        if int(cell.sum()) == 0:
            raise ValueError(f"zero total count for setting {setting}")
        pooled[setting] = cell.astype(float)
    anchor = tables[SETTINGS[0]]
    return pooled, anchor.config, anchor.stream_tag


def _invert(pooled: Mapping[tuple[str, str], np.ndarray]) -> np.ndarray:
    """Linear inversion of pooled counts into a unit-trace matrix."""
    coeff = np.zeros((4, 4))
    coeff[0, 0] = 1.0
    marg_a = {u: [] for u in AXES}
    marg_b = {v: [] for v in AXES}
    for i, u in enumerate(AXES):
        for j, v in enumerate(AXES):
            cell = pooled[(u, v)]
            total = cell.sum()
            coeff[i + 1, j + 1] = (cell[0, 0] - cell[0, 1] - cell[1, 0] + cell[1, 1]) / total
            marg_a[u].append((cell[0, :].sum() - cell[1, :].sum()) / total)
            marg_b[v].append((cell[:, 0].sum() - cell[:, 1].sum()) / total)
    for i, u in enumerate(AXES):
        coeff[i + 1, 0] = float(np.mean(marg_a[u]))
        coeff[0, i + 1] = float(np.mean(marg_b[u]))
    rho = np.zeros((4, 4), dtype=complex)
    for i, j, idx, flip, phase in _PAIR_ACTIONS:
        rho[idx, idx ^ flip] += coeff[i, j] * phase / 4.0
    return rho


def _project(rho_linear: np.ndarray) -> tuple[DensityOperator, float]:
    herm = 0.5 * (rho_linear + rho_linear.conj().T)
    eigs, vecs = np.linalg.eigh(herm)
    clip = float(np.sum(np.clip(-eigs, 0.0, None)))
    projected = _simplex_project(eigs)
    mat = (vecs * projected) @ vecs.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return DensityOperator(mat / np.trace(mat).real), clip


def reconstruct(
    counts: CountTable | Mapping[tuple[str, str], CountTable],
    target: StateVector | DensityOperator | None = None,
    num_bootstrap: int = 0,
) -> TomographyResult:
    """Reconstruct a two-qubit state from nine-setting counts.

    ``counts`` is either one table holding all nine settings or a map
    from setting to table. With a ``target`` and ``num_bootstrap > 0``,
    the fidelity's standard error is estimated by redrawing every pooled
    cell from a Poisson at its observed value and re-running the
    reconstruction. Replicates in which some setting redraws to a zero
    total cannot be inverted and are left out, so the standard error
    conditions on every setting having N > 0.

    Raises:
        ValueError: missing settings, zero totals, or ``num_bootstrap > 1``
            with fewer than two replicates that can be inverted.
    """
    pooled, cfg, tag = _pooled_map(counts)
    rho_linear = _invert(pooled)
    rho_hat, clip = _project(rho_linear)
    fid: float | None = None
    fid_se: float | None = None
    if target is not None:
        fid = fidelity(rho_hat, target)
        if num_bootstrap > 0:
            rng = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, tag, _TOMO_DOMAIN, 1))
            )
            reps = []
            for _ in range(num_bootstrap):
                redrawn = {s: rng.poisson(cell).astype(float) for s, cell in pooled.items()}
                if all(c.sum() > 0 for c in redrawn.values()):
                    rho_rep, _ = _project(_invert(redrawn))
                    reps.append(fidelity(rho_rep, target))
            if num_bootstrap > 1 and len(reps) < 2:
                raise ValueError(
                    f"only {len(reps)} of {num_bootstrap} bootstrap replicates"
                    " have a nonzero total in every setting"
                )
            fid_se = float(np.std(reps, ddof=1)) if num_bootstrap > 1 else 0.0
    return TomographyResult(
        rho_hat=rho_hat,
        rho_linear=rho_linear,
        settings_used=SETTINGS,
        clip_magnitude=clip,
        fidelity_to_target=fid,
        fidelity_std_err=fid_se,
    )


def report_states(thetas: tuple[float, ...] = (math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 4)) -> tuple[tuple[str, StateVector], ...]:
    """The standard six sources: |01>, the superpositions, |10>."""
    out: list[tuple[str, StateVector]] = [("01", epr_family(0.0, "01"))]
    for theta in thetas:
        out.append((f"00(theta={theta:.6g})", epr_family(theta, "00")))
    out.append(("10", epr_family(0.0, "10")))
    return tuple(out)


def _slug(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label).strip("_")


def write_density_csv(path: str | Path, rho: np.ndarray) -> None:
    """Row-major CSV dump: a real block, then an imaginary block."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "row", "c0", "c1", "c2", "c3"])
        for name, block in (("re", np.real(rho)), ("im", np.imag(rho))):
            for r in range(block.shape[0]):
                writer.writerow([name, r] + [repr(float(x)) for x in block[r]])


def tomography_report(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    states: tuple[tuple[str, StateVector], ...] | None = None,
    num_bootstrap: int = 100,
    tag_base: int = 0,
) -> list[dict]:
    """Reconstruct each source and dump matrices plus a fidelity table.

    Writes per state ``rho_<label>.csv`` (Re and Im blocks) and
    ``rho_<label>.json``, plus the ``FIDELITY_TABLE`` summary. Returns
    one record per state with the fidelity against the ideal pure source
    and the names of the state's two files (``"files"``); those names
    and ``FIDELITY_TABLE`` are every file written. Stream tags run from
    ``tag_base`` so a caller reusing one seed for several artifact groups
    can keep their count draws independent.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chosen = states if states is not None else report_states()
    records = []
    for idx, (label, psi) in enumerate(chosen):
        table = simulate_tomography_counts(psi, cfg, stream_tag=tag_base + idx)
        result = reconstruct(table, target=psi, num_bootstrap=num_bootstrap)
        rho = result.rho_hat.matrix
        slug = _slug(label)
        write_density_csv(out / f"rho_{slug}.csv", rho)
        doc = {
            "label": label,
            "re": np.real(rho).tolist(),
            "im": np.imag(rho).tolist(),
            "fidelity": result.fidelity_to_target,
            "fidelity_std_err": result.fidelity_std_err,
            "clip_magnitude": result.clip_magnitude,
        }
        (out / f"rho_{slug}.json").write_text(json.dumps(doc, indent=2))
        records.append(
            {
                "label": label,
                "fidelity": result.fidelity_to_target,
                "fidelity_std_err": result.fidelity_std_err,
                "clip_magnitude": result.clip_magnitude,
                "max_abs_imag": float(np.abs(np.imag(rho)).max()),
                "files": [f"rho_{slug}.csv", f"rho_{slug}.json"],
            }
        )
    with open(out / FIDELITY_TABLE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "fidelity", "fidelity_std_err", "clip_magnitude"])
        for rec in records:
            se = rec["fidelity_std_err"]
            writer.writerow(
                [
                    rec["label"],
                    repr(float(rec["fidelity"])),
                    "" if se is None else repr(float(se)),
                    repr(float(rec["clip_magnitude"])),
                ]
            )
    return records
