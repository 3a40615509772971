"""Two-qubit state tomography from coincidence counts.

Linear inversion over the nine axis-pair settings, followed by a
projection of the spectrum onto the probability simplex (the closest
trace-one positive matrix in Frobenius norm among those sharing the
eigenbasis). Single-party marginals are estimated by averaging over the
partner's three bases so every recorded count contributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .experiment import (
    _TOMO_DOMAIN, CountTable, ExperimentConfig, _cell_correlator, _check_bootstrap_count,
    _check_nonzero_total, _poisson_bootstrap, _stream, _write_csv, simulate_counts,
)
from .measurement import AXES, _pauli_action
from .states import (
    DEFAULT_THETAS, DensityOperator, StateVector, _vector_fidelity, epr_family, fidelity
)

SETTINGS = tuple((u, v) for u in AXES for v in AXES)


def simulate_tomography_counts(
    state: StateVector | DensityOperator,
    cfg: ExperimentConfig,
    stream_tag: int = 0,
) -> dict[tuple[str, str], CountTable]:
    """One ``simulate_counts`` table per setting, keyed in ``SETTINGS`` order."""
    return {setting: simulate_counts(state, setting, cfg, stream_tag) for setting in SETTINGS}


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """Reconstruction output.

    ``rho_linear`` is the raw linear-inversion matrix (unit trace,
    possibly indefinite); ``rho_hat`` is its projection to the physical
    cone. ``clip_magnitude`` is the total negative eigenvalue mass of
    the raw spectrum. ``fidelity_to_target`` scores ``rho_hat`` against
    the state the counts were drawn from; ``fidelity_std_err`` and
    ``bootstrap_used``, its replicate count, are None when no bootstrap ran.
    """

    rho_hat: DensityOperator
    rho_linear: np.ndarray
    clip_magnitude: float
    fidelity_to_target: float
    fidelity_std_err: float | None = None
    bootstrap_used: int | None = None

    def __post_init__(self) -> None:
        lin = np.array(self.rho_linear, dtype=complex)
        lin.setflags(write=False)
        object.__setattr__(self, "rho_linear", lin)
        if self.clip_magnitude < 0.0:
            raise ValueError("clip magnitude cannot be negative")
        if not 0.0 <= self.fidelity_to_target <= 1.0:
            raise ValueError(f"fidelity {self.fidelity_to_target} outside [0, 1]")


def _simplex_project(eigs: np.ndarray) -> np.ndarray:
    """Euclidean projection of real vectors onto the probability simplex.

    Works on the last axis of ``eigs``, any leading axes being a batch.
    Shift-and-threshold: subtract the largest uniform shift that keeps
    the clipped vector summing to one. This is the Frobenius-closest
    spectrum among trace-one nonnegative ones.
    """
    n = eigs.shape[-1]
    desc = np.sort(eigs, axis=-1)[..., ::-1]
    csum = np.cumsum(desc, axis=-1)
    valid = desc * np.arange(1, n + 1) > (csum - 1.0)
    # The last valid rank; rank 1 is always valid.
    k = n - 1 - np.argmax(valid[..., ::-1], axis=-1, keepdims=True)
    shift = (np.take_along_axis(csum, k, axis=-1) - 1.0) / (k + 1.0)
    return np.maximum(eigs - shift, 0.0)


def _pooled_stack(
    tables: Mapping[tuple[str, str], CountTable],
) -> tuple[np.ndarray, ExperimentConfig, int]:
    """Pooled ``(9, 2, 2)`` counts in ``SETTINGS`` order plus the config and
    tag of the one draw that made them, which seed the bootstrap."""
    missing = [s for s in SETTINGS if s not in tables]
    if missing:
        raise ValueError(f"missing tomography settings: {missing}")
    stack = np.array([tables[s].pooled(*s) for s in SETTINGS], dtype=float)
    anchor = tables[SETTINGS[0]]
    for (u, v), cell in zip(SETTINGS, stack):
        _check_nonzero_total(cell.sum(), f"setting ({u},{v})")
        if (tables[u, v].config, tables[u, v].stream_tag) != (anchor.config, anchor.stream_tag):
            raise ValueError(
                f"setting ({u},{v}) was drawn under another config or stream tag"
                f" than setting ({','.join(SETTINGS[0])})"
            )
    return stack, anchor.config, anchor.stream_tag


def _invert(pooled: np.ndarray) -> np.ndarray:
    """Linear inversion of pooled ``(..., 9, 2, 2)`` counts into unit-trace matrices."""
    batch = pooled.shape[:-3]
    cells = pooled.reshape(batch + (3, 3, 2, 2))
    total = cells.sum(axis=(-2, -1))
    coeff = np.zeros(batch + (4, 4))
    coeff[..., 0, 0] = 1.0
    coeff[..., 1:, 1:] = _cell_correlator(cells)
    # Marginals: party A's axis indexes dim -2, B's dim -1; each is
    # averaged over the partner's three axes.
    marg_a = (cells[..., 0, :].sum(axis=-1) - cells[..., 1, :].sum(axis=-1)) / total
    marg_b = (cells[..., :, 0].sum(axis=-1) - cells[..., :, 1].sum(axis=-1)) / total
    coeff[..., 1:, 0] = marg_a.mean(axis=-1)
    coeff[..., 0, 1:] = marg_b.mean(axis=-2)
    rho = np.zeros(batch + (4, 4), dtype=complex)
    # The 16 Pauli pairs over ("I", X, Y, Z), each acting as O[idx, perm] = phase.
    paulis = ("I",) + AXES
    for i, j in np.ndindex(4, 4):
        idx, perm, phase = _pauli_action((paulis[i], paulis[j]))
        rho[..., idx, perm] += coeff[..., i, j, None] * phase / 4.0
    return rho


def _dagger(mat: np.ndarray) -> np.ndarray:
    return mat.conj().swapaxes(-1, -2)


def _project(rho_linear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project ``(..., 4, 4)`` matrices to the physical cone; also the
    negative eigenvalue mass of each."""
    eigs, vecs = np.linalg.eigh(0.5 * (rho_linear + _dagger(rho_linear)))
    clip = np.clip(-eigs, 0.0, None).sum(axis=-1)
    mat = (vecs * _simplex_project(eigs)[..., None, :]) @ _dagger(vecs)
    mat = 0.5 * (mat + _dagger(mat))
    return mat / np.trace(mat, axis1=-2, axis2=-1).real[..., None, None], clip


def reconstruct(
    counts: Mapping[tuple[str, str], CountTable],
    target: StateVector,
    num_bootstrap: int = 0,
) -> TomographyResult:
    """Reconstruct a two-qubit state from nine-setting counts.

    ``counts`` maps each of the nine settings to its table, as one
    ``simulate_tomography_counts`` call returns them; the bootstrap streams
    derive from the config and tag the nine tables share. The ``target``
    is the pure state the counts were drawn from, which the fidelity is
    scored against. With ``num_bootstrap > 0``, the fidelity's standard error
    runs over the ``_poisson_bootstrap`` replicates of the pooled counts
    (settings in ``SETTINGS`` order), all reconstructed at once; it
    leaves out the replicates with an empty setting, which cannot be
    inverted (``bootstrap_used`` counts the rest).

    ``num_bootstrap = 0`` means no bootstrap; one replicate has no
    spread to measure, so 1 is refused.

    Raises:
        ValueError: missing settings, a table under another setting's key or
            of another draw, zero totals, a ``num_bootstrap`` that is no integer
            (a float or bool) or is 1 or below 0, a ``target`` that is no
            two-qubit ``StateVector`` (all before any bootstrap draw), or fewer
            than two replicates that can be inverted.
    """
    _check_bootstrap_count(num_bootstrap, allow_none=True)
    if not isinstance(target, StateVector):
        raise ValueError(f"the target must be a StateVector, not {type(target).__name__}")
    pooled, cfg, tag = _pooled_stack(counts)
    rho_linear = _invert(pooled)
    mat, clip = _project(rho_linear)
    rho_hat = DensityOperator(mat)
    fid = fidelity(rho_hat, target)
    fid_se: float | None = None
    used: int | None = None
    if num_bootstrap > 0:
        rng = _stream(cfg.seed, tag, _TOMO_DOMAIN, 1)
        kept = _poisson_bootstrap(pooled, rng, num_bootstrap)
        used = len(kept)
        mats = _project(_invert(kept))[0]
        # _project returns density matrices by construction, so no
        # DensityOperator checks; one matrix at a time, as a stacked
        # product rounds some values differently.
        reps = [_vector_fidelity(target.amplitudes, m) for m in mats]
        fid_se = float(np.std(reps, ddof=1))
    return TomographyResult(
        rho_hat=rho_hat,
        rho_linear=rho_linear,
        clip_magnitude=float(clip),
        fidelity_to_target=fid,
        fidelity_std_err=fid_se,
        bootstrap_used=used,
    )


def report_states(
    thetas: tuple[float, ...] = DEFAULT_THETAS,
) -> tuple[tuple[str, StateVector], ...]:
    """The standard six sources: |01>, the superpositions, |10>.

    Raises:
        ValueError: two states share a label, as two angles equal to
            six significant digits do.
    """
    out: list[tuple[str, StateVector]] = [("01", epr_family(0.0, "01"))]
    for theta in thetas:
        label = f"00(theta={theta:.6g})"
        if label in dict(out):
            raise ValueError(f"tomography state {label!r} is listed twice")
        out.append((label, epr_family(theta, "00")))
    out.append(("10", epr_family(0.0, "10")))
    return tuple(out)


def write_density_csv(path: str | Path, rho: np.ndarray) -> None:
    """Row-major CSV dump: a real block, then an imaginary block."""
    blocks = (("re", np.real(rho)), ("im", np.imag(rho)))
    rows = ([name, r, *values] for name, block in blocks for r, values in enumerate(block))
    _write_csv(path, ["block", "row", "c0", "c1", "c2", "c3"], rows)
