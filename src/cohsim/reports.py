"""Table assembly shared by the CLI commands.

Builders return plain row dicts ready for CSV/JSON serialization, each
row's keys in column order, so a builder alone fixes its table's
columns; ``write_rows_csv`` hands them to the experiment module's one
CSV writer. All simulation goes through the experiment module so seeds
behave identically whether a table is produced alone or inside the
bundled report.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .experiment import (
    CountTable,
    ExperimentConfig,
    _write_csv,
    correlator_from_counts,
    delta_method_std_err,
    paradox_counts,
    paradox_p_value,
    simulate_counts,
)
from .game import quantum_strategy, winning_probability
from .measurement import expectation
from .paradox import (
    ParadoxSpec,
    coherence_paradox,
    dicke_paradox,
    lhv_mixture_test,
    theoretical_values,
)
from .states import EQ_ATOL, StateVector, dicke_one_excitation, epr_family

STRATEGY_AXES = {"x": ("X", "X"), "z": ("Z", "Z")}
DEFAULT_THETAS = (math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 4)
CURVE_THETAS = tuple(i * (math.pi / 2) / 26 for i in range(1, 26))


def write_rows_csv(path: str | Path, rows: list[dict]) -> None:
    """``_write_csv`` of row dicts; the header is the first row's keys,
    in order, so ``rows`` must be nonempty."""
    header = list(rows[0])
    _write_csv(path, header, ([row[col] for col in header] for row in rows))


def paradox_sources(theta: float) -> dict:
    return {
        "01": epr_family(theta, "01"),
        "10": epr_family(theta, "10"),
        "00": epr_family(theta, "00"),
    }


def _theory_rows(theta: float, spec: ParadoxSpec) -> list[dict]:
    return [
        {
            "theta": theta,
            "label": c.source_label,
            "observable": c.observable.label,
            "theoretical": c.expected_value,
        }
        for c in spec.constraints
    ]


def paradox_exact_block(theta: float, axis: str) -> tuple[ParadoxSpec, list[dict], dict]:
    """Five theoretical rows plus the mixture verdict on exact values."""
    spec = coherence_paradox(theta, axis)
    verdict = lhv_mixture_test(spec, theoretical_values(spec), tol=EQ_ATOL)
    return spec, _theory_rows(theta, spec), verdict.to_dict()


def paradox_simulated_block(
    theta: float,
    axis: str,
    cfg: ExperimentConfig,
    tag_base: int = 0,
) -> tuple[ParadoxSpec, list[dict], dict, dict[tuple[str, str], CountTable]]:
    """Theoretical and estimated rows, mixture verdict, and p-value.

    ``tag_base`` offsets the RNG stream tags so several blocks under one
    seed (different theta or axis) draw independent counts for rows that
    share a source state.
    """
    spec = coherence_paradox(theta, axis)
    counts = paradox_counts(spec, paradox_sources(theta), cfg, tag_base=tag_base)
    rows = _theory_rows(theta, spec)
    for c, row in zip(spec.constraints, rows):
        key = (c.source_label, c.observable.label)
        est = correlator_from_counts(counts[key], c.observable.axes[0], c.observable.axes[1])
        row.update(
            estimate=est.value,
            std_err=est.std_err,
            delta_std_err=delta_method_std_err(est.value, est.n_total),
            n_total=est.n_total,
        )
    observed = {(row["label"], row["observable"]): row["estimate"] for row in rows}
    p, log10_p = paradox_p_value(spec, counts)
    verdict = lhv_mixture_test(spec, observed, tol=EQ_ATOL)
    verdict = replace(verdict, p_value=p, log10_p_value=log10_p)
    return spec, rows, verdict.to_dict(), counts


def game_exact_rows(thetas, strategy: str) -> list[dict]:
    """One row per theta: winning probability and all coherence terms."""
    obs_a, obs_b = STRATEGY_AXES[strategy]
    rows = []
    for theta in thetas:
        dist = quantum_strategy(theta, obs_a, obs_b)
        ev = winning_probability(dist)
        rows.append(
            {
                "theta": float(theta),
                "p_win": ev.p_win,
                **{f"i_{a}{b}": float(ev.i_terms[a, b]) for a in range(2) for b in range(2)},
            }
        )
    return rows


def game_simulated_rows(
    thetas, strategy: str, cfg: ExperimentConfig, tag_base: int = 0
) -> list[dict]:
    """Exact rows augmented with count-based estimates.

    The winning probability is estimated from the three measured
    correlators: ``1/2 + (E_00 - E_01 - E_10)/8`` with the uniform
    (1,1) row contributing no signal; errors add in quadrature.
    """
    obs_a, obs_b = STRATEGY_AXES[strategy]
    setting = (obs_a, obs_b)
    rows = game_exact_rows(thetas, strategy)
    for idx, (theta, row) in enumerate(zip(thetas, rows)):
        estimates = {}
        for k, (label, state) in enumerate(sorted(paradox_sources(theta).items())):
            table = simulate_counts(state, setting, cfg, stream_tag=tag_base + 3 * idx + k)
            estimates[label] = correlator_from_counts(table, *setting)
        value = 0.5 + (
            estimates["00"].value - estimates["01"].value - estimates["10"].value
        ) / 8.0
        spread = math.sqrt(sum(estimates[lb].std_err ** 2 for lb in ("00", "01", "10"))) / 8.0
        row.update({f"e_{lb}": estimates[lb].value for lb in ("00", "01", "10")})
        row.update(p_win_estimate=value, p_win_std_err=spread)
    return rows


def game_curve_rows() -> list[dict]:
    """``CURVE_THETAS`` sweep of both named strategies (exact values)."""
    x_rows = game_exact_rows(CURVE_THETAS, "x")
    z_rows = game_exact_rows(CURVE_THETAS, "z")
    return [
        {
            "theta": x["theta"],
            "p_win_x": x["p_win"],
            "p_win_z": z["p_win"],
            "sin_2theta": math.sin(2 * x["theta"]),
        }
        for x, z in zip(x_rows, z_rows)
    ]


def correlator_detail_rows(thetas, axis: str) -> list[dict]:
    """Exact correlators of every source along Z and the transverse axis."""
    rows = []
    for theta in thetas:
        for label, state in sorted(paradox_sources(theta).items()):
            rows.append(
                {
                    "theta": float(theta),
                    "label": label,
                    "zz": expectation(state, "ZZ"),
                    "aa": expectation(state, axis + axis),
                    "axis": axis,
                }
            )
    return rows


def _basis_state(label: str) -> StateVector:
    amps = np.zeros(2 ** len(label), dtype=complex)
    amps[int(label, 2)] = 1.0
    return StateVector(amps)


def dicke_rows(n: int) -> tuple[list[dict], list[dict]]:
    """Constraint rows with Born values, and spec documents, for every Z position."""
    rows, docs = [], []
    superposition = dicke_one_excitation(n)
    for z_position in range(n):
        spec = dicke_paradox(n, z_position)
        docs.append({"z_position": z_position, **spec.to_dict()})
        for con in spec.constraints:
            label = con.source_label
            state = superposition if label == "0" * n else _basis_state(label)
            rows.append(
                {
                    "z_position": z_position,
                    "label": label,
                    "observable": con.observable.label,
                    "expected": con.expected_value,
                    "born_value": expectation(state, con.observable),
                }
            )
    return rows, docs
