"""Acceptance gate: one pass/fail line per shipped claim.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print. Every check here states a user-facing guarantee of the package:
exact predicted values, statistical envelopes of the synthetic counting
experiment, reconstruction quality, and the randomized property suites.
"""

import math
import time

import numpy as np
import pytest

from cohsim.experiment import (
    ExperimentConfig,
    correlator_from_counts,
    delta_method_std_err,
    paradox_counts,
    paradox_p_value,
    simulate_counts,
    visibility_scan,
)
from cohsim.game import quantum_strategy, winning_probability
from cohsim.measurement import JointDistribution, expectation, setting_distribution
from cohsim.paradox import (
    coherence_paradox,
    dicke_paradox,
    ghz_stabilizer_check,
    lhv_mixture_test,
)
from cohsim.reports import DEFAULT_THETAS, paradox_simulated_block, paradox_sources
from cohsim.states import StateVector, epr_family, ghz_state
from cohsim.tomography import reconstruct, report_states, simulate_tomography_counts

from .test_states import random_state


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_1_exact_paradox_correlators():
    t0 = time.monotonic()
    worst = 0.0
    for theta in DEFAULT_THETAS:
        for axis in ("X", "Y"):
            spec = coherence_paradox(theta, axis)
            sources = paradox_sources(theta)
            targets = (-1.0, -1.0, 0.0, 0.0, math.sin(2 * theta))
            assert len(spec.constraints) == 5
            for constraint, target in zip(spec.constraints, targets):
                value = expectation(
                    sources[constraint.source_label], constraint.observable
                )
                worst = max(worst, abs(value - target))
                worst = max(worst, abs(constraint.expected_value - target))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(
        1,
        f"exact five-correlator tables, both axes, four angles"
        f" (max dev {worst:.2e}, {elapsed:.2f} s)",
        ok,
    )


def test_criterion_2_three_particle_sign_contradiction():
    t0 = time.monotonic()
    verdict = ghz_stabilizer_check(ghz_state(3))
    expected = {"XYY": -1.0, "YXY": -1.0, "YYX": -1.0, "XXX": 1.0}
    worst = max(
        abs(verdict.per_constraint_values[("ghz", chain)] - target)
        for chain, target in expected.items()
    )
    elapsed = time.monotonic() - t0
    ok = (
        worst < 1e-12
        and verdict.satisfying_assignments == 0
        and not verdict.lhv_feasible
        and elapsed < 1.0
    )
    _report(
        2,
        f"stabilizer quadruple (-1,-1,-1,+1) with no satisfying sign assignment"
        f" (max dev {worst:.2e}, {elapsed:.2f} s)",
        ok,
    )


def test_criterion_3_multi_source_family_final_value():
    worst = 0.0
    for n in range(2, 9):
        for z_position in range(n):
            spec = dicke_paradox(n, z_position)
            final = spec.constraints[-1]
            worst = max(worst, abs(final.expected_value - (n - 1) / n))
    _report(
        3,
        f"final family constraint equals (n-1)/n for n = 2..8, every Z slot"
        f" (max dev {worst:.2e})",
        worst < 1e-12,
    )


def test_criterion_4_game_values_and_identities():
    table_x = (0.5625, 0.5883883476483184, 0.6082531754730548, 0.625)
    printed = (0.5625, 0.5884, 0.6083, 0.6250)
    worst = 0.0
    for theta, target, shown in zip(DEFAULT_THETAS, table_x, printed):
        ev = winning_probability(quantum_strategy(theta, "X", "X"))
        worst = max(worst, abs(ev.p_win - target))
        worst = max(worst, abs(ev.p_win - (0.5 + math.sin(2 * theta) / 8.0)))
        assert round(ev.p_win, 4) == shown
        identity_dev = abs(ev.p_win - 0.5 - (ev.i_terms[0, 0] + ev.i_terms[1, 1]) / 4.0)
        worst = max(worst, identity_dev, abs(float(ev.i_terms.sum())))
    for theta in DEFAULT_THETAS + (0.3, 1.2):
        ev = winning_probability(quantum_strategy(theta, "Z", "Z"))
        worst = max(worst, abs(ev.p_win - 0.625))
        worst = max(worst, abs(ev.p_win - 0.5 - (ev.i_terms[0, 0] + ev.i_terms[1, 1]) / 4.0))
    _report(
        4,
        f"game table along X, 5/8 along Z, coherence-term identities"
        f" (max dev {worst:.2e})",
        worst < 1e-10,
    )


def test_criterion_5_desk_scale_statistics():
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        pair_rate=1.0e5,
        duration_per_setting=1.0,
        num_trials=1,
        visibility_v=0.99,
        efficiency=1.0,
        seed=0,
    )
    _spec, rows, verdict, _counts = paradox_simulated_block(math.pi / 4, "X", cfg)
    worst_dev = max(abs(row["estimate"] - row["theoretical"]) for row in rows)
    worst_ratio = 0.0
    for row in rows:
        delta = delta_method_std_err(row["estimate"], row["n_total"])
        if delta > 0.0:
            worst_ratio = max(worst_ratio, abs(row["std_err"] - delta) / delta)
    p = verdict["p_value"]
    elapsed = time.monotonic() - t0
    ok = worst_dev <= 0.02 and worst_ratio <= 0.25 and p < 1e-10 and elapsed < 30.0
    _report(
        5,
        f"desk-scale run: estimates within 0.02 (worst {worst_dev:.4f}), bootstrap"
        f" within 25% of delta method (worst {worst_ratio:.1%}), p = {p:.2e}"
        f" ({elapsed:.1f} s)",
        ok,
    )


def test_criterion_6_full_scale_significance():
    t0 = time.monotonic()
    cfg = ExperimentConfig(visibility_v=0.99)
    spec = coherence_paradox(math.pi / 4, "X")
    counts = paradox_counts(spec, paradox_sources(math.pi / 4), cfg)
    p, log10_p = paradox_p_value(spec, counts)
    elapsed = time.monotonic() - t0
    ok = p < 1e-15 and log10_p < -15.0 and elapsed < 600.0
    _report(
        6,
        f"full-scale run: p = {p:.2e}, log10 p = {log10_p:.3g} ({elapsed:.1f} s)",
        ok,
    )


def test_criterion_7_reconstruction_fidelities():
    cfg = ExperimentConfig(efficiency=1.0)
    worst_noiseless = 1.0
    for idx, (label, psi) in enumerate(report_states()):
        table = simulate_tomography_counts(psi, cfg, stream_tag=idx)
        result = reconstruct(table, target=psi)
        worst_noiseless = min(worst_noiseless, result.fidelity_to_target)
    noisy_cfg = cfg.replace(visibility_v=0.98)
    psi = epr_family(math.pi / 4, "00")
    table = simulate_tomography_counts(psi, noisy_cfg, stream_tag=50)
    result = reconstruct(table, target=psi, num_bootstrap=100)
    closed_form = math.sqrt(0.98 + 0.02 / 4.0)
    sigma_gap = abs(result.fidelity_to_target - closed_form) / result.fidelity_std_err
    ok = worst_noiseless > 0.999 and sigma_gap <= 3.0
    _report(
        7,
        f"tomography: noiseless fidelity floor {worst_noiseless:.6f} > 0.999,"
        f" degraded source within {sigma_gap:.2f} bootstrap sigma of closed form",
        ok,
    )


def test_criterion_8_fringe_visibility():
    grid = [i * math.pi / 25 for i in range(25)]
    state = epr_family(math.pi / 4, "00")
    ideal = visibility_scan(state, 0.0, grid)
    ideal_dev = abs(ideal.visibility - 1.0)
    counting_cfg = ExperimentConfig(
        pair_rate=1.0e5, duration_per_setting=1.0, num_trials=1, efficiency=1.0, seed=2
    )
    worst_sim = 0.0
    for v in (0.9, 0.8):
        scan = visibility_scan(
            state, 0.0, grid, counting_cfg.replace(visibility_v=v), simulate=True
        )
        worst_sim = max(worst_sim, abs(scan.visibility - v))
    low = visibility_scan(state, 0.0, grid, ExperimentConfig(visibility_v=0.705))
    high = visibility_scan(state, 0.0, grid, ExperimentConfig(visibility_v=0.715))
    flags_ok = (
        not low.exceeds_classical_bound
        and high.exceeds_classical_bound
        and low.exceeds_classical_bound == (low.visibility > 0.71)
        and high.exceeds_classical_bound == (high.visibility > 0.71)
    )
    ok = ideal_dev < 1e-10 and worst_sim < 0.005 and flags_ok
    _report(
        8,
        f"visibility: ideal dev {ideal_dev:.1e}, counting dev {worst_sim:.4f} < 0.005,"
        f" classical flag trips exactly above 0.71",
        ok,
    )


def test_criterion_9_randomized_property_suites():
    failures = []

    # Born-rule consistency: joint tables are normalized, nonnegative,
    # and their correlator matches the operator expectation.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        state = random_state(2, seed)
        axes = rng.choice(("X", "Y", "Z"), size=2)
        probs = setting_distribution(state, axes[0], axes[1])
        corr = float(np.sum(probs * np.array([[1.0, -1.0], [-1.0, 1.0]])))
        direct = expectation(state, (str(axes[0]), str(axes[1])))
        if (
            abs(probs.sum() - 1.0) > 1e-10
            or probs.min() < -1e-12
            or abs(corr - direct) > 1e-10
        ):
            failures.append(f"born seed {seed}")

    # Mixture-feasibility completeness: data generated by an actual
    # convex mixture is never flagged as a paradox.
    for seed in range(100):
        rng = np.random.default_rng((seed, 17))
        theta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        spec = coherence_paradox(theta, "X")
        sources = paradox_sources(theta)
        weight = float(rng.uniform(0.0, 1.0))
        observed = {}
        for constraint in spec.constraints:
            label = constraint.source_label
            if label == "00":
                value = weight * expectation(sources["01"], constraint.observable) + (
                    1.0 - weight
                ) * expectation(sources["10"], constraint.observable)
            else:
                value = expectation(sources[label], constraint.observable)
            observed[(label, constraint.observable.label)] = value
        verdict = lhv_mixture_test(spec, observed, tol=1e-8)
        if not verdict.lhv_feasible or verdict.violation_gap > 1e-8:
            failures.append(f"mixture seed {seed}")

    # Game identity: any normalized outcome table obeys the win/coherence
    # decomposition, and the coherence terms sum to zero.
    for seed in range(100):
        rng = np.random.default_rng((seed, 23))
        table = rng.uniform(size=(2, 2, 2, 2))
        table /= table.sum(axis=(0, 1), keepdims=True)
        ev = winning_probability(JointDistribution(table))
        identity_dev = abs(ev.p_win - 0.5 - (ev.i_terms[0, 0] + ev.i_terms[1, 1]) / 4.0)
        if identity_dev > 1e-10 or abs(float(ev.i_terms.sum())) > 1e-10:
            failures.append(f"game seed {seed}")

    # Estimator consistency and determinism at counting scale.
    theta = math.pi / 6
    truth = 0.99 * math.sin(2 * theta)
    state = epr_family(theta, "00")
    base = ExperimentConfig(
        pair_rate=1.0e5,
        duration_per_setting=1.0,
        num_trials=1,
        visibility_v=0.99,
        efficiency=1.0,
    )
    three_sigma_hits = 0
    for seed in range(100):
        cfg = base.replace(seed=seed)
        table = simulate_counts(state, ("X", "X"), cfg, stream_tag=9)
        est = correlator_from_counts(table, "X", "X")
        delta = delta_method_std_err(est.value, est.n_total)
        if abs(est.value - truth) <= 3.0 * delta:
            three_sigma_hits += 1
        if abs(est.value - truth) > 5.0 * delta:
            failures.append(f"estimator seed {seed}")
        if seed < 10:
            again = correlator_from_counts(
                simulate_counts(state, ("X", "X"), cfg, stream_tag=9), "X", "X"
            )
            if (again.value, again.std_err) != (est.value, est.std_err):
                failures.append(f"determinism seed {seed}")
    if three_sigma_hits < 97:
        failures.append(f"only {three_sigma_hits}/100 within three sigma")

    _report(
        9,
        "randomized suites (Born rule, mixture completeness, game identity,"
        f" estimator consistency/determinism): {len(failures)} failures"
        + (f" [{', '.join(failures[:4])}]" if failures else ""),
        not failures,
    )
