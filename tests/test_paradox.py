"""Paradox construction, sign-model enumeration, and mixture refutation."""

import cmath
import dataclasses
import itertools
import json
import math
import re
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohsim import paradox
from cohsim.measurement import ObservableChain, as_chain, expectation, setting_distribution
from cohsim.paradox import (
    GHZ_CHAINS,
    GHZ_TARGET,
    MixtureClaim,
    ParadoxConstraint,
    ParadoxSpec,
    ParadoxVerdict,
    _ghz_hull_residual,
    _min_max_residual,
    coherence_paradox,
    dicke_paradox,
    ghz_stabilizer_check,
    lhv_mixture_test,
    theoretical_values,
)
from cohsim.states import (
    EQ_ATOL,
    EPR_LABELS,
    MAX_QUBITS,
    DensityOperator,
    StateVector,
    dicke_one_excitation,
    epr_family,
    ghz_state,
    werner_mix,
)

from .test_measurement import PROPERTY_SETTINGS

THETAS = (math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 4)


def brute_force_sign_products() -> np.ndarray:
    """Independent re-enumeration of the 64 deterministic sign models."""
    chains = [(0, 3, 5), (2, 1, 5), (2, 3, 4), (0, 1, 4)]
    rows = []
    for signs in itertools.product((-1, 1), repeat=6):
        rows.append([signs[i] * signs[j] * signs[k] for i, j, k in chains])
    return np.array(rows, dtype=float)


def _pl_objective(rows, targets, weights):
    rows = np.asarray(rows, float)
    targets = np.asarray(targets, float)
    w = np.ones(len(targets)) if weights is None else np.asarray(weights, float)

    def objective(p):
        return float(np.max(w * np.abs(rows @ p - targets)))

    return rows, targets, w, objective


def exact_min_max_k2(rows, targets, weights=None) -> float:
    """Exact 1D minimum of the piecewise-linear envelope (k = 2).

    With weights ``(q, 1 - q)`` the objective is a max of ``2m`` linear
    pieces of ``q``; its minimum over [0, 1] sits at an endpoint or at a
    crossing of two pieces, all of which are enumerated.
    """
    rows, targets, w, objective = _pl_objective(rows, targets, weights)
    slopes, offsets = [], []
    for j in range(len(targets)):
        a = rows[j, 0] - rows[j, 1]
        b = rows[j, 1] - targets[j]
        for s in (-1.0, 1.0):
            slopes.append(s * w[j] * a)
            offsets.append(s * w[j] * b)
    candidates = [0.0, 1.0]
    for i in range(len(slopes)):
        for j in range(i + 1, len(slopes)):
            da = slopes[i] - slopes[j]
            if abs(da) < 1e-14:
                continue
            q = (offsets[j] - offsets[i]) / da
            if -1e-12 <= q <= 1.0 + 1e-12:
                candidates.append(min(1.0, max(0.0, q)))
    return min(objective(np.array([q, 1.0 - q])) for q in candidates)


def exact_min_max_k3(rows, targets, weights=None) -> float:
    """Exact minimum of the envelope over the 2-simplex (k = 3).

    The objective is convex piecewise linear, so its minimum touches a
    point where two of the defining equalities hold: either two signed
    pieces agree, a piece agrees with another while a coordinate is
    zero, or two coordinates are zero (a vertex). All such intersections
    are enumerated by solving the corresponding 3x3 linear systems.
    """
    rows, targets, w, objective = _pl_objective(rows, targets, weights)
    m = len(targets)
    # Linear forms c . p + d for every signed piece.
    forms = []
    for j in range(m):
        for s in (-1.0, 1.0):
            forms.append((s * w[j] * rows[j], -s * w[j] * targets[j]))
    # Equations usable as active conditions: piece_i == piece_j, or p_l == 0.
    equations = []
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            equations.append((forms[i][0] - forms[j][0], forms[j][1] - forms[i][1]))
    for axis in range(3):
        unit = np.zeros(3)
        unit[axis] = 1.0
        equations.append((unit, 0.0))
    candidates = [np.eye(3)[i] for i in range(3)]
    ones = np.ones(3)
    for i in range(len(equations)):
        for j in range(i + 1, len(equations)):
            mat = np.vstack([equations[i][0], equations[j][0], ones])
            rhs = np.array([equations[i][1], equations[j][1], 1.0])
            try:
                p = np.linalg.solve(mat, rhs)
            except np.linalg.LinAlgError:
                continue
            if p.min() >= -1e-9:
                candidates.append(np.clip(p, 0.0, None) / np.clip(p, 0.0, None).sum())
    return min(objective(p) for p in candidates)


def certificate_bounds(rows, targets, weights, p, q):
    """``(upper, lower)`` bounds on a program's minimax from a primal-dual pair.

    ``p`` weights the columns and ``q`` the ``2m`` signed payoff rows
    ``+-w_j (rows_j - targets_j)``, the ``+`` rows first. The worst
    weighted residual at ``p`` bounds the optimum from above; the least
    column payoff under ``q`` bounds it from below, and so does 0, since
    the signed rows come in pairs (von Neumann's minimax theorem). Bounds
    that meet prove the optimum with no solver.
    """
    assert p.min() >= 0.0 and q.min() >= 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    payoff = weights[:, None] * (rows - targets[:, None])
    upper = float(np.max(weights * np.abs(rows @ p - targets)))
    lower = max(0.0, float(np.min(q @ np.vstack([payoff, -payoff]))))
    return upper, lower


def breakpoint_min_max(rows, targets, weights=None):
    """Reference minimax by breakpoint scans, for one row or two columns.

    One column is the residual itself. Two columns leave one free weight
    ``p``, and the objective is least at ``p = 0``, ``p = 1``, a row's
    kink or a crossing of two rows' ``+-`` pieces; the scan keeps the
    first lowest candidate in sorted order. One row over more columns
    reduces to its smallest and largest entries.
    """
    vals = np.asarray(rows, dtype=float)
    m, k = vals.shape
    targ = np.asarray(targets, dtype=float)
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    if k == 1:
        return float(np.max(w * np.abs(vals[:, 0] - targ))), np.array([1.0])
    if k == 2:
        a = vals[:, 0] - vals[:, 1]
        b = vals[:, 1] - targ

        def g(p):
            return float(np.max(w * np.abs(a * p + b)))

        candidates = [0.0, 1.0]
        for j in range(m):
            if a[j] != 0.0:
                candidates.append(-b[j] / a[j])
        for i in range(m):
            for j in range(i + 1, m):
                for s in (1.0, -1.0):
                    den = w[i] * a[i] - s * w[j] * a[j]
                    if den != 0.0:
                        candidates.append((s * w[j] * b[j] - w[i] * b[i]) / den)
        best_p, best_g = 0.0, g(0.0)
        for p in sorted(c for c in candidates if 0.0 <= c <= 1.0):
            val = g(p)
            if val < best_g:
                best_p, best_g = p, val
        return best_g, np.array([best_p, 1.0 - best_p])
    assert m == 1, "the breakpoint scan covers one row or two columns"
    cols = [int(np.argmin(vals[0])), int(np.argmax(vals[0]))]
    gap, pair = breakpoint_min_max(vals[:, cols], targ, w)
    p = np.zeros(k)
    np.add.at(p, cols, pair)
    return gap, p


def oracle_one_row_cases(count, seed):
    """Seeded one-row programs over k = 1..11 columns.

    Rows are uniform, half-integer, constant, scaled by 1e-6, rounded to
    2 decimals or ternary. Targets are uniform, equal to an entry, +-1,
    0, (k - 1)/k or a mixture of the row. Weights are None, 1 or drawn
    from [0.1, 1e4].
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = 1 + i % 11
        kind = (i // 11) % 6
        if kind == 0:
            row = rng.uniform(-1, 1, size=k)
        elif kind == 1:
            row = rng.integers(-2, 3, size=k) / 2.0
        elif kind == 2:
            row = np.full(k, rng.uniform(-1, 1))
        elif kind == 3:
            row = rng.uniform(-1, 1, size=k) * 1e-6
        elif kind == 4:
            row = np.round(rng.uniform(-1, 1, size=k), 2)
        else:
            row = rng.choice([-1.0, 0.0, 1.0], size=k)
        choice = (i // 66) % 6
        if choice == 0:
            target = rng.uniform(-1, 1)
        elif choice == 1:
            target = row[int(rng.integers(k))]
        elif choice == 2:
            target = rng.choice([-1.0, 1.0])
        elif choice == 3:
            target = 0.0
        elif choice == 4:
            target = (k - 1) / k
        else:
            target = row @ rng.dirichlet(np.ones(k))
        weight = (None, np.array([1.0]), rng.uniform(0.1, 1e4, size=1))[(i // 396) % 3]
        yield row[None, :], np.array([target]), weight


def one_row_cases(count, seed):
    """Seeded one-row problems: random, constant and tied rows, targets
    inside and outside the row's range, unit and non-unit weights."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(3, 12))
        kind = i % 3
        if kind == 0:
            row = rng.uniform(-1, 1, size=k)
        elif kind == 1:
            row = np.full(k, rng.uniform(-1, 1))
        else:
            row = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=k)
        lo, hi = row.min(), row.max()
        if i % 2:
            target = rng.uniform(lo, hi)
        else:
            target = rng.choice([lo - 1.0, hi + 1.0]) * rng.uniform(0.1, 1.0)
        weight = 1.0 if i % 4 == 0 else rng.uniform(0.1, 5.0)
        yield row[None, :], np.array([target]), np.array([weight])


def multi_row_cases(count, seed):
    """Seeded programs of 2..8 rows over 3..64 components: uniform,
    ternary-degenerate, zero-gap feasible and all-tied rows, with unit
    weights and with weights in [0.1, 10]."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, k = int(rng.integers(2, 9)), int(rng.integers(3, 65))
        kind = i % 4
        if kind == 0:
            rows, targets = rng.uniform(-1, 1, size=(m, k)), rng.uniform(-1, 1, size=m)
        elif kind == 1:
            rows = rng.choice([-1.0, 0.0, 1.0], size=(m, k))
            targets = rng.choice([-1.0, 0.0, 1.0], size=m)
        elif kind == 2:
            rows = rng.uniform(-1, 1, size=(m, k))
            targets = rows @ rng.dirichlet(np.ones(k))
        else:
            rows = np.repeat(rng.uniform(-1, 1, size=(m, 1)), k, axis=1)
            targets = rng.uniform(-1, 1, size=m)
        weights = np.ones(m) if i % 2 == 0 else rng.uniform(0.1, 10.0, size=m)
        yield rows, targets, weights


def feasible_cases(count, seed):
    """Seeded programs whose targets are a mixture of the columns, so the
    gap is 0: 2..8 rows over mostly 3..8 columns (highly degenerate at
    the optimum), some on a half-integer grid or ternary, unit and
    non-unit weights."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(3, 9)) if i % 4 else int(rng.integers(3, 65))
        rows = rng.uniform(-1, 1, size=(m, k))
        if i % 3 == 0:
            rows = np.round(rows * 2) / 2
        if i % 5 == 0:
            rows = rng.choice([-1.0, 0.0, 1.0], size=(m, k))
        targets = rows @ rng.dirichlet(np.full(k, 1.0 if i % 2 else 0.2))
        weights = np.ones(m) if i % 2 == 0 else rng.uniform(0.1, 10.0, size=m)
        yield rows, targets, weights


def two_row_three_component_spec() -> ParadoxSpec:
    """Two mixed rows over three components, so only the simplex solves it.

    A mixture gives XX + ZZ = 2 p_A >= 0 against the mixed row's -2, so
    the worst residual is at least 1, reached at p = (0, 1/2, 1/2).
    """
    values = {"A": (1.0, 1.0), "B": (-1.0, 1.0), "C": (1.0, -1.0), "M": (-1.0, -1.0)}
    constraints = tuple(
        ParadoxConstraint(label, as_chain(chain), value)
        for label, pair in values.items()
        for chain, value in zip(("XX", "ZZ"), pair)
    )
    return ParadoxSpec(constraints, MixtureClaim("M", ("A", "B", "C")))


def cube_points(count, seed):
    """Seeded points of [-1, 1]^4: a third inside, two thirds on faces
    (one to four coordinates pinned at +-1, vertices included)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        e = rng.uniform(-1.0, 1.0, size=4)
        if i % 3:
            pinned = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
            e[pinned] = rng.choice([-1.0, 1.0], size=len(pinned))
        yield e


class TestGhzEnumeration:
    def test_products_match_independent_enumeration(self):
        ours = paradox._GHZ_PRODUCTS
        theirs = brute_force_sign_products()
        assert ours.shape == (64, 4)
        ours_set = {tuple(row) for row in ours}
        theirs_set = {tuple(row) for row in theirs}
        assert ours_set == theirs_set

    def test_row_product_identity_forbids_target(self):
        # The first three chain values multiply to the fourth with a
        # minus sign flipped: v0*v1*v2 == v3 for every assignment, while
        # the target pattern has (-1)^3 != +1.
        products = paradox._GHZ_PRODUCTS
        np.testing.assert_array_equal(
            products[:, 0] * products[:, 1] * products[:, 2], products[:, 3]
        )
        assert not np.any(np.all(products == np.array(GHZ_TARGET), axis=1))


class TestGhzHullClosedForm:
    PRODUCTS = paradox._GHZ_PRODUCTS
    ODD_SIGNS = [s for s in itertools.product((-1.0, 1.0), repeat=4) if math.prod(s) < 0]

    def check_certificate(self, e):
        # The dual puts 1/4 on each row -s_i (x_i - e_i) of the Mermin
        # normal s with the largest s . e: the + row where s_i = -1, else
        # the - row.
        gap, weights = _ghz_hull_residual(e)
        s = max(self.ODD_SIGNS, key=lambda sign: float(np.dot(sign, e)))
        q = np.zeros(8)
        for i, sign in enumerate(s):
            q[i if sign < 0 else 4 + i] = 0.25
        assert weights.shape == (64,)
        upper, lower = certificate_bounds(self.PRODUCTS.T, e, np.ones(4), weights, q)
        assert upper - lower <= 1e-12
        assert gap == pytest.approx(lower, abs=1e-12)
        return gap

    def test_products_are_the_even_sign_vectors(self):
        even = {s for s in itertools.product((-1.0, 1.0), repeat=4) if math.prod(s) > 0}
        assert {tuple(row) for row in self.PRODUCTS} == even

    def test_cube_is_certified_optimal(self):
        gaps = [self.check_certificate(e) for e in cube_points(900, seed=71)]
        assert sum(g > 0.0 for g in gaps) >= 100
        assert sum(g == 0.0 for g in gaps) >= 100

    def test_werner_sweep_is_mermins_bound(self):
        for v in np.linspace(0.0, 1.0, 101):
            gap = self.check_certificate(v * np.array(GHZ_TARGET))
            assert gap == pytest.approx(max(0.0, v - 0.5), abs=1e-12)

    def test_vertex_rows_are_the_first_row_of_each_vertex(self):
        products = paradox._GHZ_PRODUCTS
        assert len(paradox._GHZ_VERTEX_ROWS) == len(paradox._HADAMARD) == 4
        for h, rows in zip(paradox._HADAMARD, paradox._GHZ_VERTEX_ROWS):
            for sign, row in zip((1.0, -1.0), rows):
                equal = np.flatnonzero(np.all(products == sign * h, axis=1))
                assert row == equal[0], (sign * h, row, equal)

    def test_witness_uses_first_assignment_of_each_vertex(self):
        first = {tuple(row): i for i, row in reversed(list(enumerate(self.PRODUCTS)))}
        for e in cube_points(30, seed=72):
            _gap, weights = _ghz_hull_residual(e)
            assert set(np.flatnonzero(weights)) <= set(first.values())

    def test_werner_mixed_state(self):
        for v in (0.0, 0.3, 0.5, 0.51, 0.8, 1.0):
            verdict = ghz_stabilizer_check(werner_mix(ghz_state(3), v))
            assert verdict.violation_gap == pytest.approx(max(0.0, v - 0.5), abs=1e-12)
            assert verdict.satisfying_assignments == 0


class TestGhzStabilizerCheck:
    def test_ghz_state_hits_target_and_is_infeasible(self):
        verdict = ghz_stabilizer_check(ghz_state(3))
        for chain, target in zip(GHZ_CHAINS, GHZ_TARGET):
            assert verdict.per_constraint_values[("ghz", chain)] == pytest.approx(
                target, abs=1e-12
            )
        assert verdict.satisfying_assignments == 0
        assert not verdict.lhv_feasible
        assert verdict.violation_gap == pytest.approx(0.5, abs=1e-9)
        assert verdict.tol == EQ_ATOL

    def test_product_state_is_feasible(self):
        zero = np.zeros(8)
        zero[0] = 1.0
        verdict = ghz_stabilizer_check(StateVector(zero))
        assert verdict.lhv_feasible
        assert verdict.violation_gap <= 1e-10

    def test_gap_shrinks_as_coherence_fades(self):
        # cos(a)|000> + sin(a)|111> interpolates between the maximally
        # violating state and a product state; the hull distance follows.
        state_gaps = []
        for alpha in (math.pi / 4, math.pi / 8, 0.0):
            amps = np.zeros(8)
            amps[0], amps[7] = math.cos(alpha), math.sin(alpha)
            state_gaps.append(ghz_stabilizer_check(StateVector(amps)).violation_gap)
        assert state_gaps[0] > state_gaps[1] > state_gaps[2]
        assert state_gaps[2] <= 1e-10

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            ghz_stabilizer_check(ghz_state(4))

    def test_weights_live_on_simplex(self):
        verdict = ghz_stabilizer_check(ghz_state(3))
        w = np.array(verdict.witness_weights)
        assert w.min() >= -1e-12
        assert w.sum() == pytest.approx(1.0, abs=1e-9)


class TestMinMaxResidual:
    def test_single_component_is_direct(self):
        rows = np.array([[0.2], [-0.4]])
        targets = np.array([1.0, 0.0])
        gap, weights = _min_max_residual(rows, targets)
        assert gap == pytest.approx(0.8, abs=1e-12)
        np.testing.assert_allclose(weights, [1.0])

    def test_two_components_match_exact_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rows = rng.uniform(-1, 1, size=(4, 2))
            targets = rng.uniform(-1, 1, size=4)
            gap, weights = _min_max_residual(rows, targets)
            reference = exact_min_max_k2(rows, targets)
            assert gap == pytest.approx(reference, abs=1e-10)
            p = weights[0]
            achieved = np.max(np.abs(rows @ np.array([p, 1 - p]) - targets))
            assert achieved == pytest.approx(gap, abs=1e-12)

    def test_two_components_beat_dense_grid(self):
        # The exact solver can only improve on any feasible grid point.
        rng = np.random.default_rng(12)
        grid = np.linspace(0.0, 1.0, 10001)
        for _ in range(20):
            rows = rng.uniform(-1, 1, size=(4, 2))
            targets = rng.uniform(-1, 1, size=4)
            gap, _ = _min_max_residual(rows, targets)
            residual = np.abs(
                np.outer(rows[:, 0], grid)
                + np.outer(rows[:, 1], 1 - grid)
                - targets[:, None]
            )
            dense = residual.max(axis=0).min()
            assert gap <= dense + 1e-12
            assert gap == pytest.approx(dense, abs=2e-4)

    def test_three_components_match_exact_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            rows = rng.uniform(-1, 1, size=(4, 3))
            targets = rng.uniform(-1, 1, size=4)
            gap, weights = _min_max_residual(rows, targets)
            reference = exact_min_max_k3(rows, targets)
            assert gap == pytest.approx(reference, abs=1e-7)
            achieved = np.max(np.abs(rows @ weights - targets))
            assert achieved == pytest.approx(gap, abs=1e-8)

    def test_weighted_objective_matches_exact_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rows = rng.uniform(-1, 1, size=(5, 3))
            targets = rng.uniform(-1, 1, size=5)
            weights_obj = rng.uniform(0.5, 3.0, size=5)
            gap, _ = _min_max_residual(rows, targets, weights_obj)
            reference = exact_min_max_k3(rows, targets, weights_obj)
            assert gap == pytest.approx(reference, abs=1e-7)

    def test_exactly_solvable_system_gives_zero(self):
        rng = np.random.default_rng(5)
        for k in (2, 3, 5, 8):
            rows = rng.uniform(-1, 1, size=(4, k))
            p = rng.dirichlet(np.ones(k))
            targets = rows @ p
            gap, weights = _min_max_residual(rows, targets)
            assert gap <= 1e-9
            assert weights.sum() == pytest.approx(1.0, abs=1e-8)

    def test_one_row_meets_its_dual_bound(self):
        cases = list(one_row_cases(300, seed=41))
        assert sum(rows.min() == rows.max() for rows, _t, _w in cases) >= 50
        for rows, targets, weights in cases:
            gap, p = _min_max_residual(rows, targets, weights)
            row, t, w = rows[0], targets[0], weights[0]
            bound = w * max(0.0, row.min() - t, t - row.max())
            assert gap == pytest.approx(bound, abs=1e-12)
            assert p.shape == (rows.shape[1],)
            # The dual puts all of q on the signed row the residual's sign picks.
            q = np.array([1.0, 0.0]) if row @ p >= t else np.array([0.0, 1.0])
            upper, lower = certificate_bounds(rows, targets, weights, p, q)
            assert upper == pytest.approx(gap, abs=1e-12)
            assert upper - lower <= 1e-12

    def test_one_row_is_bit_identical_to_the_breakpoint_scan(self):
        cases = list(oracle_one_row_cases(2400, seed=47))
        assert {rows.shape[1] for rows, _t, _w in cases} == set(range(1, 12))
        assert sum(rows.min() == rows.max() for rows, _t, _w in cases) >= 400
        for rows, targets, weights in cases:
            gap, p = _min_max_residual(rows, targets, weights)
            ref_gap, ref_p = breakpoint_min_max(rows, targets, weights)
            assert type(gap) is float
            assert gap.hex() == ref_gap.hex()
            assert [x.hex() for x in p.tolist()] == [x.hex() for x in ref_p.tolist()]

    @pytest.mark.parametrize(
        "row, target",
        [([0.0, 1e-20], -1.0), ([1e-20, 0.0], 1.0), ([1e-20, 0.0, 5e-21], -1.0)],
    )
    def test_tied_endpoints_keep_the_exact_optimum(self, row, target):
        # Both endpoint residuals round to 1.0 and the kink lies far outside
        # [0, 1], so rounding cannot tell the endpoints apart; the witness
        # must still sit on the entry nearest the target, in exact arithmetic.
        gap, p = _min_max_residual(np.array([row]), np.array([target]))
        assert gap == 1.0
        t = Fraction(target)
        exact = [Fraction(x) for x in row]
        optimum = max(0, min(exact) - t, t - max(exact))
        witness = sum(Fraction(w) * x for w, x in zip(p.tolist(), exact))
        assert abs(witness - t) == optimum

    def test_only_multi_row_programs_reach_the_simplex(self, monkeypatch):
        calls = []
        solve = paradox._mixture_lp

        def counting(*args):
            calls.append(args[0].shape)
            return solve(*args)

        monkeypatch.setattr(paradox, "_mixture_lp", counting)
        rng = np.random.default_rng(49)
        for k in range(1, 9):
            _min_max_residual(rng.uniform(-1, 1, size=(1, k)), rng.uniform(-1, 1, size=1))
        assert calls == []
        shapes = [(m, k) for m in (2, 3, 5) for k in (1, 2, 3, 8)]
        for m, k in shapes:
            _min_max_residual(rng.uniform(-1, 1, size=(m, k)), rng.uniform(-1, 1, size=m))
        assert calls == shapes

    def test_multi_row_is_certified_optimal(self):
        cases = list(multi_row_cases(1200, seed=43))
        gaps = []
        for rows, targets, weights in cases:
            gap, p, q = paradox._mixture_lp(rows, targets, weights)
            assert p.shape == (rows.shape[1],)
            assert q.shape == (2 * rows.shape[0],)
            upper, lower = certificate_bounds(rows, targets, weights, p, q)
            assert upper == gap
            assert upper - lower <= 1e-12 * max(1.0, weights.max())
            gaps.append(gap)
        assert sum(g > 1e-9 for g in gaps) >= 300
        assert sum(g <= 1e-9 for g in gaps) >= 300

    def test_feasible_programs_solve_to_zero(self):
        for rows, targets, weights in feasible_cases(2000, seed=45):
            gap, p = _min_max_residual(rows, targets, weights)
            assert gap <= 1e-12 * max(1.0, weights.max())
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_columns_that_all_meet_the_targets_solve_to_zero(self):
        # Every payoff is 0, so only the simplex's shift keeps its program bounded.
        targets = np.array([0.5, -0.2, 1.0])
        for k in (1, 2, 5):
            gap, p = _min_max_residual(np.repeat(targets[:, None], k, axis=1), targets)
            assert gap == 0.0
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ghz_program_matches_closed_form(self):
        products = paradox._GHZ_PRODUCTS
        for v in np.linspace(0.0, 1.0, 21):
            e = v * np.array(GHZ_TARGET)
            gap, p = _min_max_residual(products.T, e)
            assert gap == pytest.approx(_ghz_hull_residual(e)[0], abs=1e-12)
            assert gap == pytest.approx(max(0.0, v - 0.5), abs=1e-12)
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_rows_three_components_use_the_linear_program(self):
        spec = two_row_three_component_spec()
        verdict = lhv_mixture_test(spec, theoretical_values(spec), tol=1e-9)
        assert verdict.violation_gap == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(verdict.witness_weights, [0.0, 0.5, 0.5], atol=1e-9)

    def test_uniform_dual_certifies_no_positive_gap(self):
        # Under a uniform q each + row cancels its - row, so every column
        # scores 0 and the lower bound is 0: a positive gap stays unproven.
        positive = []
        for rows, targets, weights in multi_row_cases(200, seed=43):
            gap, p, _q = paradox._mixture_lp(rows, targets, weights)
            if gap > 1e-9:
                positive.append((rows, targets, weights, p))
        assert len(positive) >= 20
        for rows, targets, weights, p in positive[:20]:
            q = np.full(2 * len(targets), 1.0 / (2 * len(targets)))
            upper, lower = certificate_bounds(rows, targets, weights, p, q)
            assert lower == pytest.approx(0.0, abs=1e-15)
            assert upper - lower > 1e-12 * max(1.0, weights.max())

    def test_corrupted_pair_leaves_the_two_row_program_unproven(self):
        # The program of two_row_three_component_spec: rows XX and ZZ over
        # components A, B, C, the mixed row M at (-1, -1), gap exactly 1.
        rows = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
        targets, weights = np.array([-1.0, -1.0]), np.ones(2)
        gap, p, q = paradox._mixture_lp(rows, targets, weights)
        assert gap == 1.0
        upper, lower = certificate_bounds(rows, targets, weights, p, q)
        assert upper - lower <= 1e-12
        # All of q on the -XX row: every column scores at most 0.
        minus_xx = np.array([0.0, 0.0, 1.0, 0.0])
        upper, lower = certificate_bounds(rows, targets, weights, p, minus_xx)
        assert upper - lower == pytest.approx(1.0, abs=1e-12)
        # All of p on A: both residuals grow to 2, while q still proves 1.
        upper, lower = certificate_bounds(rows, targets, weights, np.array([1.0, 0.0, 0.0]), q)
        assert upper - lower == pytest.approx(1.0, abs=1e-12)

    def test_no_program_calls_linprog(self, monkeypatch):
        # None in sys.modules makes any import of scipy raise ImportError.
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        spec = two_row_three_component_spec()
        assert lhv_mixture_test(spec, theoretical_values(spec), tol=1e-9).violation_gap == 1.0
        for rows, targets, weights in multi_row_cases(20, seed=44):
            _min_max_residual(rows, targets, weights)
        assert ghz_stabilizer_check(ghz_state(3)).violation_gap == pytest.approx(0.5, abs=1e-12)
        for n in range(3, MAX_QUBITS + 1):
            for z_position in range(n):
                spec = dicke_paradox(n, z_position)
                verdict = lhv_mixture_test(spec, theoretical_values(spec), tol=1e-9)
                assert verdict.violation_gap == (n - 1) / n

    def test_order_of_constraints_irrelevant(self):
        rng = np.random.default_rng(17)
        rows = rng.uniform(-1, 1, size=(5, 3))
        targets = rng.uniform(-1, 1, size=5)
        gap_a, _ = _min_max_residual(rows, targets)
        perm = rng.permutation(5)
        gap_b, _ = _min_max_residual(rows[perm], targets[perm])
        assert gap_a == pytest.approx(gap_b, abs=1e-10)


class TestCoherenceParadox:
    def test_structure(self):
        spec = coherence_paradox(math.pi / 6, "X")
        labels = [c.source_label for c in spec.constraints]
        chains = [c.observable.label for c in spec.constraints]
        assert labels == ["01", "10", "01", "10", "00"]
        assert chains == ["ZZ", "ZZ", "XX", "XX", "XX"]
        assert spec.mixture_claim.mixed_label == "00"
        assert spec.mixture_claim.component_labels == ("01", "10")

    @pytest.mark.parametrize("axis", ["X", "Y"])
    @pytest.mark.parametrize("theta", THETAS)
    def test_expected_values(self, theta, axis):
        spec = coherence_paradox(theta, axis)
        expected = [-1.0, -1.0, 0.0, 0.0, math.sin(2 * theta)]
        actual = [c.expected_value for c in spec.constraints]
        np.testing.assert_allclose(actual, expected, atol=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_violation_gap_is_sin_two_theta(self, theta):
        spec = coherence_paradox(theta, "X")
        verdict = lhv_mixture_test(spec, theoretical_values(spec), tol=1e-10)
        assert not verdict.lhv_feasible
        assert verdict.violation_gap == pytest.approx(math.sin(2 * theta), abs=1e-10)

    def test_y_axis_same_gap(self):
        theta = math.pi / 8
        spec = coherence_paradox(theta, "Y")
        verdict = lhv_mixture_test(spec, theoretical_values(spec), tol=1e-10)
        assert verdict.violation_gap == pytest.approx(math.sin(2 * theta), abs=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            coherence_paradox(0.0, "X")
        with pytest.raises(ValueError):
            coherence_paradox(math.pi / 2, "X")
        with pytest.raises(ValueError):
            coherence_paradox(0.5, "Z")

    def test_feasible_when_mixture_reproduces(self):
        # If the mixed row actually equals a convex combination of the
        # component rows, the verdict must be feasible with zero gap.
        spec = coherence_paradox(math.pi / 4, "X")
        observed = theoretical_values(spec)
        observed[("01", "XX")] = 0.3
        observed[("10", "XX")] = -0.5
        observed[("00", "XX")] = 0.25 * 0.3 + 0.75 * (-0.5)
        verdict = lhv_mixture_test(spec, observed, tol=1e-9)
        assert verdict.lhv_feasible
        assert verdict.violation_gap <= 1e-9
        np.testing.assert_allclose(verdict.witness_weights, [0.25, 0.75], atol=1e-6)


def l1_coherence(matrix: np.ndarray) -> float:
    """``C_l1(rho) = sum_{i != j} |rho_ij|`` (Baumgratz, Cramer & Plenio,
    PRL 113:140401, 2014)."""
    return float(np.abs(matrix[~np.eye(len(matrix), dtype=bool)]).sum())


# Per qubit count, the chains with at least one X or Y factor: each flips a
# bit, so it reads 0 on every diagonal (incoherent) state.
FLIP_CHAINS = {
    n: tuple("".join(c) for c in itertools.product("IXYZ", repeat=n) if set(c) & {"X", "Y"})
    for n in (2, 3)
}


class TestNoiseCurves:
    """Exact verdicts on white-noise sources against their closed forms."""

    @PROPERTY_SETTINGS
    @given(
        theta=st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True),
        v=st.floats(0.0, 1.0),
        lam=st.floats(0.0, 1.0),
        axis=st.sampled_from(["X", "Y"]),
    )
    def test_coherence_paradox_gap_is_v_sin_two_theta(self, theta, v, lam, axis):
        """The gap is ``v (1 - lam) sin 2 theta``, the l1-norm of coherence
        ``C_l1(rho) = sum_{i != j} |rho_ij|`` of the superposition source
        (Baumgratz, Cramer & Plenio, PRL 113:140401, 2014), also with its
        01/10 coherence dephased by ``lam``."""
        spec = coherence_paradox(theta, axis)
        sources = {label: werner_mix(epr_family(theta, label), v) for label in EPR_LABELS}
        rho = sources["00"].matrix.copy()
        rho[0b01, 0b10] *= 1.0 - lam
        rho[0b10, 0b01] *= 1.0 - lam
        sources["00"] = DensityOperator(rho)
        observed = {key: expectation(sources[key[0]], key[1]) for key in spec.observation_keys()}
        gap = lhv_mixture_test(spec, observed, tol=0.0).violation_gap
        assert abs(gap - l1_coherence(rho)) <= 1e-15
        assert abs(gap - v * (1.0 - lam) * math.sin(2.0 * theta)) <= 1e-15

    @PROPERTY_SETTINGS
    @given(
        theta=st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True),
        phi=st.floats(0.0, 2.0 * math.pi),
        v=st.floats(0.0, 1.0),
    )
    def test_phased_source_gaps(self, theta, phi, v):
        """For ``cos theta|01> + e^{i phi} sin theta|10>`` at visibility v,
        the shipped X paradox reads ``v sin 2 theta |cos phi|``, and a spec
        with mixed rows XX and XY reads ``v sin 2 theta max(|cos phi|,
        |sin phi|)``, at least ``C_l1 / sqrt 2``, through ``_mixture_lp``."""
        amps = np.zeros(4, dtype=complex)
        amps[0b01] = math.cos(theta)
        amps[0b10] = cmath.exp(1j * phi) * math.sin(theta)
        sources = {label: werner_mix(epr_family(theta, label), v) for label in ("01", "10")}
        sources["00"] = werner_mix(StateVector(amps), v)
        amplitude = v * math.sin(2.0 * theta)

        def gap(spec):
            keys = spec.observation_keys()
            observed = {key: expectation(sources[key[0]], key[1]) for key in keys}
            return lhv_mixture_test(spec, observed, tol=0.0).violation_gap

        shipped = gap(coherence_paradox(theta, "X"))
        assert abs(shipped - amplitude * abs(math.cos(phi))) <= 1e-15
        # Closed-form expected values, kept inside [-1, 1].
        expected = {
            ("00", "XX"): amplitude * math.cos(phi),
            ("00", "XY"): -amplitude * math.sin(phi),
            ("01", "XX"): 0.0, ("01", "XY"): 0.0, ("10", "XX"): 0.0, ("10", "XY"): 0.0,
        }
        two_row = ParadoxSpec(
            [ParadoxConstraint(label, chain, e) for (label, chain), e in expected.items()],
            MixtureClaim("00", ("01", "10")),
        )
        with mock.patch.object(paradox, "_mixture_lp", wraps=paradox._mixture_lp) as lp:
            phased = gap(two_row)
        assert lp.call_count == 1
        assert abs(phased - amplitude * max(abs(math.cos(phi)), abs(math.sin(phi)))) <= 1e-15
        assert phased >= l1_coherence(sources["00"].matrix) / math.sqrt(2.0) - 1e-15

    @PROPERTY_SETTINGS
    @given(
        num_qubits=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_gap_is_at_most_l1_coherence(self, num_qubits, seed, data):
        """Mixed rows on chains with an X or Y factor, against components at
        0: every such chain reads at most ``C_l1`` on any state, so the gap
        does too."""
        dim = 2**num_qubits
        rank = data.draw(st.integers(1, dim), label="rank")
        chains = data.draw(
            st.lists(st.sampled_from(FLIP_CHAINS[num_qubits]), min_size=1, max_size=dim,
                     unique=True),
            label="chains",
        )
        components = [f"c{i}" for i in range(data.draw(st.integers(1, 3), label="components"))]
        rng = np.random.default_rng(seed)
        factor = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        rho = factor @ factor.conj().T
        rho = DensityOperator(0.5 * (rho + rho.conj().T) / np.trace(rho).real)
        observed = {("m", chain): expectation(rho, chain) for chain in chains}
        observed.update({(label, chain): 0.0 for label in components for chain in chains})
        spec = ParadoxSpec(
            [ParadoxConstraint(lb, ch, min(1.0, max(-1.0, e))) for (lb, ch), e in observed.items()],
            MixtureClaim("m", tuple(components)),
        )
        gap = lhv_mixture_test(spec, observed, tol=0.0).violation_gap
        assert gap <= l1_coherence(rho.matrix) + 1e-15

    @PROPERTY_SETTINGS
    @given(v=st.floats(0.0, 1.0))
    def test_ghz_gap_is_v_minus_one_half(self, v):
        verdict = ghz_stabilizer_check(werner_mix(ghz_state(3), v))
        assert abs(verdict.violation_gap - max(0.0, v - 0.5)) <= 1e-15
        assert verdict.satisfying_assignments == 0


def binned_correlator(table, eta):
    """Correlator of a two-party table after each party's no-click is binned to 0.

    Each party clicks with chance ``eta``; a no-click reads outcome 0, so
    ``R[out, in] = eta [out == in] + (1 - eta) [out == 0]`` on each side.
    """
    channel = eta * np.eye(2) + (1.0 - eta) * np.array([[1.0, 1.0], [0.0, 0.0]])
    sign = np.array([1.0, -1.0])
    return float(sign @ (channel @ table @ channel.T) @ sign)


def binned_chain_value(state, chain, eta):
    """A chain's value with every no-click binned to -1, from its sub-chain values.

    With each party clicking independently with chance ``eta``, the parties
    in ``S`` click with chance ``eta^|S| (1 - eta)^(k - |S|)``; the others
    read -1, so that term is ``(-1)^(k - |S|) <P_S>``, with ``P_S`` the
    sub-chain with I outside ``S``.
    """
    k = len(chain)
    total = 0.0
    for clicked in itertools.product((False, True), repeat=k):
        sub = "".join(ax if c else "I" for ax, c in zip(chain, clicked))
        hits = sum(clicked)
        total += eta**hits * (eta - 1.0) ** (k - hits) * expectation(state, sub)
    return total


# Eberhard's critical efficiency for GHZ with no-clicks binned to -1: the
# Mermin facet breaks when 2 eta^3 + (1 - eta)^3 > 1.
GHZ_BINNED_EFFICIENCY = (math.sqrt(21.0) - 3.0) / 2.0


class TestBinnedNoClickCurves:
    """Exact verdicts on tables whose no-clicks are binned, against closed forms.

    Binning is a local post-processing, the same for every source, so a
    mixture stays a mixture: no fair-sampling assumption is needed.
    """

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.6, 1.0])
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_coherence_paradox_gap_is_eta_squared_v_sin_two_theta(self, eta, theta, axis):
        v = 0.9
        spec = coherence_paradox(theta, axis)
        sources = {label: werner_mix(epr_family(theta, label), v) for label in EPR_LABELS}
        observed = {
            (label, chain): binned_correlator(
                setting_distribution(sources[label], chain[0], chain[1]), eta
            )
            for label, chain in spec.observation_keys()
        }
        gap = lhv_mixture_test(spec, observed, tol=0.0).violation_gap
        assert abs(gap - eta * eta * v * math.sin(2.0 * theta)) <= 1e-15

    @PROPERTY_SETTINGS
    @given(eta=st.floats(0.0, 1.0))
    def test_ghz_values_and_gap(self, eta):
        state = ghz_state(3)
        observed = np.array([binned_chain_value(state, ch, eta) for ch in GHZ_CHAINS])
        want = [eta**3 * t - (1.0 - eta) ** 3 for t in GHZ_TARGET]
        np.testing.assert_allclose(observed, want, rtol=0.0, atol=1e-15)
        gap, _ = _ghz_hull_residual(observed)
        # The facet of the target's own signs: s . x = 4 eta^3 + 2 (1 - eta)^3.
        assert abs(gap - max(0.0, eta**3 + (1.0 - eta) ** 3 / 2.0 - 0.5)) <= 1e-15
        if abs(eta - GHZ_BINNED_EFFICIENCY) > 1e-12:
            assert (gap > 0.0) == (eta > GHZ_BINNED_EFFICIENCY)

    def test_ghz_threshold_by_bisection(self):
        state = ghz_state(3)

        def gap(eta):
            observed = np.array([binned_chain_value(state, ch, eta) for ch in GHZ_CHAINS])
            return _ghz_hull_residual(observed)[0]

        low, high = 0.5, 1.0
        for _ in range(60):
            mid = (low + high) / 2.0
            low, high = (low, mid) if gap(mid) > 0.0 else (mid, high)
        assert abs(high - GHZ_BINNED_EFFICIENCY) <= 1e-12
        assert round(high, 7) == 0.7912878


# Random specs: 1 to 4 components, the mixed source "M" and a source "E"
# outside the claim, over chains of two lengths.
SPEC_CHAINS = ("XX", "ZZ", "XY", "YZ", "ZI", "XXZ")
SPEC_VALUES = st.floats(-1.0, 1.0)


@st.composite
def random_specs(draw):
    components = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True))
    labels = [*components, "M", "E"]
    chains = st.sampled_from(SPEC_CHAINS)
    # Every claim label needs a constraint; then any further rows. A spec
    # refuses a repeated key (TestRepeatedKeys), so only the first of each is kept.
    pairs = [(lb, draw(chains)) for lb in (*components, "M")]
    pairs += draw(st.lists(st.tuples(st.sampled_from(labels), chains), max_size=10))
    pairs = draw(st.permutations(list(dict.fromkeys(pairs))))
    constraints = tuple(ParadoxConstraint(lb, ch, draw(SPEC_VALUES)) for lb, ch in pairs)
    return ParadoxSpec(constraints, MixtureClaim("M", tuple(components)))


@st.composite
def specs_with_observations(draw):
    """A spec, a value for each of its keys, and extra keys in and out of the claim."""
    spec = draw(random_specs())
    observed = {key: draw(SPEC_VALUES) for key in spec.observation_keys()}
    sources = [*spec.mixture_claim.component_labels, "M"]
    if draw(st.booleans()):
        # Complete the claim's table, so that most such cases give rows.
        for chain in dict.fromkeys(c.observable.label for c in spec.constraints):
            for lb in sources:
                observed.setdefault((lb, chain), draw(SPEC_VALUES))
    labels = st.sampled_from([*sources, "E"])
    chains = st.sampled_from(SPEC_CHAINS + ("YY",))  # YY is in no spec
    for key in draw(st.lists(st.tuples(labels, chains), max_size=12)):
        observed.setdefault(key, draw(SPEC_VALUES))
    return spec, observed


def reference_mixture_rows(spec, observed):
    """``_mixture_gap``'s rows by brute force: the full (chain x source) table.

    Every claim source against every spec chain, in the spec's first-use
    order, with None where nothing was observed. A chain whose mixed
    value is observed is a row; it needs every component value. Returns
    ``(rows, targets, used)`` with ``used`` mapping each key in a row to
    its ``(row, column)`` (the target is column ``k``), or raises
    ``KeyError`` naming the first missing component key.
    """
    claim = spec.mixture_claim
    sources = [*claim.component_labels, claim.mixed_label]
    chains = list(dict.fromkeys(c.observable.label for c in spec.constraints))
    table = [[observed.get((lb, ch)) for lb in sources] for ch in chains]
    rows, targets, used = [], [], {}
    for chain, cells in zip(chains, table):
        if cells[-1] is None:
            continue
        for lb, cell in zip(sources, cells):
            if cell is None:
                raise KeyError((lb, chain))
        for col, lb in enumerate(sources):
            used[(lb, chain)] = (len(rows), col)
        rows.append(cells[:-1])
        targets.append(cells[-1])
    return rows, targets, used


def captured_rows(spec, observed):
    """The ``(rows, targets)`` that ``_mixture_gap`` hands to ``_min_max_residual``."""
    with mock.patch.object(
        paradox, "_min_max_residual", wraps=paradox._min_max_residual
    ) as solver:
        paradox._mixture_gap(spec, observed)
    (rows, targets, _scales), _ = solver.call_args
    return rows.tolist(), targets.tolist()


class TestMixtureRowCompleteness:
    """Every observed key is used in a mixture row, imposes no condition, or is refused."""

    @PROPERTY_SETTINGS
    @given(case=specs_with_observations())
    def test_rows_match_the_brute_force_table(self, case):
        spec, observed = case
        try:
            want_rows, want_targets, _ = reference_mixture_rows(spec, observed)
        except KeyError as missing:
            (key,) = missing.args
            with pytest.raises(ValueError, match=re.escape(str(key))):
                paradox._mixture_gap(spec, observed)
            return
        rows, targets = captured_rows(spec, observed)
        assert rows == want_rows
        assert targets == want_targets

    @PROPERTY_SETTINGS
    @given(case=specs_with_observations(), bump=st.floats(0.01, 0.5))
    def test_each_key_is_used_where_expected_or_changes_nothing(self, case, bump):
        spec, observed = case
        try:
            _, _, used = reference_mixture_rows(spec, observed)
        except KeyError:
            return  # refused; the test above checks the refusal
        rows, targets = captured_rows(spec, observed)
        for key, value in observed.items():
            moved = value - bump if value > 0.0 else value + bump
            new_rows, new_targets = captured_rows(spec, {**observed, key: moved})
            if key not in used:
                assert (new_rows, new_targets) == (rows, targets), key
                continue
            row, col = used[key]
            want_rows = [list(r) for r in rows]
            want_targets = list(targets)
            if col == len(spec.mixture_claim.component_labels):
                want_targets[row] = moved
            else:
                want_rows[row][col] = moved
            assert (new_rows, new_targets) == (want_rows, want_targets), key

    @PROPERTY_SETTINGS
    @given(case=specs_with_observations())
    def test_removing_a_component_value_is_refused_by_name(self, case):
        spec, observed = case
        try:
            _, _, used = reference_mixture_rows(spec, observed)
        except KeyError:
            return
        mixed = spec.mixture_claim.mixed_label
        for key in used:
            if key[0] == mixed:
                continue
            rest = {k: v for k, v in observed.items() if k != key}
            with pytest.raises(ValueError, match=re.escape(str(key))):
                lhv_mixture_test(spec, rest, tol=EQ_ATOL)


class TestObservationKeys:
    """A spec forms its constraint keys once; they follow its fields."""

    @staticmethod
    def recomputed(spec):
        return tuple((c.source_label, c.observable.label) for c in spec.constraints)

    @PROPERTY_SETTINGS
    @given(spec=random_specs())
    def test_keys_are_the_constraints_in_order(self, spec):
        assert spec.observation_keys() == self.recomputed(spec)

    @PROPERTY_SETTINGS
    @given(spec=random_specs())
    def test_equal_fields_compare_and_hash_equal(self, spec):
        # Fresh constraints from strings, so no object is shared but the fields agree.
        twin = ParadoxSpec(
            tuple(
                ParadoxConstraint(c.source_label, c.observable.label, c.expected_value)
                for c in spec.constraints
            ),
            MixtureClaim(spec.mixture_claim.mixed_label, spec.mixture_claim.component_labels),
        )
        assert twin == spec
        assert hash(twin) == hash(spec)
        assert twin.observation_keys() == spec.observation_keys()
        assert [f.name for f in dataclasses.fields(ParadoxSpec)] == [
            "constraints",
            "mixture_claim",
        ]

    @PROPERTY_SETTINGS
    @given(spec=random_specs(), other=random_specs())
    def test_round_trip_and_replace_key_their_own_constraints(self, spec, other):
        clone = ParadoxSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.observation_keys() == self.recomputed(spec)
        moved = dataclasses.replace(
            spec, constraints=other.constraints, mixture_claim=other.mixture_claim
        )
        assert moved.observation_keys() == self.recomputed(other)
        if self.recomputed(other) != self.recomputed(spec):
            assert moved.observation_keys() != spec.observation_keys()

    def test_replace_keeps_the_checks(self):
        spec = coherence_paradox(0.4, "X")
        with pytest.raises(ValueError, match="has no constraints"):
            dataclasses.replace(spec, constraints=spec.constraints[:2])


class TestRepeatedKeys:
    """A spec is a table: each (source, chain) key carries one expected value."""

    @PROPERTY_SETTINGS
    @given(spec=random_specs(), data=st.data())
    def test_any_repeat_is_refused_by_name(self, spec, data):
        constraints = list(spec.constraints)
        twin = data.draw(st.sampled_from(constraints))
        at = data.draw(st.integers(0, len(constraints)))
        value = data.draw(SPEC_VALUES)
        constraints.insert(at, ParadoxConstraint(twin.source_label, twin.observable, value))
        key = (twin.source_label, twin.observable.label)
        with pytest.raises(ValueError, match=re.escape(f"spec repeats constraint key {key}")):
            ParadoxSpec(tuple(constraints), spec.mixture_claim)

    def test_from_dict_refuses_a_repeat(self):
        doc = coherence_paradox(math.pi / 8, "X").to_dict()
        doc["constraints"].append({"source": "00", "observable": "XX", "expected": 0.5})
        with pytest.raises(ValueError, match=re.escape("repeats constraint key ('00', 'XX')")):
            ParadoxSpec.from_dict(doc)

    @pytest.mark.parametrize("first, second", [(1.0, 0.0), (0.0, 1.0)])
    def test_two_values_for_one_key_are_refused_in_either_order(self, first, second):
        # Once the exact verdict judged the last value: feasible with gap 0
        # in one order, infeasible with gap 1 in the other.
        xx = ObservableChain(("X", "X"))
        constraints = [
            ParadoxConstraint("00", xx, first),
            ParadoxConstraint("00", xx, second),
            ParadoxConstraint("01", xx, 0.0),
            ParadoxConstraint("10", xx, 0.0),
        ]
        with pytest.raises(ValueError, match=re.escape("repeats constraint key ('00', 'XX')")):
            ParadoxSpec(constraints, MixtureClaim("00", ("01", "10")))


class TestMixtureFeasibilityCompleteness:
    def test_randomized_mixtures_are_recognized(self):
        # Completeness over 100 seeds: every value table generated BY a
        # convex mixture is accepted, and perturbing the mixed row by
        # delta is rejected with a gap within delta of the perturbation.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            rows = rng.uniform(-1, 1, size=(m, k))
            p = rng.dirichlet(np.ones(k))
            mixed = rows @ p
            gap, _ = _min_max_residual(rows, mixed)
            assert gap <= 1e-8
            delta = rng.uniform(0.05, 0.5)
            bumped = mixed.copy()
            bumped[0] = mixed[0] + delta
            gap_bumped, _ = _min_max_residual(rows, bumped)
            assert 0.0 <= gap_bumped <= delta + 1e-8


class TestDickeParadox:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_final_value_advertised(self, n):
        for z_position in range(n):
            spec = dicke_paradox(n, z_position)
            final = spec.constraints[-1]
            assert final.source_label == "0" * n
            assert final.expected_value == pytest.approx((n - 1) / n, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_structure(self, n):
        spec = dicke_paradox(n, 0)
        assert len(spec.constraints) == 2 * n + 1
        z_rows = spec.constraints[:n]
        for con in z_rows:
            assert con.observable.label == "Z" * n
            assert con.expected_value == -1.0
            assert con.source_label.count("1") == 1
        mixed_chain = spec.constraints[-1].observable.label
        assert mixed_chain == "Z" + "X" * (n - 1)
        for con in spec.constraints[n:-1]:
            assert con.observable.label == mixed_chain
            assert con.expected_value == 0.0

    def test_z_position_places_the_z(self):
        spec = dicke_paradox(4, 2)
        assert spec.constraints[-1].observable.label == "XXZX"

    def test_born_rule_reproduces_target_only_at_three(self):
        # The one-excitation state meets the advertised mixed-row value
        # only for n = 3; elsewhere the chain expectation vanishes.
        for n in range(2, 7):
            state = dicke_one_excitation(n)
            chain = ObservableChain(tuple("Z" if i == 0 else "X" for i in range(n)))
            value = expectation(state, chain)
            if n == 3:
                assert value == pytest.approx(2.0 / 3.0, abs=1e-12)
            else:
                assert value == pytest.approx(0.0, abs=1e-12)

    def test_component_rows_are_born_consistent(self):
        n = 3
        spec = dicke_paradox(n, 1)
        for con in spec.constraints[:-1]:
            amps = np.zeros(2**n)
            amps[int(con.source_label, 2)] = 1.0
            value = expectation(StateVector(amps), con.observable)
            assert value == pytest.approx(con.expected_value, abs=1e-12)

    @pytest.mark.parametrize(
        "n, z_position, name",
        [
            (1, 0, "n"),
            (MAX_QUBITS + 1, 0, "n"),
            (3.0, 0, "n"),
            (True, 0, "n"),
            (3, 3, "z_position"),
            (3, -1, "z_position"),
            # A float slot matches no position: read as data, the mixed chain is XXX.
            (3, 0.5, "z_position"),
            (3, 1.0, "z_position"),
            (3, True, "z_position"),
        ],
        ids=repr,
    )
    def test_rejects_bad_arguments(self, n, z_position, name):
        with pytest.raises(ValueError, match=f"^{name}=.* must be an integer in "):
            dicke_paradox(n, z_position)

    def test_numpy_integers_give_the_same_spec(self):
        spec = dicke_paradox(np.int64(3), np.int64(1))
        assert spec == dicke_paradox(3, 1)
        assert spec.to_dict() == dicke_paradox(3, 1).to_dict()
        assert dicke_paradox(np.int32(MAX_QUBITS), np.int8(MAX_QUBITS - 1)) == dicke_paradox(
            MAX_QUBITS, MAX_QUBITS - 1
        )


class TestSpecValidationAndSerialization:
    def test_constraint_range(self):
        chain = ObservableChain(("Z", "Z"))
        with pytest.raises(ValueError):
            ParadoxConstraint("01", chain, 1.5)

    def test_claim_validation(self):
        with pytest.raises(ValueError):
            MixtureClaim("00", ("01", "01"), "dup components")
        with pytest.raises(ValueError):
            MixtureClaim("01", ("01", "10"), "mixed among components")

    def test_spec_requires_claim_labels_in_constraints(self):
        chain = ObservableChain(("Z", "Z"))
        constraints = (ParadoxConstraint("01", chain, -1.0),)
        claim = MixtureClaim("00", ("01", "10"), "note")
        with pytest.raises(ValueError):
            ParadoxSpec(constraints, claim)

    def test_round_trip_json(self):
        spec = coherence_paradox(math.pi / 8, "Y")
        # ``dicke_specs.json`` holds ``to_dict`` documents.
        clone = ParadoxSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.mixture_claim.mixed_label == spec.mixture_claim.mixed_label
        assert [c.source_label for c in clone.constraints] == [
            c.source_label for c in spec.constraints
        ]
        assert [c.observable.label for c in clone.constraints] == [
            c.observable.label for c in spec.constraints
        ]
        np.testing.assert_allclose(
            [c.expected_value for c in clone.constraints],
            [c.expected_value for c in spec.constraints],
        )

    def test_to_dict_schema(self):
        doc = coherence_paradox(math.pi / 8, "X").to_dict()
        assert set(doc) == {"constraints", "mixture_claim"}
        assert set(doc["constraints"][0]) == {"source", "observable", "expected"}
        assert set(doc["mixture_claim"]) == {"mixed", "components", "note"}
        json.dumps(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.clear(), "spec field constraints is missing"),
            (lambda doc: doc.pop("mixture_claim"), "spec field mixture_claim is missing"),
            (lambda doc: doc.update(constraints=5), "spec field constraints must be a list, not 5"),
            (lambda doc: doc.update(constraints=[5]), "spec constraints[0] must be an object, not 5"),
            (
                lambda doc: doc["constraints"][1].pop("source"),
                "spec field constraints[1].source is missing",
            ),
            (
                lambda doc: doc["constraints"][0].update(observable=["X", "X"]),
                "spec field constraints[0].observable must be a string, not ['X', 'X']",
            ),
            (
                lambda doc: doc["constraints"][0].update(observable="Q"),
                "spec field constraints[0].observable: unknown axis 'Q',"
                " expected one of ('X', 'Y', 'Z', 'I')",
            ),
            (
                lambda doc: doc["constraints"][1].update(observable=""),
                "spec field constraints[1].observable: observable chain must have at least one"
                " factor",
            ),
            (
                lambda doc: doc["constraints"][4].update(observable="XX "),
                "spec field constraints[4].observable: unknown axis ' ',"
                " expected one of ('X', 'Y', 'Z', 'I')",
            ),
            (
                lambda doc: doc["constraints"][0].update(expected=None),
                "spec field constraints[0].expected must be a number, not None",
            ),
            (
                lambda doc: doc["constraints"][0].update(expected=True),
                "spec field constraints[0].expected must be a number, not True",
            ),
            (
                lambda doc: doc["constraints"][0].update(expected="0.5"),
                "spec field constraints[0].expected must be a number, not '0.5'",
            ),
            (
                lambda doc: doc["constraints"][2].update(expected=-1.5),
                "spec field constraints[2].expected must lie in [-1, 1], not -1.5",
            ),
            (
                lambda doc: doc["constraints"][0].update(expected=10**400),
                "spec field constraints[0].expected must lie in [-1, 1],"
                " not 100000000000000000...0000000000000000000",
            ),
            (
                lambda doc: doc.update(mixture_claim=[]),
                "spec field mixture_claim must be an object, not []",
            ),
            (
                lambda doc: doc["mixture_claim"].update(mixed=0),
                "spec field mixture_claim.mixed must be a string, not 0",
            ),
            (
                lambda doc: doc["mixture_claim"].update(components="0110"),
                "spec field mixture_claim.components must be a list, not '0110'",
            ),
            (
                lambda doc: doc["mixture_claim"].update(components=["01", ["10"]]),
                "spec field mixture_claim.components must list strings: ['01', ['10']]",
            ),
            (
                lambda doc: doc["mixture_claim"].update(note=None),
                "spec field mixture_claim.note must be a string, not None",
            ),
        ],
        ids=[
            "empty", "no-claim", "constraints-5", "constraint-5", "no-source", "chain-list",
            "chain-Q", "chain-empty", "chain-space",
            "expected-None", "expected-true", "expected-str", "expected-1.5", "expected-1e400",
            "claim-list", "mixed-int",
            "components-str", "component-list", "note-None",
        ],
    )
    def test_from_dict_refuses_a_malformed_field_by_name(self, edit, message):
        # Without the field checks these raise KeyError or TypeError, split
        # "0110" into the labels 0, 1, 1, 0, or read true as the value 1.0.
        doc = coherence_paradox(math.pi / 8, "X").to_dict()
        edit(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ParadoxSpec.from_dict(doc)

    def test_constraint_caps_the_value_it_refuses(self):
        # The value in full would be 401 digits.
        message = "expected value 100000000000000000...0000000000000000000 outside [-1, 1]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ParadoxConstraint("00", "XX", 10**400)

    def test_from_dict_refuses_a_document_that_is_no_object(self):
        with pytest.raises(ValueError, match=r"^spec document must be an object, not \[\]$"):
            ParadoxSpec.from_dict([])

    def test_from_dict_reads_chain_text_as_written(self):
        doc = coherence_paradox(math.pi / 8, "X").to_dict()
        doc["constraints"][-1]["observable"] = " xx "
        with pytest.raises(ValueError, match="unknown axis ' '"):
            ParadoxSpec.from_dict(doc)


class TestVerdictInvariants:
    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            ParadoxVerdict(
                per_constraint_values={},
                violation_gap=-0.1,
                witness_weights=(1.0,),
                tol=1e-10,
            )

    def test_to_dict_is_json_ready(self):
        verdict = ghz_stabilizer_check(ghz_state(3))
        doc = verdict.to_dict()
        json.dumps(doc)
        assert doc["satisfying_assignments"] == 0
        assert doc["lhv_feasible"] is False

    @pytest.mark.parametrize("half", [{"p_value": 0.5}, {"log10_p_value": -0.3}])
    def test_p_value_needs_its_log(self, half):
        with pytest.raises(ValueError, match="together"):
            ParadoxVerdict(
                per_constraint_values={},
                violation_gap=0.1,
                witness_weights=(1.0,),
                tol=1e-10,
                **half,
            )


class TestLhvMixtureTestErrors:
    def test_missing_observation(self):
        spec = coherence_paradox(0.4, "X")
        observed = theoretical_values(spec)
        del observed[("00", "XX")]
        with pytest.raises(ValueError, match="missing"):
            lhv_mixture_test(spec, observed, tol=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "spec, key",
        [
            (coherence_paradox(0.4, "X"), ("00", "XX")),
            (coherence_paradox(0.4, "X"), ("10", "XX")),
            (coherence_paradox(0.4, "X"), ("01", "ZZ")),
            (dicke_paradox(4, 0), ("0000", "ZXXX")),
            (dicke_paradox(4, 0), ("0010", "ZXXX")),
            (two_row_three_component_spec(), ("M", "ZZ")),
            (two_row_three_component_spec(), ("B", "XX")),
        ],
    )
    def test_nonfinite_observation(self, spec, key, bad):
        observed = theoretical_values(spec)
        observed[key] = bad
        with pytest.raises(ValueError, match=f"observation {re.escape(str(key))} is not finite"):
            lhv_mixture_test(spec, observed, tol=1e-10)

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_negative_or_nan_tol(self, tol):
        # NaN fails every comparison, so it would pass a `tol < 0` check.
        spec = coherence_paradox(0.4, "X")
        with pytest.raises(ValueError, match="must be nonnegative"):
            lhv_mixture_test(spec, theoretical_values(spec), tol)

    def test_constraint_order_does_not_change_gap(self):
        spec = coherence_paradox(0.9, "X")
        shuffled = ParadoxSpec(tuple(reversed(spec.constraints)), spec.mixture_claim)
        a = lhv_mixture_test(spec, theoretical_values(spec), tol=1e-10)
        b = lhv_mixture_test(shuffled, theoretical_values(spec), tol=1e-10)
        assert a.violation_gap == pytest.approx(b.violation_gap, abs=1e-12)
