"""Multi-source paradox constructions and the convex-mixture refuter.

A paradox here is a list of expectation-value constraints, each tied to a
labeled source state, together with a mixture claim: the assertion that
one labeled row (the superposition source) should be explainable as a
convex mixture of the component rows. ``lhv_mixture_test`` measures how
badly that assertion fails; a strictly positive ``violation_gap`` means
no mixture weights reproduce the observed values. The minimax is exact:
one mixed row (every shipped family) is solved in closed form, as is the
GHZ stabilizer check, and two or more rows go through a dense-tableau
simplex in numpy (``_mixture_lp``).
"""

from __future__ import annotations

import itertools
import math
import reprlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .measurement import ObservableChain, as_chain, expectation
from .states import EQ_ATOL, MAX_QUBITS, DensityOperator, StateVector, _check_int, _check_theta

GHZ_CHAINS = ("XYY", "YXY", "YYX", "XXX")
GHZ_TARGET = (-1.0, -1.0, -1.0, 1.0)

# Rows h_i of the 4x4 Hadamard matrix: +-h_i are the 8 sign vectors with
# product +1, the only products the GHZ sign assignments reach.
_HADAMARD = np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
)
# The 8 sign vectors with product -1: outward normals of the Mermin facets.
_MERMIN_NORMALS = np.array(
    [s for s in itertools.product((-1.0, 1.0), repeat=4) if math.prod(s) < 0]
)


@dataclass(frozen=True)
class ParadoxConstraint:
    """One row: source label, observable chain, expected value in [-1, 1]."""

    source_label: str
    observable: ObservableChain
    expected_value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "observable", as_chain(self.observable))
        if not -1.0 <= self.expected_value <= 1.0:
            raise ValueError(f"expected value {reprlib.repr(self.expected_value)} outside [-1, 1]")


@dataclass(frozen=True)
class MixtureClaim:
    """Claim that ``mixed_label``'s row is a convex mixture of the components."""

    mixed_label: str
    component_labels: tuple[str, ...]
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "component_labels", tuple(self.component_labels))
        if len(set(self.component_labels)) != len(self.component_labels):
            raise ValueError("component labels must be distinct")
        if self.mixed_label in self.component_labels:
            raise ValueError("mixed label cannot be one of its own components")


@dataclass(frozen=True)
class ParadoxSpec:
    """Constraint list plus mixture claim.

    The ``(source_label, observable_label)`` key of every constraint is
    formed once, at construction, and kept (not a field, so equality,
    hashing and ``dataclasses.replace`` see only the two fields). Each key
    appears once, so a spec maps every key to one expected value.

    Raises:
        ValueError: a repeated key, or a mixed or component label that
            never appears among the constraints.
    """

    constraints: tuple[ParadoxConstraint, ...]
    mixture_claim: MixtureClaim

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.constraints:
            raise ValueError("paradox needs at least one constraint")
        keys = tuple((c.source_label, c.observable.label) for c in self.constraints)
        seen: set[tuple[str, str]] = set()
        for key in keys:
            if key in seen:
                raise ValueError(f"spec repeats constraint key {key}")
            seen.add(key)
        object.__setattr__(self, "_keys", keys)
        labels = {lb for lb, _ in keys}
        claim = self.mixture_claim
        if claim.mixed_label not in labels:
            raise ValueError(f"mixed label {claim.mixed_label!r} has no constraints")
        missing = [lb for lb in claim.component_labels if lb not in labels]
        if missing:
            raise ValueError(f"component labels {missing} have no constraints")

    def observation_keys(self) -> tuple[tuple[str, str], ...]:
        """``(source_label, observable_label)`` of every constraint, in order."""
        return self._keys

    def to_dict(self) -> dict:
        return {
            "constraints": [
                {
                    "source": c.source_label,
                    "observable": c.observable.label,
                    "expected": c.expected_value,
                }
                for c in self.constraints
            ],
            "mixture_claim": {
                "mixed": self.mixture_claim.mixed_label,
                "components": list(self.mixture_claim.component_labels),
                "note": self.mixture_claim.note,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ParadoxSpec":
        """Read a ``to_dict`` document, ``mixture_claim.note`` optional; a field
        missing or of another type (a bool is no number), an ``observable``
        that is no chain or an ``expected`` outside [-1, 1] raises
        ``ValueError`` naming it, as does a spec the constructors refuse."""
        rows = enumerate(_spec_field(doc, "constraints", list))
        constraints = tuple(_spec_row(row, f"constraints[{i}]") for i, row in rows)
        claim = _spec_field(doc, "mixture_claim", dict)
        labels = _spec_field(claim, "mixture_claim.components", list)
        if not all(isinstance(label, str) for label in labels):
            raise ValueError(f"spec field mixture_claim.components must list strings: {labels!r}")
        note = _spec_field(claim, "mixture_claim.note", str) if "note" in claim else ""
        mixed = _spec_field(claim, "mixture_claim.mixed", str)
        return cls(constraints, MixtureClaim(mixed, tuple(labels), note))


_ROW = (("source", str), ("observable", str), ("expected", (int, float)))  # a constraint's fields
_KIND_NAMES = {list: "a list", dict: "an object", str: "a string", (int, float): "a number"}


def _spec_row(row, path: str) -> ParadoxConstraint:
    """Constraint ``path`` of a spec document; each refusal names its field's path."""
    source, observable, expected = (_spec_field(row, f"{path}.{k}", t) for k, t in _ROW)
    try:
        chain = as_chain(observable)
    except ValueError as err:
        raise ValueError(f"spec field {path}.observable: {err}") from None
    if not -1.0 <= expected <= 1.0:
        shown = reprlib.repr(expected)
        raise ValueError(f"spec field {path}.expected must lie in [-1, 1], not {shown}")
    return ParadoxConstraint(source, chain, expected)


def _spec_field(doc, path: str, kind):
    """Field ``path`` of a spec document, ``doc`` being the object that holds
    its last part; ``ValueError`` naming it unless it is a ``kind``, no bool."""
    where, _, key = path.rpartition(".")
    if not isinstance(doc, dict):
        raise ValueError(f"spec {where or 'document'} must be an object, not {doc!r}")
    if key not in doc:
        raise ValueError(f"spec field {path} is missing")
    if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
        raise ValueError(f"spec field {path} must be {_KIND_NAMES[kind]}, not {doc[key]!r}")
    return doc[key]


@dataclass(frozen=True)
class ParadoxVerdict:
    """Result of a mixture-feasibility check.

    ``violation_gap`` is the smallest worst-case residual achievable by
    any weights on the simplex, and ``tol >= 0``. The verdict is derived
    from those two, never stored: ``lhv_feasible`` is exactly
    ``violation_gap <= tol`` (so a zero gap and feasibility coincide).
    ``satisfying_assignments`` is filled only by the stabilizer check,
    where deterministic sign assignments are enumerated exhaustively.
    ``p_value`` and its ``log10_p_value`` are filled, together, only for
    a verdict on counted data (``judge``). ``to_dict`` leaves
    out the two p-value keys when they are None.
    """

    per_constraint_values: dict[tuple[str, str], float]
    violation_gap: float
    witness_weights: tuple[float, ...]
    tol: float
    satisfying_assignments: int | None = None
    p_value: float | None = None
    log10_p_value: float | None = None

    def __post_init__(self) -> None:
        if not self.tol >= 0.0:
            raise ValueError(f"tol={self.tol} must be nonnegative")
        if self.violation_gap < 0.0:
            raise ValueError(f"violation gap {self.violation_gap} is negative")
        if (self.p_value is None) != (self.log10_p_value is None):
            raise ValueError("p_value and log10_p_value must be given together")

    @property
    def lhv_feasible(self) -> bool:
        return self.violation_gap <= self.tol

    def to_dict(self) -> dict:
        doc = {
            "values": {f"{lb}:{ob}": val for (lb, ob), val in self.per_constraint_values.items()},
            "lhv_feasible": self.lhv_feasible,
            "violation_gap": self.violation_gap,
            "witness_weights": list(self.witness_weights),
            "tol": self.tol,
            "satisfying_assignments": self.satisfying_assignments,
        }
        if self.p_value is not None:
            doc.update(p_value=self.p_value, log10_p_value=self.log10_p_value)
        return doc


def _min_max_residual(
    component_values: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Minimize ``max_j weights_j |row_j . p - targets_j|`` over the simplex.

    ``component_values`` has one row per observable and one column per
    mixture component. One row is solved in closed form: the values a
    mixture reaches on it are the interval between two of its entries
    (columns 0 and 1 when there are two, else its smallest and largest),
    and on that pair the weighted residual is the V ``|a p + b|`` in the
    free weight ``p``, least at its kink ``-b / a`` clamped to [0, 1].
    Two or more rows go through the simplex ``_mixture_lp``; no CLI
    command builds such a spec (the GHZ check has its own closed form,
    ``_ghz_hull_residual``). Returns ``(gap, weights_vector)``.
    """
    vals = np.asarray(component_values, dtype=float)
    m, k = vals.shape
    targ = np.asarray(targets, dtype=float)
    w = np.asarray(weights, dtype=float)
    if m > 1:
        return _mixture_lp(vals, targ, w)[:2]
    # Python floats: the same IEEE doubles as numpy scalars, without their
    # call overhead. list.index finds the first extremum, as argmin does.
    row = vals[0].tolist()
    cols = [0, 1] if k == 2 else [row.index(min(row)), row.index(max(row))]
    a = row[cols[0]] - row[cols[1]]
    b = row[cols[1]] - float(targ[0])
    best = 0.0 if a == 0.0 else min(1.0, max(0.0, -b / a))
    p = np.zeros(k)
    # Two adds, not p[cols] = ...: a constant row picks one column twice.
    p[cols[0]] += best
    p[cols[1]] += 1.0 - best
    return float(w[0]) * abs(a * best + b), p


def _mixture_lp(
    vals: np.ndarray, targ: np.ndarray, w: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """``_min_max_residual`` of any program, by a dense-tableau simplex.

    The minimum is the value of the zero-sum game with payoff rows
    ``+-w_j (vals_j - targ_j)``. Shifted so every payoff is at least 1,
    it is the linear program max ``1 . u`` subject to ``M u <= 1``,
    ``u >= 0`` (Dantzig 1951), with ``p = u / sum(u)``; the origin is
    feasible, so there is no phase 1. Bland's rule (lowest-index entering
    column, ratio ties to the lowest basic index) prevents cycling. Ratios
    tie only when equal: a tolerance there picks rows whose ratio is not
    the least and can leave a zero-gap program 1e-5 off. Reduced costs and
    pivots within ``tol`` of zero count as zero. The gap is the worst
    weighted residual at p, so the witness attains it. ``q``, the slack
    part of the final objective row clipped at 0 over its sum, is the row
    player's optimal strategy over the ``2m`` signed payoff rows, and
    ``min_c q . payoff_c <= optimum <= max_j w_j |vals_j . p - targ_j|``.
    Returns ``(gap, p, q)``.

    Raises:
        ArithmeticError: no optimum within the pivot cap.
    """
    payoff = w[:, None] * (vals - targ[:, None])
    payoff = np.vstack([payoff, -payoff])
    rows, k = payoff.shape
    tab = np.zeros((rows + 1, k + rows + 1))
    tab[:rows, :k] = payoff + (1.0 - payoff.min())
    tab[:rows, k:-1] = np.eye(rows)
    tab[:rows, -1] = 1.0
    tab[-1, :k] = -1.0
    basis = np.arange(k, k + rows)
    tol = 1e-12
    for _ in range(10 * tab.size):
        entering = np.flatnonzero(tab[-1, :-1] < -tol)
        if entering.size == 0:
            break
        col = entering[0]
        rising = np.flatnonzero(tab[:-1, col] > tol)
        ratios = tab[rising, -1] / tab[rising, col]
        tied = rising[ratios == ratios.min()]
        row = tied[np.argmin(basis[tied])]
        pivot = tab[row] / tab[row, col]
        tab -= np.outer(tab[:, col], pivot)
        tab[row] = pivot
        basis[row] = col
    else:
        raise ArithmeticError("mixture program unsolved within the pivot cap")
    p = np.zeros(k + rows)
    p[basis] = np.clip(tab[:-1, -1], 0.0, None)
    p = p[:k] / p[:k].sum()
    q = np.clip(tab[-1, k:-1], 0.0, None)
    return float(np.max(w * np.abs(vals @ p - targ))), p, q / q.sum()


# The GHZ sign-assignment products: each of three parties carries signs for
# its X and Y readouts, and row i holds (XYY, YXY, YYX, XXX) under the i-th
# of the 2^6 assignments. Built once at import and shared read-only by every
# stabilizer check with the parsed chains, the count of satisfying
# assignments and _GHZ_VERTEX_ROWS[i] = first rows of (h_i, -h_i).
_GHZ_PRODUCTS = np.array(
    [
        (x1 * y2 * y3, y1 * x2 * y3, y1 * y2 * x3, x1 * x2 * x3)
        for x1, y1, x2, y2, x3, y3 in itertools.product((-1, 1), repeat=6)
    ],
    dtype=float,
)
_GHZ_PRODUCTS.setflags(write=False)
_GHZ_OBSERVABLES = tuple(as_chain(chain) for chain in GHZ_CHAINS)
_GHZ_SATISFYING = int(np.sum(np.all(_GHZ_PRODUCTS == np.array(GHZ_TARGET), axis=1)))
_GHZ_VERTEX_ROWS = tuple(
    tuple(int(np.argmax(np.all(_GHZ_PRODUCTS == sign * h, axis=1))) for sign in (1.0, -1.0))
    for h in _HADAMARD
)


def _ghz_hull_residual(observed: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact ``_min_max_residual(_GHZ_PRODUCTS.T, observed, np.ones(4))``.

    The 64 assignments give only the 8 even vectors of {-1, 1}^4 (product
    +1), which are the rows of the Hadamard matrix H and their negatives.
    Their hull is the cross-polytope ``||H x||_1 <= 4``, cut out by the
    cube ``|x_i| <= 1`` and the 8 Mermin facets ``s . x <= 2``, one for
    each odd sign vector ``s``. For ``observed`` in the cube the
    l-infinity distance to it is ``max(0, max_s (s . e - 2) / 4)``:
    Hoelder's inequality (``||s||_1 = 4``) bounds it from below, and
    ``x = e - gap s*`` lies in the hull, since two odd vectors differ in
    2 or 4 places, so within the cube at most one Mermin facet is
    violated. The witness writes ``x`` through ``alpha = H x / 4``:
    weight ``|alpha_i|`` on ``sign(alpha_i) h_i``, the rest
    ``1 - ||alpha||_1`` split evenly over ``+-h_1``, each weight on the
    first assignment whose product vector is that vertex, looked up in
    ``_GHZ_VERTEX_ROWS``. Returns ``(gap, weights_vector)``.
    """
    scores = _MERMIN_NORMALS @ observed
    best = int(np.argmax(scores))
    gap = max(0.0, (float(scores[best]) - 2.0) / 4.0)
    alpha = _HADAMARD @ (observed - gap * _MERMIN_NORMALS[best]) / 4.0
    rest = max(0.0, 1.0 - float(np.abs(alpha).sum())) / 2.0
    weights = np.zeros(len(_GHZ_PRODUCTS))
    for a, (plus, minus) in zip(alpha.tolist(), _GHZ_VERTEX_ROWS):
        weights[minus if math.copysign(1.0, a) < 0.0 else plus] += abs(a)
    for row in _GHZ_VERTEX_ROWS[0]:
        weights[row] += rest
    return gap, weights


def ghz_stabilizer_check(state: StateVector | DensityOperator) -> ParadoxVerdict:
    """Evaluate the four three-qubit stabilizer chains against sign models.

    Computes the expectations of XYY, YXY, YYX, XXX and reports the
    l-infinity distance between the observed 4-vector and the convex
    hull of the products of the 64 deterministic sign assignments, in
    closed form from Mermin's bound (see ``_ghz_hull_residual``); a
    Werner-mixed GHZ state at visibility v sits ``max(0, v - 1/2)`` from
    it. The assignments are enumerated once, at import: a call only
    reads their count that reproduces the pattern (-1, -1, -1, +1),
    which is 0 (the multiply-the-four-equations contradiction). The
    state is LHV-feasible exactly when that distance is within
    ``EQ_ATOL``.

    Raises:
        ValueError: a state not on 3 qubits.
    """
    if state.num_qubits != 3:
        raise ValueError(f"stabilizer check needs a 3-qubit state, got {state.num_qubits}")
    observed = [expectation(state, chain) for chain in _GHZ_OBSERVABLES]
    gap, weights = _ghz_hull_residual(np.array(observed))
    return ParadoxVerdict(
        per_constraint_values={("ghz", ch): val for ch, val in zip(GHZ_CHAINS, observed)},
        violation_gap=gap,
        witness_weights=tuple(weights.tolist()),
        tol=EQ_ATOL,
        satisfying_assignments=_GHZ_SATISFYING,
    )


def coherence_paradox(theta: float, axis: str = "X") -> ParadoxSpec:
    """Five-constraint paradox for the two-path superposition family.

    The two product sources are perfectly anticorrelated in Z and
    uncorrelated along the transverse ``axis`` (X or Y); the
    superposition source shows an ``axis``-``axis`` correlation of
    ``sin(2 theta)``. The mixture claim says the superposition row
    should be a mixture of the two product rows, which fails by exactly
    ``sin(2 theta)``.

    Raises:
        ValueError: for theta outside (0, pi/2) or an axis other than
            X or Y.
    """
    _check_theta(theta)
    if axis not in ("X", "Y"):
        raise ValueError(f"transverse axis must be X or Y, got {axis!r}")
    zz = as_chain("ZZ")
    aa = as_chain(axis + axis)
    constraints = (
        ParadoxConstraint("01", zz, -1.0),
        ParadoxConstraint("10", zz, -1.0),
        ParadoxConstraint("01", aa, 0.0),
        ParadoxConstraint("10", aa, 0.0),
        ParadoxConstraint("00", aa, math.sin(2.0 * theta)),
    )
    claim = MixtureClaim(
        mixed_label="00",
        component_labels=("01", "10"),
        note="superposition row claimed to be a convex mixture of the product rows",
    )
    return ParadoxSpec(constraints, claim)


def dicke_paradox(n: int, z_position: int) -> ParadoxSpec:
    """Paradox family for the one-excitation superposition of n sources.

    Component sources are the weight-1 basis states, labeled by their
    bit strings; the superposition source carries the all-zeros label.
    Each component has Z-chain value -1 and vanishing mixed-axis chain
    (X on every qubit except a Z at ``z_position``); the final
    constraint advertises the target value (n-1)/n for that chain on
    the superposition. The advertised value is what the construction
    claims; Born-rule measurement on the one-excitation state
    reproduces it only for n = 3 (the chain expectation vanishes for
    every other n), so treat the emitted spec as the object under test
    rather than as a quantum prediction.

    Raises:
        ValueError: for ``n`` not an integer in [2, MAX_QUBITS] or
            ``z_position`` not an integer in [0, n - 1] (a bool or float
            is refused for either).
    """
    n = _check_int("n", n, 2, MAX_QUBITS)
    z_position = _check_int("z_position", z_position, 0, n - 1)
    z_chain = ObservableChain(("Z",) * n)
    mixed_chain = ObservableChain(tuple("Z" if i == z_position else "X" for i in range(n)))
    component_labels = tuple("0" * k + "1" + "0" * (n - 1 - k) for k in range(n))
    mixed_label = "0" * n
    constraints = [ParadoxConstraint(lb, z_chain, -1.0) for lb in component_labels]
    constraints += [ParadoxConstraint(lb, mixed_chain, 0.0) for lb in component_labels]
    constraints.append(ParadoxConstraint(mixed_label, mixed_chain, (n - 1) / n))
    claim = MixtureClaim(
        mixed_label=mixed_label,
        component_labels=component_labels,
        note="one-excitation superposition row claimed to mix the basis-state rows",
    )
    return ParadoxSpec(tuple(constraints), claim)


def _mixture_gap(
    spec: ParadoxSpec,
    observed: Mapping[tuple[str, str], float],
    weight: Mapping[tuple[str, str], float] | None = None,
) -> tuple[float, np.ndarray, int]:
    """Mixture rows of ``observed`` under the claim, through ``_min_max_residual``.

    Each observable with a mixed-row value gives one row (component
    values against that target), its residual scaled by
    ``weight[(mixed_label, observable)]`` when ``weight`` is given.
    Returns ``(gap, weights_vector, number_of_rows)``.

    Raises:
        ValueError: an unobserved constraint or component value, or a
            non-finite observed value.
    """
    keys = spec.observation_keys()
    missing = [key for key in keys if key not in observed]
    if missing:
        raise ValueError(f"missing observations for constraints: {missing}")
    for key, value in observed.items():
        if not math.isfinite(value):
            raise ValueError(f"observation {key} is not finite: {value}")
    claim = spec.mixture_claim
    rows: list[list[float]] = []
    targets: list[float] = []
    scales: list[float] = []
    for chain in dict.fromkeys(ob for _, ob in keys):
        key_mixed = (claim.mixed_label, chain)
        if key_mixed not in observed:
            continue
        row = []
        for lb in claim.component_labels:
            key = (lb, chain)
            if key not in observed:
                raise ValueError(f"mixed-row observable {chain} lacks component value {key}")
            row.append(float(observed[key]))
        rows.append(row)
        targets.append(float(observed[key_mixed]))
        scales.append(1.0 if weight is None else weight[key_mixed])
    gap, weights = _min_max_residual(np.array(rows), np.array(targets), np.array(scales))
    return gap, weights, len(rows)


def lhv_mixture_test(
    spec: ParadoxSpec,
    observed: dict[tuple[str, str], float],
    tol: float,
) -> ParadoxVerdict:
    """Best-mixture feasibility of the observed values under the claim.

    ``observed`` maps ``(source_label, observable_label)`` to a value
    and must cover every constraint in the spec. For each spec
    observable that has an observed mixed-row value, the residual
    between that value and the weighted component values is formed; the
    verdict minimizes the worst residual over the weight simplex.
    Observables without a mixed-row observation impose no condition.

    Raises:
        ValueError: negative or NaN tol, a constraint without an observation,
            a mixed-row observable whose component values are missing,
            or a non-finite observed value.
    """
    gap, weights, _ = _mixture_gap(spec, observed)
    values = {key: float(observed[key]) for key in spec.observation_keys()}
    return ParadoxVerdict(
        per_constraint_values=values,
        violation_gap=gap,
        witness_weights=tuple(weights.tolist()),
        tol=tol,
    )


def theoretical_values(spec: ParadoxSpec) -> dict[tuple[str, str], float]:
    """The spec's own expected values, keyed like ``lhv_mixture_test`` input."""
    return {key: c.expected_value for key, c in zip(spec.observation_keys(), spec.constraints)}
