"""Dichotomic Pauli measurements, Born-rule distributions, correlators.

Outcome convention: outcome ``0`` corresponds to the ``+1`` eigenvalue of
the measured observable and outcome ``1`` to ``-1``, so the dichotomic
operator decomposes as ``M = P0 - P1`` with ``P0 + P1 = I``. Eigenvector
phases are fixed once:

* ``X``: ``|+> = (|0> + |1>)/sqrt(2)``, ``|-> = (|0> - |1>)/sqrt(2)``
* ``Y``: ``|+i> = (|0> + i|1>)/sqrt(2)``, ``|-i> = (|0> - i|1>)/sqrt(2)``
* ``Z``: ``|0>``, ``|1>``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .states import EQ_ATOL, DensityOperator, StateVector, _as_matrix

AXES = ("X", "Y", "Z")
CHAIN_AXES = ("X", "Y", "Z", "I")

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _m in PAULI.values():
    _m.setflags(write=False)

_SQ2 = 1.0 / np.sqrt(2.0)
_EIGVECS = {
    "X": (np.array([_SQ2, _SQ2], dtype=complex), np.array([_SQ2, -_SQ2], dtype=complex)),
    "Y": (np.array([_SQ2, 1j * _SQ2], dtype=complex), np.array([_SQ2, -1j * _SQ2], dtype=complex)),
    "Z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
}


@dataclass(frozen=True)
class ObservableChain:
    """Tensor product of single-qubit Paulis, e.g. ``("X", "Y", "Y")``.

    ``"I"`` factors are allowed so marginal observables can be written
    as chains too.
    """

    axes: tuple[str, ...]

    def __post_init__(self) -> None:
        axes = tuple(self.axes)
        if not axes:
            raise ValueError("observable chain must have at least one factor")
        for ax in axes:
            if ax not in CHAIN_AXES:
                raise ValueError(f"unknown axis {ax!r}, expected one of {CHAIN_AXES}")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def from_string(cls, text: str) -> "ObservableChain":
        return cls(tuple(text.strip().upper()))

    @property
    def label(self) -> str:
        return "".join(self.axes)

    @property
    def num_qubits(self) -> int:
        return len(self.axes)


def as_chain(obs: ObservableChain | str | Iterable[str]) -> ObservableChain:
    """Coerce a chain description (``"XYY"`` or axis sequence) to a chain."""
    if isinstance(obs, ObservableChain):
        return obs
    if isinstance(obs, str):
        return ObservableChain.from_string(obs)
    return ObservableChain(tuple(obs))


def parse_signed_axis(spec: str) -> tuple[str, int]:
    """Parse ``"X"`` or ``"-X"`` into ``(axis, sign)``."""
    text = spec.strip().upper()
    sign = 1
    if text.startswith(("+", "-")):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    if text not in AXES:
        raise ValueError(f"unknown signed axis {spec!r}")
    return text, sign


def projectors(axis: str, sign: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Outcome projectors ``(P0, P1)`` for the signed single-qubit axis.

    ``P0 - P1 == sign * PAULI[axis]``; a negative sign swaps the outcome
    labels.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    plus, minus = _EIGVECS[axis]
    p_plus = np.outer(plus, plus.conj())
    p_minus = np.outer(minus, minus.conj())
    return (p_plus, p_minus) if sign >= 0 else (p_minus, p_plus)


# (-i)^k for k = number of Y factors mod 4, as exact complex constants.
_Y_PHASE = (1.0 + 0.0j, -1j, -1.0 + 0.0j, 1j)


def expectation(state: StateVector | DensityOperator, obs: ObservableChain | str) -> float:
    """Exact expectation value ``tr(O rho)``.

    The chain is applied as a permutation plus a phase (the binary
    symplectic form of a Pauli string): X and Y set bits of a flip mask
    ``f``, Z and Y set bits of a sign mask ``z``, and each Y contributes
    a factor ``-i``. Qubit 0 is the most significant bit, as in
    ``np.kron``. Row ``i`` of the chain then has its one nonzero entry
    ``phase[i] = (-i)^#Y * (-1)^popcount(i & z)`` in column ``i ^ f``,
    so

    * a vector gives ``<v|O|v> = conj(v) @ (phase * v[i ^ f])``;
    * a density gives ``tr(O rho) = sum_i phase[i] * rho[i ^ f, i]``.

    For ``n`` qubits the phase vector takes O(n 2^n) integer operations
    and the contraction O(2^n); memory is O(2^n), and no ``2^n x 2^n``
    operator is built. The products are exact (each phase is one of
    ``±1, ±i``), so the values equal those of the dense Kronecker
    product bit for bit.

    Raises:
        ValueError: on qubit-count mismatch or if the value has an
            imaginary part above ``EQ_ATOL`` (cannot happen for valid
            inputs, kept as a numerical guard).
    """
    chain = as_chain(obs)
    n = chain.num_qubits
    if n != state.num_qubits:
        raise ValueError(
            f"observable on {n} qubits does not match state on {state.num_qubits}"
        )
    idx = np.arange(1 << n)
    flip = 0
    parity = np.zeros_like(idx)  # bit 0 holds popcount(idx & z) mod 2
    for q, ax in enumerate(chain.axes):
        bit = n - 1 - q
        if ax in "XY":
            flip |= 1 << bit
        if ax in "YZ":
            parity ^= idx >> bit
    base = _Y_PHASE[chain.axes.count("Y") % 4]
    phase = np.where(parity & 1, -base, base)
    if isinstance(state, StateVector):
        v = state.amplitudes
        val = complex(np.conj(v) @ (phase * v[idx ^ flip]))
    else:
        val = complex(np.sum(phase * state.matrix[idx ^ flip, idx]))
    if abs(val.imag) > EQ_ATOL:
        raise ValueError(f"expectation value has imaginary part {val.imag}")
    return float(val.real)


_ObsSpec = "ObservableChain | str | tuple[str, int]"


def _signed_single(obs) -> tuple[str, int]:
    """Normalize a single-qubit observable description to (axis, sign)."""
    if isinstance(obs, tuple) and len(obs) == 2 and isinstance(obs[1], int):
        axis, sign = obs
        if axis not in AXES or sign not in (-1, 1):
            raise ValueError(f"bad signed axis {obs!r}")
        return axis, sign
    if isinstance(obs, ObservableChain):
        if obs.num_qubits != 1 or obs.axes[0] == "I":
            raise ValueError(f"need a single-qubit measurement axis, got {obs.label!r}")
        return obs.axes[0], 1
    if isinstance(obs, str):
        return parse_signed_axis(obs)
    raise ValueError(f"cannot interpret observable {obs!r}")


def setting_distribution(
    state: StateVector | DensityOperator,
    obs_a,
    obs_b,
) -> np.ndarray:
    """Born-rule outcome table ``p[a, b]`` for one two-party setting.

    ``obs_a`` and ``obs_b`` are single-qubit signed axes (``"X"``,
    ``"-Y"``, or ``(axis, sign)`` tuples) measured on qubits 0 and 1.
    """
    if state.num_qubits != 2:
        raise ValueError(f"two-party setting needs a 2-qubit state, got {state.num_qubits}")
    rho = _as_matrix(state)
    ax_a, sg_a = _signed_single(obs_a)
    ax_b, sg_b = _signed_single(obs_b)
    pa = projectors(ax_a, sg_a)
    pb = projectors(ax_b, sg_b)
    table = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            table[a, b] = float(np.real(np.trace(np.kron(pa[a], pb[b]) @ rho)))
    table = np.clip(table, 0.0, None)
    total = table.sum()
    if abs(total - 1.0) > EQ_ATOL:
        raise ValueError(f"outcome table sums to {total}, not 1")
    return table / total


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Input-conditional outcome table ``probs[a, b, x, y]``.

    Each input row ``(x, y)`` must be a normalized distribution over the
    four outcome pairs; entries may dip to ``-1e-12`` from rounding and
    are validated, not clipped.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise ValueError(f"probs must have shape (2, 2, 2, 2), got {arr.shape}")
        if float(arr.min()) < -1e-12:
            raise ValueError(f"negative probability {arr.min()}")
        row_sums = arr.sum(axis=(0, 1))
        if float(np.abs(row_sums - 1.0).max()) > EQ_ATOL:
            raise ValueError(f"input rows not normalized: sums {row_sums.ravel()}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def prob(self, a: int, b: int, x: int, y: int) -> float:
        return float(self.probs[a, b, x, y])

    def setting(self, x: int, y: int) -> np.ndarray:
        """The ``p[a, b]`` table for input pair ``(x, y)``."""
        return np.array(self.probs[:, :, x, y])


def outcome_distribution(
    states: Mapping[tuple[int, int], StateVector | DensityOperator],
    obs_a,
    obs_b,
) -> JointDistribution:
    """Assemble the full joint distribution from per-input source states.

    ``states`` must provide a state for every input pair in ``{0,1}^2``.
    ``obs_a`` maps Alice's input ``x`` to her signed measurement axis
    (a plain axis means the same measurement for both inputs), and
    ``obs_b`` does the same for Bob.

    Raises:
        ValueError: if a state for some input pair is missing.
    """
    def per_input(obs, x: int):
        if isinstance(obs, Mapping):
            if x not in obs:
                raise ValueError(f"no observable declared for input {x}")
            return obs[x]
        return obs

    probs = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            if (x, y) not in states:
                raise ValueError(f"no source state for input pair ({x}, {y})")
            probs[:, :, x, y] = setting_distribution(
                states[(x, y)], per_input(obs_a, x), per_input(obs_b, y)
            )
    return JointDistribution(probs)


def correlator(dist: JointDistribution, x: int, y: int) -> float:
    """Two-party correlator ``sum_ab (-1)^(a xor b) P(a, b | x, y)``."""
    table = dist.probs[:, :, x, y]
    return float(table[0, 0] - table[0, 1] - table[1, 0] + table[1, 1])
