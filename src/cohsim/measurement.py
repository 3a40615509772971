"""Dichotomic Pauli measurements and Born-rule distributions.

Outcome convention: outcome ``0`` corresponds to the ``+1`` eigenvalue of
the measured observable and outcome ``1`` to ``-1``. Measuring the signed
axis ``s M`` (``s = ±1``, ``M`` one of X, Y, Z) gives outcome ``a`` with
the projector ``P_a = (I + (-1)^a s M)/2``, so ``P0 - P1 = s M`` and
``P0 + P1 = I``. Every Born-rule value is therefore a combination of
Pauli-chain expectations, evaluated by ``expectation``. A signed axis
has one spelling, the string that ``parse_signed_axis`` reads (``"X"``,
``"-Y"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .states import EQ_ATOL, MAX_QUBITS, DensityOperator, StateVector

AXES = ("X", "Y", "Z")
CHAIN_AXES = ("X", "Y", "Z", "I")


@dataclass(frozen=True)
class ObservableChain:
    """Tensor product of single-qubit Paulis, e.g. ``("X", "Y", "Y")``.

    ``"I"`` factors are allowed so marginal observables can be written
    as chains too. ``label`` is the chain as one string, e.g. ``"XYY"``,
    joined once at construction (not a field).
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
        object.__setattr__(self, "label", "".join(axes))

    @classmethod
    def from_string(cls, text: str) -> "ObservableChain":
        return cls(tuple(text.strip().upper()))

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
    """Parse ``"X"`` or ``"-X"`` into ``(axis, sign)``.

    Raises:
        ValueError: ``spec`` is not a string, or names no signed axis.
    """
    if not isinstance(spec, str):
        raise ValueError(f"cannot interpret observable {spec!r}")
    text = spec.strip().upper()
    sign = 1
    if text.startswith(("+", "-")):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    if text not in AXES:
        raise ValueError(f"unknown signed axis {spec!r}")
    return text, sign


# (-i)^k for k = number of Y factors mod 4, as exact complex constants.
_Y_PHASE = (1.0 + 0.0j, -1j, -1.0 + 0.0j, 1j)


def _parity_table(n: int) -> np.ndarray:
    """``popcount(i) mod 2`` for ``i < 2^n``, read-only (Thue-Morse doubling)."""
    table = np.zeros(1, dtype=bool)
    for _ in range(n):
        table = np.concatenate((table, ~table))
    table.setflags(write=False)
    return table


# Basis indices and their popcount parities up to MAX_QUBITS, shared
# read-only by every chain action (8 KB and 1 KB).
_INDEX = np.arange(1 << MAX_QUBITS)
_INDEX.setflags(write=False)
_PARITY = _parity_table(MAX_QUBITS)


# Chain actions kept by ``_pauli_action``. A MAX_QUBITS action is 16 KB
# of phase plus 8 KB of perm, so a full cache holds at most 6 MB; the
# n-source family and the GHZ check use fewer than 70 chains.
_ACTION_CACHE_SIZE = 256


@lru_cache(maxsize=_ACTION_CACHE_SIZE)
def _pauli_action(axes: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A Pauli chain as a permutation plus a phase: ``O[i, perm[i]] = phase[i]``.

    This is the binary symplectic form of a Pauli string (Aaronson &
    Gottesman, PRA 70, 052328, 2004): X and Y set bits of a flip mask
    ``f``, Z and Y set bits of a sign mask ``z``, and each Y contributes
    a factor ``-i``. Qubit 0 is the most significant bit (the leftmost
    tensor factor), so ``perm[i] = i ^ f`` and ``phase[i] = (-i)^#Y *
    (-1)^popcount(i & z)``. Returns ``(idx, perm, phase)`` with ``idx =
    arange(2^n)``, a read-only view of a shared table; a diagonal chain
    (Z and I only, ``f = 0``) returns ``perm is idx``, so callers can
    skip the identity gather. Building it takes
    one Python pass over the n axes for the two masks, then O(1) numpy
    gathers over the 2^n entries (the parity of ``i & z`` is looked up
    in a table), and every phase is exactly one of ``±1, ±i``.

    The action is built once per chain and kept, for the last
    ``_ACTION_CACHE_SIZE`` chains used, so every caller shares the same
    arrays: ``perm`` and ``phase`` are read-only like ``idx``.
    """
    flip = z = 0
    for ax in axes:
        flip = flip << 1 | (ax in "XY")
        z = z << 1 | (ax in "YZ")
    idx = _INDEX[: 1 << len(axes)]
    perm = idx
    if flip:
        perm = idx ^ flip
        perm.setflags(write=False)
    base = _Y_PHASE[axes.count("Y") % 4]
    phase = np.where(_PARITY[idx & z], -base, base)
    phase.setflags(write=False)
    return idx, perm, phase


def expectation(state: StateVector | DensityOperator, obs: ObservableChain | str) -> float:
    """Exact expectation value ``tr(O rho)``.

    With the chain's action ``O[i, perm[i]] = phase[i]`` from
    ``_pauli_action``,

    * a vector gives ``<v|O|v> = vdot(v, phase * v[perm])``;
    * a density gives ``tr(O rho) = sum_i phase[i] * rho[perm[i], i]``.

    The action is built on a chain's first use and kept (see
    ``_pauli_action``), so a repeated chain costs only the gathers over
    the 2^n entries, and no ``2^n x 2^n`` operator is built. A diagonal
    chain (``perm is idx``) skips the gather: it reads ``v`` or the
    diagonal of ``rho`` directly, the same elements in the same order.
    The products are exact, so the values equal those of the dense
    tensor-product operator bit for bit, whether the action was built
    for this call or kept from an earlier one.

    Raises:
        ValueError: on qubit-count mismatch or if the value has an
            imaginary part above ``EQ_ATOL`` (cannot happen for valid
            inputs, kept as a numerical guard).
    """
    axes = obs.axes if type(obs) is ObservableChain else as_chain(obs).axes
    n = len(axes)
    if n != state.num_qubits:
        raise ValueError(
            f"observable on {n} qubits does not match state on {state.num_qubits}"
        )
    idx, perm, phase = _pauli_action(axes)
    if isinstance(state, StateVector):
        v = state.amplitudes
        val = complex(np.vdot(v, phase * (v if perm is idx else v[perm])))
    else:
        rho = state.matrix
        # ndarray.sum is np.sum's pairwise reduction without its dispatch.
        val = complex((phase * (rho.diagonal() if perm is idx else rho[perm, idx])).sum())
    if abs(val.imag) > EQ_ATOL:
        raise ValueError(f"expectation value has imaginary part {val.imag}")
    return float(val.real)


def setting_distribution(
    state: StateVector | DensityOperator,
    obs_a: str,
    obs_b: str,
) -> np.ndarray:
    """Born-rule outcome table ``p[a, b]`` for one two-party setting.

    ``obs_a`` and ``obs_b`` are single-qubit signed axes, spelled as
    ``parse_signed_axis`` reads them (``"X"``, ``"-Y"``), measured on
    qubits 0 and 1. With ``P_a = (I + (-1)^a s_a A)/2`` on each side,

    ``p[a, b] = (1 + (-1)^a s_a <A I> + (-1)^b s_b <I B>
    + (-1)^(a+b) s_a s_b <A B>) / 4``, clipped at zero and renormalized.

    Raises:
        ValueError: a state not on 2 qubits, or an axis ``parse_signed_axis`` refuses.
    """
    if state.num_qubits != 2:
        raise ValueError(f"two-party setting needs a 2-qubit state, got {state.num_qubits}")
    ax_a, sg_a = parse_signed_axis(obs_a)
    ax_b, sg_b = parse_signed_axis(obs_b)
    e_a = sg_a * expectation(state, ax_a + "I")
    e_b = sg_b * expectation(state, "I" + ax_b)
    e_ab = sg_a * sg_b * expectation(state, ax_a + ax_b)
    sign = np.array([1.0, -1.0])
    table = (1.0 + sign[:, None] * e_a + sign[None, :] * e_b + np.outer(sign, sign) * e_ab) / 4.0
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
