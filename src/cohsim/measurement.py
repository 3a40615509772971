"""Dichotomic Pauli measurements and Born-rule distributions.

Outcome convention: outcome ``0`` corresponds to the ``+1`` eigenvalue of
the measured observable and outcome ``1`` to ``-1``. Measuring the axis
``M`` (one of ``AXES``) gives outcome ``a`` with the projector
``P_a = (I + (-1)^a M)/2``, so ``P0 - P1 = M`` and ``P0 + P1 = I``. Every
Born-rule value is therefore a combination of Pauli-chain expectations,
evaluated by ``expectation``. A two-party setting is the axis pair
``(u, v)`` that ``_check_setting`` accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .states import EQ_ATOL, DensityOperator, StateVector

AXES = ("X", "Y", "Z")
CHAIN_AXES = AXES + ("I",)


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


def as_chain(obs: ObservableChain | str | Iterable[str]) -> ObservableChain:
    """Coerce a chain description (``"XYY"`` or axis sequence) to a chain;
    a string is its letters as written, so ``"xyy"`` or ``" XYY"`` is refused."""
    if isinstance(obs, ObservableChain):
        return obs
    return ObservableChain(tuple(obs))


def _check_setting(setting) -> tuple[str, str]:
    """The one setting check: exactly a 2-tuple ``(u, v)`` of axes from
    ``AXES``, so a string such as ``"XZ"``, a list or a longer tuple is refused."""
    pair = isinstance(setting, tuple) and len(setting) == 2
    if not (pair and all(ax in AXES for ax in setting)):
        raise ValueError(
            f"setting {setting!r} is not an axis pair: it must be a tuple (u, v)"
            f" with each setting axis one of {AXES}"
        )
    return setting


# (-i)^k for k = number of Y factors mod 4, as exact complex constants.
_Y_PHASE = (1.0 + 0.0j, -1j, -1.0 + 0.0j, 1j)


# Chain actions kept by ``_pauli_action``. A MAX_QUBITS action is 16 KB
# of phase plus 8 KB each of idx and perm, so a full cache holds at most
# 8 MB; the n-source family and the GHZ check use fewer than 70 chains.
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
    arange(2^n)``; a diagonal chain (Z and I only, ``f = 0``) returns
    ``perm is idx``, so callers can skip the identity gather. Building it
    takes one Python pass over the n axes, which doubles the parity of
    ``i & z`` from the last qubit up (Thue-Morse style, negated at each Y
    or Z factor): n small numpy concatenations, O(2^n) work in all
    (about 6 us at n = 2 and 18 us at n = 10 on one Xeon core). Every
    phase is exactly one of ``±1, ±i``.

    The action is built once per chain and kept, for the last
    ``_ACTION_CACHE_SIZE`` chains used, so every caller shares the same
    arrays: ``idx``, ``perm`` and ``phase`` are read-only.
    """
    flip = 0
    odd = np.zeros(1, dtype=bool)  # odd[i] = popcount(i & z) mod 2
    for bit, ax in enumerate(reversed(axes)):
        flip |= (ax in "XY") << bit
        odd = np.concatenate((odd, ~odd if ax in "YZ" else odd))
    idx = np.arange(1 << len(axes))
    idx.setflags(write=False)
    perm = idx
    if flip:
        perm = idx ^ flip
        perm.setflags(write=False)
    base = _Y_PHASE[axes.count("Y") % 4]
    phase = np.where(odd, -base, base)
    phase.setflags(write=False)
    return idx, perm, phase


def expectation(state: StateVector | DensityOperator, obs: ObservableChain | str) -> float:
    """Exact expectation value ``tr(O rho)``.

    With the chain's action ``O[i, perm[i]] = phase[i]`` from
    ``_pauli_action``,

    * a vector gives ``<v|O|v> = vdot(v, phase * v[perm])``;
    * a density gives ``tr(O rho) = sum_i phase[i] * rho[perm[i], i]``.

    The action is built from the chain alone on its first use (see
    ``_pauli_action`` for the cost) and kept, so a repeated chain costs
    only the gathers over the 2^n entries, and no ``2^n x 2^n`` operator
    is built. A diagonal chain (``perm is idx``) skips the gather: it
    reads ``v`` or the diagonal of ``rho`` directly, the same elements in
    the same order. The products are exact, so the values equal those of
    the dense tensor-product operator bit for bit, whether the action was
    built for this call or kept from an earlier one.

    Raises:
        ValueError: on qubit-count mismatch or if the value has an
            imaginary part above ``EQ_ATOL``. A pure state cannot give
            one; a density can, as it is Hermitian only within
            ``NORM_ATOL`` per entry, and at 8 or more qubits those
            entries can add up beyond ``EQ_ATOL``.
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

    ``obs_a`` and ``obs_b`` are the axes of the setting ``(obs_a, obs_b)``,
    measured on qubits 0 and 1. With ``P_a = (I + (-1)^a A)/2`` on each side,

    ``p[a, b] = (1 + (-1)^a <A I> + (-1)^b <I B> + (-1)^(a+b) <A B>) / 4``,
    clipped at zero and renormalized.

    Raises:
        ValueError: a state not on 2 qubits, or a setting ``_check_setting`` refuses.
    """
    _check_setting((obs_a, obs_b))
    if state.num_qubits != 2:
        raise ValueError(f"two-party setting needs a 2-qubit state, got {state.num_qubits}")
    e_a = expectation(state, obs_a + "I")
    e_b = expectation(state, "I" + obs_b)
    e_ab = expectation(state, obs_a + obs_b)
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
