"""State preparation and fidelity utilities for few-qubit systems.

Dense vectors and matrices only, kept deliberately small (at most
``MAX_QUBITS`` qubits). Conventions used throughout the package:

* qubit 0 is the leftmost tensor factor, so basis index ``0b01`` on two
  qubits means qubit 0 in ``|0>`` and qubit 1 in ``|1>``;
* state vectors are normalized to unit norm within ``NORM_ATOL``;
* density operators are Hermitian, trace one, and positive semidefinite
  up to ``PSD_SLACK``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 10
NORM_ATOL = 1e-12
EQ_ATOL = 1e-10
PSD_SLACK = 1e-10


def _check_int(name: str, value, low: int, high: int) -> int:
    """The one integer rule of the state layer: an int or numpy integer, no bool,
    within ``[low, high]``, returned as an int."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (is_int and low <= value <= high):
        raise ValueError(f"{name}={value!r} must be an integer in [{low}, {high}]")
    return int(value)


def _num_qubits_from_dim(dim: int, what: str) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    if n < 1:
        raise ValueError(f"{what} must cover at least one qubit")
    if n > MAX_QUBITS:
        raise ValueError(f"{what} covers {n} qubits, limit is {MAX_QUBITS}")
    return n


_NONFINITE = "state entries must be finite (no NaN or infinity)"


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Read-only complex copy; NaN or infinite entries are refused."""
    out = np.array(arr, dtype=complex)
    # count_nonzero costs about half of .all() on these small arrays.
    if np.count_nonzero(np.isfinite(out)) != out.size:
        raise ValueError(_NONFINITE)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of ``num_qubits`` qubits as a dense amplitude vector.

    Amplitudes are indexed big-endian: ``amplitudes[0b01]`` is the
    coefficient of ``|01>`` where qubit 0 reads ``0``.

    Finiteness is checked through the norm: a finite sum of ``|a_i|^2``
    means every ``a_i`` is finite, so the entries are scanned for NaN
    and infinity only when the norm is not finite.

    Raises:
        ValueError: if the amplitudes are not a 1-D array (a matrix or a
            scalar is refused, not flattened), an entry is NaN or infinite,
            the length is not a power of two, the qubit count exceeds
            ``MAX_QUBITS``, or the norm is off by more than ``NORM_ATOL``
            or is not finite (as when a finite entry's square overflows).
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"state vector must be a 1-D array, got shape {amps.shape}")
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not math.isfinite(norm) and np.count_nonzero(np.isfinite(amps)) != amps.size:
            raise ValueError(_NONFINITE)
        _num_qubits_from_dim(amps.size, "state vector")
        # Not `> NORM_ATOL`: finite entries whose products overflow can
        # sum to a NaN norm, which must be refused too.
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state vector norm {norm} is not 1 within {NORM_ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Mixed state of ``num_qubits`` qubits as a dense matrix.

    Raises:
        ValueError: if an entry is NaN or infinite, the matrix is not
            square with power-of-two size, not Hermitian within
            ``NORM_ATOL`` entrywise, its trace is not 1 within
            ``NORM_ATOL``, or its smallest eigenvalue is below
            ``-PSD_SLACK``.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _freeze(np.asarray(self.matrix))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        _num_qubits_from_dim(mat.shape[0], "density matrix")
        if float(np.abs(mat - mat.conj().T).max()) > NORM_ATOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > NORM_ATOL:
            raise ValueError(f"density matrix trace {tr} is not 1 within {NORM_ATOL}")
        lo = float(np.linalg.eigvalsh(mat).min())
        if lo < -PSD_SLACK:
            raise ValueError(f"density matrix has eigenvalue {lo} below -{PSD_SLACK}")
        object.__setattr__(self, "matrix", mat)

    @property
    def num_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _basis_state(label: str) -> StateVector:
    """The computational-basis state ``|label>``, one qubit per bit of ``label``."""
    amps = np.zeros(2 ** len(label), dtype=complex)
    amps[int(label, 2)] = 1.0
    return StateVector(amps)


EPR_LABELS = ("01", "10", "00")
# The superposition angles of the reports: the paradox table, the game and tomography.
DEFAULT_THETAS = (math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 4)


def epr_family(theta: float, label: str) -> StateVector:
    """Two-qubit source states of the two-path interference family.

    ``label`` selects which source the pair of inputs addresses:

    * ``"01"``: the product state ``|01>``;
    * ``"10"``: the product state ``|10>``;
    * ``"00"``: the superposition ``cos(theta)|01> + sin(theta)|10>``,
      with ``theta`` strictly inside ``(0, pi/2)``.

    ``theta`` is ignored for the two product labels.

    Raises:
        ValueError: for an unknown label, or ``label == "00"`` with
            ``theta`` outside the open interval ``(0, pi/2)``.
    """
    if label not in EPR_LABELS:
        raise ValueError(f"unknown source label {label!r}, expected one of {EPR_LABELS}")
    if label != "00":
        return _basis_state(label)
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta={theta} must lie strictly inside (0, pi/2)")
    amps = np.zeros(4, dtype=complex)
    amps[0b01] = math.cos(theta)
    amps[0b10] = math.sin(theta)
    return StateVector(amps)


def ghz_state(n: int) -> StateVector:
    """``(|0...0> + |1...1>)/sqrt(2)`` on ``n >= 2`` qubits.

    Raises:
        ValueError: if ``n`` is not an integer (a bool or float is refused)
            in ``[2, MAX_QUBITS]``.
    """
    n = _check_int("n", n, 2, MAX_QUBITS)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2)
    return StateVector(amps)


def dicke_one_excitation(n: int) -> StateVector:
    """Equal superposition of the ``n`` one-excitation basis states.

    ``(|10...0> + |010...0> + ... + |0...01>)/sqrt(n)``.

    Raises:
        ValueError: if ``n`` is not an integer (a bool or float is refused)
            in ``[2, MAX_QUBITS]``.
    """
    n = _check_int("n", n, 2, MAX_QUBITS)
    amps = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amps[1 << (n - 1 - k)] = 1.0 / math.sqrt(n)
    return StateVector(amps)


def density_from_state(psi: StateVector) -> DensityOperator:
    """Rank-one projector ``|psi><psi|``."""
    v = psi.amplitudes
    return DensityOperator(np.outer(v, v.conj()))


def werner_mix(psi: StateVector | DensityOperator, v: float) -> DensityOperator:
    """White-noise mixture ``v * rho + (1 - v) * I / dim``.

    ``v`` is the visibility in ``[0, 1]``; ``v = 1`` returns the input
    state unchanged (as a density operator).
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility v={v} must lie in [0, 1]")
    if isinstance(psi, StateVector):
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    else:
        rho = psi.matrix
    dim = rho.shape[0]
    return DensityOperator(v * rho + (1.0 - v) * np.eye(dim) / dim)


def _vector_fidelity(v: np.ndarray, mat: np.ndarray) -> float:
    """``sqrt(<v|mat|v>)`` clipped into ``[0, 1]``, with no check of ``mat``."""
    return min(math.sqrt(max(0.0, float(np.real(np.conj(v) @ mat @ v)))), 1.0)


def fidelity(rho: StateVector | DensityOperator, sigma: StateVector | DensityOperator) -> float:
    """Fidelity against a pure state: ``|<psi|phi>|`` for two vectors and
    ``sqrt(<psi|rho|psi>)`` with the vector on either side, clipped into
    ``[0, 1]`` (numerical overshoot only).

    Raises:
        ValueError: if the two states act on different qubit counts, or
            neither is a ``StateVector``.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    if isinstance(rho, StateVector) and isinstance(sigma, StateVector):
        return min(abs(complex(np.vdot(rho.amplitudes, sigma.amplitudes))), 1.0)
    if isinstance(rho, StateVector):
        return _vector_fidelity(rho.amplitudes, sigma.matrix)
    if isinstance(sigma, StateVector):
        return _vector_fidelity(sigma.amplitudes, rho.matrix)
    raise ValueError("fidelity needs a pure state on one side")
