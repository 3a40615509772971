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

_SQRT_RESIDUAL_TOL = 1e-10


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
        ValueError: if an entry is NaN or infinite, the length is not a
            power of two, the qubit count exceeds ``MAX_QUBITS``, or the
            norm is off by more than ``NORM_ATOL`` or is not finite (as
            when a finite entry's square overflows).
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            amps = amps.reshape(-1)
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


EPR_LABELS = ("01", "10", "00")


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
    amps = np.zeros(4, dtype=complex)
    if label == "01":
        amps[0b01] = 1.0
    elif label == "10":
        amps[0b10] = 1.0
    else:
        if not 0.0 < theta < math.pi / 2:
            raise ValueError(f"theta={theta} must lie strictly inside (0, pi/2)")
        amps[0b01] = math.cos(theta)
        amps[0b10] = math.sin(theta)
    return StateVector(amps)


def ghz_state(n: int) -> StateVector:
    """``(|0...0> + |1...1>)/sqrt(2)`` on ``n >= 2`` qubits."""
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"n={n} must be in [2, {MAX_QUBITS}]")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2)
    return StateVector(amps)


def dicke_one_excitation(n: int) -> StateVector:
    """Equal superposition of the ``n`` one-excitation basis states.

    ``(|10...0> + |010...0> + ... + |0...01>)/sqrt(n)``.
    """
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"n={n} must be in [2, {MAX_QUBITS}]")
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


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Raises:
        ArithmeticError: if the reconstructed root fails the residual
            check ``||S @ S - mat||_F <= 1e-10 * max(1, ||mat||_F)``.
    """
    herm = 0.5 * (mat + mat.conj().T)
    w, u = np.linalg.eigh(herm)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    residual = float(np.linalg.norm(root @ root - herm))
    if residual > _SQRT_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(herm))):
        raise ArithmeticError(f"matrix square root residual {residual} exceeds tolerance")
    return root


def _vector_fidelity(v: np.ndarray, mat: np.ndarray) -> float:
    """``sqrt(<v|mat|v>)`` clipped into ``[0, 1]``, with no check of ``mat``."""
    return min(math.sqrt(max(0.0, float(np.real(np.conj(v) @ mat @ v)))), 1.0)


def fidelity(rho: StateVector | DensityOperator, sigma: StateVector | DensityOperator) -> float:
    """Uhlmann fidelity ``tr sqrt(sqrt(rho) sigma sqrt(rho))``.

    Accepts state vectors or density operators for either argument and
    uses the cheaper pure-state forms when possible: ``|<psi|phi>|`` for
    two vectors and ``sqrt(<psi|rho|psi>)`` when one side is a vector.
    The result is clipped into ``[0, 1]`` (numerical overshoot only).

    Raises:
        ValueError: if the two states act on different qubit counts.
        ArithmeticError: if the matrix square root fails its residual
            check.
    """
    dim_a = rho.dim
    dim_b = sigma.dim
    if dim_a != dim_b:
        raise ValueError(f"dimension mismatch: {dim_a} vs {dim_b}")
    if isinstance(rho, StateVector) and isinstance(sigma, StateVector):
        val = abs(complex(np.vdot(rho.amplitudes, sigma.amplitudes)))
    elif isinstance(rho, StateVector):
        return _vector_fidelity(rho.amplitudes, sigma.matrix)
    elif isinstance(sigma, StateVector):
        return _vector_fidelity(sigma.amplitudes, rho.matrix)
    else:
        root = _sqrtm_psd(rho.matrix)
        inner = root @ sigma.matrix @ root
        w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
        val = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    return min(max(val, 0.0), 1.0)
