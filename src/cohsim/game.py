"""The XOR coherence game.

Two players receive bits x, y, share one of three labeled sources
selected by the input pair, and win when their outputs satisfy
``a xor b = x xor y``. The input pair (1, 1) addresses no source: both
players output uniform random bits for it. The coherence terms I_ab
quantify how strongly the outcome probabilities depend on the inputs;
input-independent (classical-carrier) distributions have I_ab = 0 and
win with probability 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import JointDistribution, setting_distribution
from .states import epr_family

IDENTITY_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class GameEvaluation:
    """Winning probability and coherence terms of one distribution.

    ``identity_holds`` records whether
    ``p_win = 1/2 + (I_00 + I_11)/4`` held within ``IDENTITY_ATOL``;
    the relation is an algebraic consequence of row normalization, so a
    False value indicates numerical corruption rather than physics.
    """

    p_win: float
    i_terms: np.ndarray
    identity_holds: bool

    def __post_init__(self) -> None:
        arr = np.array(self.i_terms, dtype=float)
        if arr.shape != (2, 2):
            raise ValueError(f"i_terms must be 2x2, got {arr.shape}")
        if not 0.0 <= self.p_win <= 1.0:
            raise ValueError(f"p_win={self.p_win} outside [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "i_terms", arr)

    def to_dict(self) -> dict:
        return {
            "p_win": self.p_win,
            "i_terms": {
                f"{a}{b}": float(self.i_terms[a, b]) for a in range(2) for b in range(2)
            },
            "identity_holds": self.identity_holds,
        }


def coherence_term(dist: JointDistribution, a: int, b: int) -> float:
    """``I_ab = sum_xy (-1)^(x xor y) P(a, b | x, y)``."""
    total = 0.0
    for x in range(2):
        for y in range(2):
            total += (-1.0) ** (x ^ y) * dist.prob(a, b, x, y)
    return total


def winning_probability(dist: JointDistribution) -> GameEvaluation:
    """Score a distribution against the winning rule ``a xor b = x xor y``.

    Each input pair is weighted 1/4. The returned evaluation carries all
    four coherence terms and checks the normalization identity
    ``p_win = 1/2 + (I_00 + I_11)/4``.
    """
    p_win = 0.0
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) == (x ^ y):
                        p_win += 0.25 * dist.prob(a, b, x, y)
    i_terms = np.array(
        [[coherence_term(dist, a, b) for b in range(2)] for a in range(2)]
    )
    identity = bool(
        abs(p_win - 0.5 - (i_terms[0, 0] + i_terms[1, 1]) / 4.0) <= IDENTITY_ATOL
    )
    return GameEvaluation(
        p_win=float(p_win),
        i_terms=i_terms,
        identity_holds=identity,
    )


def quantum_strategy(theta: float, obs_a="X", obs_b="X") -> JointDistribution:
    """Joint distribution of the three-source strategy at angle ``theta``.

    Sources per input pair: (0,1) -> |01>, (1,0) -> |10>, and (0,0) ->
    the superposition at ``theta``; both parties measure their fixed
    signed axis (``"X"``, ``"-X"``, ``"Z"``, ...; a leading minus swaps
    that party's outcome labels). The (1,1) row is uniform random
    outputs by protocol, not a measurement.

    Raises:
        ValueError: invalid theta or axis description.
    """
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta={theta} must lie strictly inside (0, pi/2)")
    sources = {
        (0, 0): epr_family(theta, "00"),
        (0, 1): epr_family(theta, "01"),
        (1, 0): epr_family(theta, "10"),
    }
    probs = np.empty((2, 2, 2, 2))
    for (x, y), state in sources.items():
        probs[:, :, x, y] = setting_distribution(state, obs_a, obs_b)
    probs[:, :, 1, 1] = 0.25
    return JointDistribution(probs)

