"""The XOR coherence game.

Two players receive bits x, y, share one of three labeled sources
selected by the input pair, and win when their outputs satisfy
``a xor b = x xor y``. The input pair (1, 1) addresses no source: both
players output uniform random bits for it. The coherence terms I_ab
quantify how strongly the outcome probabilities depend on the inputs;
input-independent (classical-carrier) distributions have I_ab = 0 and
win with probability 1/2. That is not the bound of an incoherent (0,0)
source: claimed as a mixture of the (0,1) and (1,0) sources, with E_xy
the correlator of source xy, its best p_win is
``1/2 + (max(E_01, E_10) - E_01 - E_10)/8``. The z strategy's 0.625
meets it (gap 0), so it is classical; only the x strategy, with
advantage ``sin(2 theta)/8``, witnesses coherence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import JointDistribution, setting_distribution
from .states import EPR_LABELS, epr_family


@dataclass(frozen=True, eq=False)
class GameEvaluation:
    """Winning probability and coherence terms of one distribution."""

    p_win: float
    i_terms: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.i_terms, dtype=float)
        if arr.shape != (2, 2):
            raise ValueError(f"i_terms must be 2x2, got {arr.shape}")
        if not 0.0 <= self.p_win <= 1.0:
            raise ValueError(f"p_win={self.p_win} outside [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "i_terms", arr)


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
    four coherence terms.
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
    return GameEvaluation(p_win=float(p_win), i_terms=i_terms)


def quantum_strategy(theta: float, obs_a="X", obs_b="X") -> JointDistribution:
    """Joint distribution of the three-source strategy at angle ``theta``.

    Input pair (x, y) addresses ``epr_family`` source ``"xy"``: (0,1) ->
    |01>, (1,0) -> |10>, (0,0) -> the superposition at ``theta``. Both
    parties measure their fixed axis, the setting ``(obs_a, obs_b)``. The
    (1,1) row is uniform random outputs by protocol, not a measurement.

    Raises:
        ValueError: theta outside ``(0, pi/2)`` (from ``epr_family``), or
            a setting that ``setting_distribution`` refuses.
    """
    probs = np.empty((2, 2, 2, 2))
    for label in EPR_LABELS:
        x, y = int(label[0]), int(label[1])
        probs[:, :, x, y] = setting_distribution(epr_family(theta, label), obs_a, obs_b)
    probs[:, :, 1, 1] = 0.25
    return JointDistribution(probs)

