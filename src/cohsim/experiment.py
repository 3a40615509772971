"""Synthetic two-party coincidence experiment.

Counting model: a ``CountTable`` holds one measurement setting (an
axis pair), and several settings are a mapping of tables. For one
setting, each trial assigns every outcome cell (a, b) an independent
Poisson draw with mean ``pair_rate * efficiency * duration * P(a, b)``,
with the outcome probabilities taken from the Born rule after mixing
the source state with white noise at the configured visibility.
Correlators are estimated from pooled counts; error bars come from a
parametric bootstrap (re-drawing each cell from a Poisson at its
observed mean); evidence against the best convex-mixture model is
summarized by a Hoeffding tail bound optimized over the mixture weights.

Every random quantity draws from its own RNG stream (``_stream``) keyed
by the seed, the table's stream tag, the setting, and the trial or
replicate domain, so results are bit-reproducible and independent of
evaluation order. Both bootstraps redraw through ``_poisson_bootstrap``.

Every data file is a CSV written by ``_write_csv``: the count tables
and fringe scans here, and the row tables and density matrices of the
``reports`` and ``tomography`` modules. Floats are written as their
``repr``, so each reads back exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .measurement import AXES, expectation, setting_distribution
from .paradox import ParadoxSpec, _mixture_gap
from .states import DensityOperator, StateVector, werner_mix

AXIS_CODE = {"X": 0, "Y": 1, "Z": 2}
CLASSICAL_VISIBILITY_BOUND = 0.71

# Stream-domain constants keep bootstrap and scan draws on RNG streams
# that can never coincide with a per-trial count stream.
_BOOT_DOMAIN = 811
_SCAN_DOMAIN = 101
_TOMO_DOMAIN = 907

_MIN_POSITIVE = 5e-324  # smallest positive float, used to keep p-values nonzero
_COUNT_COLUMNS = ("u", "v", "a", "b", "trial", "count")  # CountTable CSV header


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the synthetic experiment.

    ``visibility_v`` mixes the source with white noise before
    measurement; ``efficiency`` scales the detected rate (fair sampling,
    no loophole modeling). ``seed`` roots every RNG stream.
    """

    pair_rate: float = 0.34e6
    duration_per_setting: float = 100.0
    num_trials: int = 10
    visibility_v: float = 1.0
    efficiency: float = 0.60
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("pair_rate", "duration_per_setting"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name}={value} must be positive and finite")
        if int(self.num_trials) != self.num_trials or self.num_trials < 1:
            raise ValueError(f"num_trials={self.num_trials} must be a positive integer")
        if not 0.0 <= self.visibility_v <= 1.0:
            raise ValueError(f"visibility_v={self.visibility_v} must lie in [0, 1]")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency={self.efficiency} must lie in (0, 1]")
        if int(self.seed) != self.seed or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed={self.seed} must be an unsigned 64-bit integer")
        object.__setattr__(self, "num_trials", int(self.num_trials))
        object.__setattr__(self, "seed", int(self.seed))
        # Poisson draws at this mean stay far below 2**53, so counts are
        # exact as floats (bootstrap, tomography) and never wrap an int64.
        pooled_mean = self.mean_per_trial * self.num_trials
        if pooled_mean > 2.0**50:
            raise ValueError(
                f"expected pooled count per setting {pooled_mean:.3g} exceeds 2**50"
                " (pair_rate * efficiency * duration_per_setting * num_trials)"
            )

    @property
    def mean_per_trial(self) -> float:
        """Expected detected coincidences per trial per setting."""
        return self.pair_rate * self.efficiency * self.duration_per_setting

    def to_dict(self) -> dict:
        return asdict(self)

    def replace(self, **changes) -> "ExperimentConfig":
        merged = {**asdict(self), **changes}
        return ExperimentConfig(**merged)

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        """Load ``key = value`` lines; ``#`` starts a comment.

        Keyword overrides (CLI flags) win over file values.

        Raises:
            ValueError: unknown key, or unparsable value (named with the file).
        """
        parsers = {f.name: type(f.default) for f in fields(cls)}
        values: dict = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {raw!r} is not 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in parsers:
                raise ValueError(f"unknown config key {key!r}")
            try:
                values[key] = parsers[key](text)
            except ValueError:
                kind = parsers[key].__name__
                raise ValueError(f"config {path}: {key} = {text!r} is not a {kind}") from None
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


def _cell(value) -> str:
    # repr(float(x)): numpy 2 reprs np.float64(0.5) as "np.float64(0.5)".
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def _write_csv(path: str | Path, header, rows) -> None:
    """The one CSV format of every data file: the header row, then each
    row with floats as ``repr`` (so they read back exactly) and None as
    an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


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


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of one draw: seeded by ``(seed, *key)`` and nothing else."""
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


def _cell_correlator(cells: np.ndarray) -> np.ndarray:
    """``(N00 - N01 - N10 + N11) / N`` of each ``(..., 2, 2)`` table of counts."""
    signed = cells[..., 0, 0] - cells[..., 0, 1] - cells[..., 1, 0] + cells[..., 1, 1]
    return signed / cells.sum(axis=(-2, -1))


def _poisson_bootstrap(pooled: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Poisson redraws of pooled ``(..., 2, 2)`` cells, replicate-major.

    A replicate in which some 2x2 table sums to zero has no correlator
    and is left out.

    Raises:
        ValueError: fewer than two replicates are left.
    """
    draws = rng.poisson(pooled, size=(count,) + pooled.shape)
    kept = draws[(draws.sum(axis=(-2, -1)) > 0).reshape(count, -1).all(axis=1)]
    if len(kept) < 2:
        raise ValueError(
            f"only {len(kept)} of {count} bootstrap replicates"
            " have a nonzero total in every setting"
        )
    return kept


def _check_bootstrap_count(num_bootstrap: int, allow_none: bool = False) -> None:
    """A standard error needs two or more replicates; with ``allow_none``,
    0 (no bootstrap at all) passes too."""
    if num_bootstrap < 2 and not (allow_none and num_bootstrap == 0):
        none = " (or 0 for no bootstrap)" if allow_none else ""
        raise ValueError(
            f"num_bootstrap={num_bootstrap}: a standard error needs at least 2 replicates{none}"
        )


@dataclass(frozen=True, eq=False)
class CountTable:
    """Per-trial coincidence counts for one setting.

    ``setting`` is the axis pair ``(u, v)`` and ``counts`` a read-only
    int64 array of shape ``(num_trials, 2, 2)`` indexed by (trial, a, b).
    Several settings are a mapping of tables. The config snapshot and
    the stream tag pin down exactly which RNG streams produced the data,
    so bootstrap draws can be derived without clashing with them.
    """

    setting: tuple[str, str]
    counts: np.ndarray
    config: ExperimentConfig
    stream_tag: int = 0

    def __post_init__(self) -> None:
        if self.stream_tag < 0:
            raise ValueError("stream_tag must be nonnegative")
        u, v = _check_setting(self.setting)
        try:
            with np.errstate(invalid="ignore"):
                data = np.array(self.counts, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            data = None
        if data is None or not np.array_equal(data, self.counts):
            raise ValueError(f"counts for ({u},{v}) must be whole numbers within int64")
        if data.ndim != 3 or data.shape[1:] != (2, 2):
            raise ValueError(f"counts for ({u},{v}) must have shape (trials, 2, 2)")
        if data.shape[0] != self.config.num_trials:
            raise ValueError(
                f"counts for ({u},{v}) have {data.shape[0]} trials, "
                f"config says {self.config.num_trials}"
            )
        if int(data.min(initial=0)) < 0:
            raise ValueError(f"negative count in setting ({u},{v})")
        # A float sum, as an int64 one can itself wrap.
        if data.sum(dtype=float) > 2.0**53:
            raise ValueError(f"setting ({u},{v}) totals more than 2**53 counts")
        data.setflags(write=False)
        object.__setattr__(self, "counts", data)

    def pooled(self, u: str, v: str) -> np.ndarray:
        """Counts of setting ``(u, v)`` summed over trials, shape (2, 2).

        Raises:
            KeyError: ``(u, v)`` is not this table's setting.
        """
        if (u, v) != self.setting:
            raise KeyError(f"no counts for setting ({u},{v})")
        return self.counts.sum(axis=0)

    def to_csv(self, path: str | Path) -> None:
        """Write rows ``u,v,a,b,trial,count`` (one per cell per trial)."""
        u, v = self.setting
        cells = np.ndenumerate(self.counts)
        _write_csv(path, _COUNT_COLUMNS, ([u, v, a, b, t, n] for (t, a, b), n in cells))

    @classmethod
    def from_csv(
        cls, path: str | Path, config: ExperimentConfig, stream_tag: int = 0
    ) -> "CountTable":
        """Read the rows of one setting written by ``to_csv``.

        Raises:
            ValueError: a missing column, a short or long row, a
                ``trial``, ``a``, ``b`` or ``count`` cell not an integer,
                rows of more than one setting, a ``(trial, a, b)`` cell given
                twice, or not exactly the 4 cells of each trial ``0..T-1``,
                where T is ``config.num_trials``.
        """
        setting = None
        cells: dict[tuple[int, int, int], int] = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [col for col in _COUNT_COLUMNS if col not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"count file {path} lacks columns {', '.join(missing)}")
            for row in reader:
                if None in row.values():
                    raise ValueError(f"count file {path} line {reader.line_num} is incomplete")
                if None in row:  # DictReader files surplus fields under the key None
                    raise ValueError(f"count file {path} line {reader.line_num} has extra fields")
                found = (row["u"], row["v"])
                if setting not in (None, found):
                    raise ValueError(f"count file holds settings {setting} and {found}")
                setting = found
                ints = {}
                for col in ("trial", "a", "b", "count"):
                    try:
                        ints[col] = int(row[col])
                    except ValueError:
                        where = f"count file {path} line {reader.line_num} column {col}"
                        raise ValueError(f"{where} is not an integer: {row[col]!r}") from None
                cell = (ints["trial"], ints["a"], ints["b"])
                if cell in cells:
                    raise ValueError(f"setting {setting} repeats cell (trial, a, b) = {cell}")
                cells[cell] = ints["count"]
        grid = [(t, a, b) for t in range(config.num_trials) for a in range(2) for b in range(2)]
        if set(cells) != set(grid):
            raise ValueError(
                f"setting {setting} needs the 4 cells of each trial 0..{config.num_trials - 1};"
                f" missing {sorted(set(grid) - set(cells))},"
                f" unexpected {sorted(set(cells) - set(grid))}"
            )
        counts = np.array([cells[cell] for cell in grid]).reshape(-1, 2, 2)
        return cls(setting, counts, config, stream_tag)


@dataclass(frozen=True)
class EstimatedCorrelator:
    """Point estimate with bootstrap standard error and sample size."""

    value: float
    std_err: float
    n_total: int

    def __post_init__(self) -> None:
        if not -1.0 <= self.value <= 1.0:
            raise ValueError(f"correlator {self.value} outside [-1, 1]")
        if self.std_err < 0.0:
            raise ValueError(f"std_err {self.std_err} is negative")
        if self.n_total <= 0:
            raise ValueError("n_total must be positive")


def simulate_counts(
    state: StateVector | DensityOperator,
    setting: tuple[str, str],
    cfg: ExperimentConfig,
    stream_tag: int = 0,
) -> CountTable:
    """Poisson counts for one axis-pair setting on a two-qubit source.

    The source is mixed with white noise at ``cfg.visibility_v`` before
    the Born-rule probabilities are computed. Each (trial, cell) draw
    comes from the stream seeded by (seed, stream_tag, axes, trial), so
    re-running with the same config reproduces the table bit for bit.
    """
    u, v = _check_setting(setting)
    if state.num_qubits != 2:
        raise ValueError(f"coincidence experiment needs a 2-qubit state, got {state.num_qubits}")
    rho = werner_mix(state, cfg.visibility_v)
    probs = setting_distribution(rho, u, v)
    means = cfg.mean_per_trial * probs
    trials = np.empty((cfg.num_trials, 2, 2), dtype=np.int64)
    for t in range(cfg.num_trials):
        trials[t] = _stream(cfg.seed, stream_tag, AXIS_CODE[u], AXIS_CODE[v], t).poisson(means)
    return CountTable((u, v), trials, cfg, stream_tag)


def point_correlator(table: CountTable, u: str, v: str) -> tuple[float, int]:
    """Pooled correlator (``_cell_correlator``) and the total N.

    Raises:
        ValueError: zero total count.
    """
    pooled = table.pooled(u, v)
    total = int(pooled.sum())
    if total == 0:
        raise ValueError(f"zero total count for setting ({u},{v})")
    return float(_cell_correlator(pooled)), total


def correlator_from_counts(
    table: CountTable, u: str, v: str, num_bootstrap: int = 1000
) -> EstimatedCorrelator:
    """Estimate one setting's correlator with a parametric bootstrap.

    The standard error is the standard deviation of the estimates over
    the ``_poisson_bootstrap`` replicates of the pooled cells, which
    leaves out those with N = 0 (only tiny means reach it).

    Raises:
        ValueError: zero total count, ``num_bootstrap`` below 2 (one
            replicate has no spread to measure), or fewer than two
            nonempty replicates.
    """
    _check_bootstrap_count(num_bootstrap)
    value, total = point_correlator(table, u, v)
    key = (table.stream_tag, AXIS_CODE[u], AXIS_CODE[v], _BOOT_DOMAIN, 0)
    draws = _poisson_bootstrap(table.pooled(u, v), _stream(table.config.seed, *key), num_bootstrap)
    std_err = float(np.std(_cell_correlator(draws), ddof=1))
    return EstimatedCorrelator(value=value, std_err=std_err, n_total=total)


def delta_method_std_err(value: float, n_total: int) -> float:
    """First-order error of a correlator from Poisson cells: sqrt((1-E^2)/N)."""
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    return math.sqrt(max(0.0, 1.0 - value * value) / n_total)


def paradox_counts(
    spec: ParadoxSpec,
    sources: Mapping[str, StateVector | DensityOperator],
    cfg: ExperimentConfig,
    tag_base: int = 0,
) -> dict[tuple[str, str], CountTable]:
    """Simulate one count table per paradox constraint.

    ``sources`` maps each source label to its ideal state; white noise
    is applied inside ``simulate_counts`` per the config. Each
    constraint gets its own stream tag (``tag_base`` plus its index), so
    tables are independent and reproducible; callers running several
    blocks under one seed should space their tag bases apart.

    Raises:
        ValueError: a label without a source, or an observable that is
            not a two-party axis pair.
    """
    out: dict[tuple[str, str], CountTable] = {}
    for idx, con in enumerate(spec.constraints):
        if con.source_label not in sources:
            raise ValueError(f"no source state for label {con.source_label!r}")
        out[(con.source_label, con.observable.label)] = simulate_counts(
            sources[con.source_label], con.observable.axes, cfg, stream_tag=tag_base + idx
        )
    return out


def paradox_p_value(
    spec: ParadoxSpec, counts: Mapping[tuple[str, str], CountTable]
) -> tuple[float, float]:
    """Hoeffding tail bound against the best convex-mixture model, and its log10.

    The per-coincidence win variable lies in [-1, 1], so a mixed-row
    correlator from N coincidences lands ``d`` or more from its
    prediction, either way, with chance at most ``2 exp(-N d^2 / 2)``
    (two-sided Hoeffding). With ``g`` the worst ``sqrt(N) |residual|``
    over the ``m`` mixed rows at the best mixture weights, a union bound
    over the rows gives ``p = min(1, 2 m exp(-g^2 / 2))``. Component
    rows are treated as exact.

    Returns ``(p, log10_p)``. ``p`` lies in (0, 1]: bounds below the
    smallest positive float are clamped to it, while ``log10_p`` stays
    exact when ``p`` underflows. A mixed row exactly at the best mixture
    prediction gives p = 1.

    Raises:
        ValueError: missing counts, a table under another setting's key, or zero totals.
    """
    for key, table in counts.items():
        if table.setting != _check_setting(tuple(key[1])):
            raise ValueError(f"counts under key {key} are for setting {table.setting}")
    estimates = {key: point_correlator(table, *table.setting) for key, table in counts.items()}
    gap, _, rows = _mixture_gap(
        spec,
        {key: value for key, (value, _n) in estimates.items()},
        {key: math.sqrt(n_total) for key, (_v, n_total) in estimates.items()},
    )
    return _hoeffding_p(gap, 2 * rows)


def _hoeffding_p(scaled_gap: float, terms: int) -> tuple[float, float]:
    """Union of ``terms`` Hoeffding tails at ``scaled_gap``, and its log10.

    ``p = min(1, terms * exp(-scaled_gap^2 / 2))``, clamped below at the
    smallest positive float; ``log10_p`` is computed from the exponent,
    so it stays exact where ``p`` underflows.
    """
    p = max(min(1.0, terms * math.exp(-(scaled_gap * scaled_gap) / 2.0)), _MIN_POSITIVE)
    return p, min(0.0, math.log10(terms) - (scaled_gap * scaled_gap) / (2.0 * math.log(10.0)))


@dataclass(frozen=True, eq=False)
class VisibilityScan:
    """Fringe scan records plus the fitted sinusoid.

    ``rates`` are detected coincidence rates per second (exact, or
    estimated from simulated counts when ``counts`` is present). The fit
    is a least-squares sinusoid with the fringe period fixed at pi in
    the analyzer angle, stored as its ``fit_offset`` (positive) and
    ``fit_amplitude``. Derived from them: ``visibility`` V = amplitude /
    offset, which equals (max - min)/(max + min) of the fitted curve, and
    ``exceeds_classical_bound``, V > ``CLASSICAL_VISIBILITY_BOUND``.
    """

    fixed_arm_angle: float
    angles: tuple[float, ...]
    rates: tuple[float, ...]
    fit_offset: float
    fit_amplitude: float
    counts: tuple[int, ...] | None = None

    @property
    def visibility(self) -> float:
        return self.fit_amplitude / self.fit_offset

    @property
    def exceeds_classical_bound(self) -> bool:
        return self.visibility > CLASSICAL_VISIBILITY_BOUND

    def to_dict(self) -> dict:
        return {
            "fixed_arm_angle": self.fixed_arm_angle,
            "visibility": self.visibility,
            "fit_offset": self.fit_offset,
            "fit_amplitude": self.fit_amplitude,
            "exceeds_classical_bound": self.exceeds_classical_bound,
            "num_points": len(self.angles),
        }

    def to_csv(self, path: str | Path) -> None:
        """Write rows ``angle,rate``, plus ``counts`` for a simulated scan."""
        if self.counts is None:
            _write_csv(path, ["angle", "rate"], zip(self.angles, self.rates))
        else:
            _write_csv(path, ["angle", "rate", "counts"], zip(self.angles, self.rates, self.counts))


def visibility_scan(
    state: StateVector | DensityOperator,
    fixed_arm_angle: float,
    scan_grid,
    cfg: ExperimentConfig | None = None,
    simulate: bool = False,
    stream_tag: int = 0,
) -> VisibilityScan:
    """Transmitted-transmitted fringe versus the scanned analyzer angle.

    One arm's analyzer is fixed at ``fixed_arm_angle``; the other sweeps
    ``scan_grid`` (radians). Exact mode records the true coincidence
    rates; with ``simulate=True`` each grid point gets one Poisson draw
    over the full measurement time and the rates are estimates.

    Raises:
        ValueError: empty grid, an angle ``t`` with ``2 t`` not finite
            (NaN, infinite, or beyond about 9e307), or a non-2-qubit state.
        ArithmeticError: fit breakdown (zero mean rate).
    """
    grid = [float(a) for a in scan_grid]
    if not grid:
        raise ValueError("scan grid must be nonempty")
    for angle in (fixed_arm_angle, *grid):
        # The fringe reads cos 2t and sin 2t, so 2t must be finite, not only t.
        if not math.isfinite(2.0 * angle):
            raise ValueError(f"angle {angle!r}: an analyzer angle and twice it must be finite")
    if state.num_qubits != 2:
        raise ValueError("visibility scan needs a 2-qubit state")
    cfg = cfg or ExperimentConfig()
    rho = werner_mix(state, cfg.visibility_v)
    # A polarizer at angle t passes (I + cos 2t Z + sin 2t X)/2, so with
    # a(t) = (1, cos 2t, sin 2t) and corr[p, q] = <P Q> over P, Q in
    # (I, Z, X), the coincidence probability is a(fixed) @ corr @ a(t) / 4.
    # The rows of ``design`` are a(t); the fringe fit below reuses them.
    corr = np.array([[expectation(rho, p + q) for q in "IZX"] for p in "IZX"])
    angles_arr = np.array(grid)
    design = np.column_stack(
        [np.ones_like(angles_arr), np.cos(2.0 * angles_arr), np.sin(2.0 * angles_arr)]
    )
    fixed = np.array([1.0, math.cos(2.0 * fixed_arm_angle), math.sin(2.0 * fixed_arm_angle)])
    probs = np.maximum(0.0, design @ (fixed @ corr) / 4.0)
    rate_scale = cfg.pair_rate * cfg.efficiency
    measure_time = cfg.duration_per_setting * cfg.num_trials
    counts: tuple[int, ...] | None = None
    if simulate:
        drawn = np.empty(len(grid), dtype=np.int64)
        for i, prob in enumerate(probs):
            drawn[i] = _stream(cfg.seed, stream_tag, _SCAN_DOMAIN, i).poisson(
                rate_scale * measure_time * prob
            )
        counts = tuple(int(n) for n in drawn)
        rates = drawn / measure_time
    else:
        rates = rate_scale * probs
    coeffs, *_ = np.linalg.lstsq(design, rates, rcond=None)
    offset = float(coeffs[0])
    amplitude = float(math.hypot(coeffs[1], coeffs[2]))
    if offset <= 0.0:
        raise ArithmeticError("fringe fit degenerate: nonpositive mean rate")
    return VisibilityScan(
        fixed_arm_angle=float(fixed_arm_angle),
        angles=tuple(float(a) for a in grid),
        rates=tuple(float(r) for r in rates),
        fit_offset=offset,
        fit_amplitude=amplitude,
        counts=counts,
    )
