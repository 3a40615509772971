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
``judge`` is the one path from a spec's count tables, simulated or read
back with ``CountTable.from_csv``, to its estimate columns and verdict.
Every set of tables, a spec's for ``judge`` and ``paradox_p_value``, one
setting's for ``correlator_from_counts`` and the nine tomography
settings, is read by ``_one_draw``: each table present, under its own
setting, of one draw and with a nonzero total. ``judge`` reads once: every
row's estimate (``_row_estimate``) and the p-value (``_stack_p_value``)
come from the one pooled stack.

Every random quantity draws from its own RNG stream,
``_stream(seed, tag, *key)``, keyed by the seed, the stream tag, the
setting, and the trial or replicate domain, so results are
bit-reproducible and independent of evaluation order. ``_stream`` and
``CountTable`` apply the one tag rule, ``_check_tag``: the package's one
integer test, ``states._is_int``, and the range ``[0, 2**32)``.
Per-trial counts and fringe points draw through ``_draws``, and both
bootstraps redraw through ``_poisson_bootstrap``.

Every CSV data file is written by ``_write_csv``: the count tables and
fringe scans here, and the row tables and density matrices of the
``reports`` and ``tomography`` modules. Floats are written as their
``repr``, so each reads back exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import reprlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .measurement import AXES, _check_setting, expectation, setting_distribution
from .paradox import ParadoxSpec, ParadoxVerdict, _mixture_gap, lhv_mixture_test
from .states import EQ_ATOL, DensityOperator, StateVector, _is_int, werner_mix

CLASSICAL_VISIBILITY_BOUND = 0.71

# Stream-domain constants keep bootstrap, scan and tomography draws on RNG
# streams that can never coincide with a per-trial count stream: their keys
# are (u, v, _BOOT_DOMAIN, 0), (_SCAN_DOMAIN, i) and (_TOMO_DOMAIN, 1), a
# count's (u, v, trial), with u and v axis indices.
_BOOT_DOMAIN = 811
_SCAN_DOMAIN = 101
_TOMO_DOMAIN = 907

# The most trials per table, points per scan or bootstrap replicates per
# call: each trial or point opens its own RNG stream, a table lists its
# trials before the first draw, and a bootstrap draws all its replicates
# in one array.
_MAX_DRAWS = 100_000

_ROW_BOOTSTRAP = 1000  # replicates per correlator: the default, and each row of ``judge``
_MIN_POSITIVE = 5e-324  # smallest positive float, used to keep p-values nonzero
_COUNT_COLUMNS = ("u", "v", "a", "b", "trial", "count")  # CountTable CSV header


# Each config field's own rule: a test of its value alone, and what the
# error says the value must be.
_POSITIVE_FINITE = (lambda v: math.isfinite(v) and v > 0.0, "must be positive and finite")
_FIELD_RULES = {
    "pair_rate": _POSITIVE_FINITE,
    "duration_per_setting": _POSITIVE_FINITE,
    "num_trials": (
        lambda v: _is_int(v) and 1 <= v <= _MAX_DRAWS, f"must be an integer in [1, {_MAX_DRAWS}]"
    ),
    "visibility_v": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "efficiency": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "seed": (lambda v: _is_int(v) and 0 <= v < 2**64, "must be an unsigned 64-bit integer"),
}


def _check_field(name: str, value, where: str = "") -> None:
    """``ValueError`` (after ``where``, the value cut short) if ``value`` breaks ``name``'s rule."""
    test, rule = _FIELD_RULES[name]
    try:
        ok = test(value)
    except TypeError:  # a value of the wrong type, such as None or a str
        ok = False
    if not ok:
        raise ValueError(f"{where}{name}={reprlib.repr(value)} {rule}")


def _read_utf8(path: str | Path, kind: str) -> str:
    """The text of a ``kind`` file; a byte that is not UTF-8 raises
    ``ValueError`` naming the file and the line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{kind} file {path} line {line}: {err}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the synthetic experiment.

    ``visibility_v`` mixes the source with white noise before
    measurement; ``efficiency`` scales the detected rate (fair sampling,
    no loophole modeling). ``seed`` roots every RNG stream.

    Raises:
        ValueError: a field that breaks its rule (``num_trials`` is an ``_is_int``
            up to ``_MAX_DRAWS``), or an expected pooled count per setting beyond 2**50.
    """

    pair_rate: float = 0.34e6
    duration_per_setting: float = 100.0
    num_trials: int = 10
    visibility_v: float = 1.0
    efficiency: float = 0.60
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_field(f.name, getattr(self, f.name))
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
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """Load ``key = value`` lines; ``#`` starts a comment. The file is
        read whole and checked as it stands; flags go on top through ``replace``.

        Raises:
            ValueError: a byte not UTF-8, a line not ``key = value``, an
                unknown or repeated key, a value that does not parse or
                breaks its field's rule, such as more than ``_MAX_DRAWS``
                trials (each named with file and line), or a pooled count
                beyond 2**50 (named with the file).
        """
        parsers = {f.name: type(f.default) for f in fields(cls)}
        values: dict = {}
        seen: dict[str, int] = {}
        for number, raw in enumerate(_read_utf8(path, "config").splitlines(), 1):
            where = f"config file {path} line {number}"
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{where}: {raw!r} is not 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in parsers:
                raise ValueError(f"{where}: unknown config key {key!r}")
            if key in seen:
                raise ValueError(f"{where}: config key {key!r} repeats line {seen[key]}")
            seen[key] = number
            try:
                values[key] = parsers[key](value)
            except ValueError:
                kind = "an int" if parsers[key] is int else "a float"
                raise ValueError(f"{where}: {key} = {value!r} is not {kind}") from None
            _check_field(key, values[key], f"{where}: ")
        try:
            return cls(**values)
        except ValueError as err:
            raise ValueError(f"config file {path}: {err}") from None


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


def _check_tag(tag) -> None:
    """The one stream-tag rule, which ``_stream`` and ``CountTable`` apply: ``_is_int`` and
    in ``[0, 2**32)``. A seed sequence splits ints into 32-bit words, so a wider tag
    could repeat a draw: (2**32, 1) and (0, 2**32 + 1) both give 0, 1, 1."""
    if not (_is_int(tag) and 0 <= tag < 2**32):
        raise ValueError(
            f"stream_tag={reprlib.repr(tag)} must be a nonnegative integer below 2**32"
        )


def _stream(seed: int, tag: int, *key: int) -> np.random.Generator:
    """The generator of one draw, seeded by ``(seed, tag, *key)`` alone, after
    ``_check_tag``: with the tag one 32-bit word, no two (seed, tag, key) of the
    key shapes in use (see the domain constants) share their words."""
    _check_tag(tag)
    return np.random.default_rng(np.random.SeedSequence((seed, tag, *key)))


def _draws(seed: int, tag: int, key: tuple[int, ...], means) -> np.ndarray:
    """Poisson draw ``i`` at ``means[i]`` from ``_stream(seed, tag, *key, i)``, as int64."""
    draws = [_stream(seed, tag, *key, i).poisson(mean) for i, mean in enumerate(means)]
    return np.array(draws, dtype=np.int64)


def _check_nonzero_total(total, what: str) -> None:
    """The one refusal of an empty count, from which nothing can be estimated."""
    if total == 0:
        raise ValueError(f"zero total count for {what}")


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
    """A standard error needs 2 to ``_MAX_DRAWS`` replicates, an ``_is_int``;
    ``allow_none`` lets 0 pass."""
    n = num_bootstrap
    if not (_is_int(n) and (2 <= n <= _MAX_DRAWS or (allow_none and n == 0))):
        none = " (or 0 for no bootstrap)" if allow_none else ""
        raise ValueError(
            f"num_bootstrap={reprlib.repr(num_bootstrap)}: a standard error needs"
            f" an integer count of at least 2 replicates{none}, and at most {_MAX_DRAWS}"
        )


@dataclass(frozen=True, eq=False)
class CountTable:
    """Per-trial coincidence counts for one setting.

    ``setting`` is the axis pair ``(u, v)`` and ``counts`` a read-only
    int64 array of shape ``(num_trials, 2, 2)`` indexed by (trial, a, b).
    Several settings are a mapping of tables, and every estimator reads
    them through ``_one_draw``, which pools the trials. The config
    snapshot and the stream tag pin down exactly which RNG streams
    produced the data, so bootstrap draws can be derived without
    clashing with them.
    """

    setting: tuple[str, str]
    counts: np.ndarray
    config: ExperimentConfig
    stream_tag: int = 0

    def __post_init__(self) -> None:
        _check_tag(self.stream_tag)
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

    def to_csv(self, path: str | Path) -> None:
        """Write rows ``u,v,a,b,trial,count`` (one per cell per trial)."""
        u, v = self.setting
        cells = np.ndenumerate(self.counts)
        _write_csv(path, _COUNT_COLUMNS, ([u, v, a, b, t, n] for (t, a, b), n in cells))

    @classmethod
    def from_csv(
        cls, path: str | Path, config: ExperimentConfig, stream_tag: int = 0
    ) -> "CountTable":
        """Read back exactly what ``to_csv`` writes: the header, then on row ``k``
        cell ``k`` of ``np.ndindex(config.num_trials, 2, 2)``, ints as ``str`` writes them.

        Raises:
            ValueError: a byte not UTF-8, another header, no rows, a short or long
                row, rows of two settings, an axis not in ``AXES``, an int not as
                ``str`` writes it, a negative count, or a row out of order, past the
                last cell or missing at the end; each named with the file and the
                line. Any other refusal of ``CountTable`` is named with the file.
        """
        reader = csv.reader(io.StringIO(_read_utf8(path, "count"), newline=""))
        header = next(reader, [])
        if header != list(_COUNT_COLUMNS):
            raise ValueError(
                f"count file {path} line 1: the header must be {','.join(_COUNT_COLUMNS)},"
                f" not {','.join(header)!r}"
            )
        setting, counts, grid = None, [], np.ndindex(config.num_trials, 2, 2)
        for row in reader:
            where = f"count file {path} line {reader.line_num}"
            if len(row) < len(_COUNT_COLUMNS):
                raise ValueError(f"{where} is incomplete")
            if len(row) > len(_COUNT_COLUMNS):
                raise ValueError(f"{where} has extra fields")
            if setting not in (None, tuple(row[:2])):
                raise ValueError(f"{where}: the file holds settings {setting} and {tuple(row[:2])}")
            setting = tuple(row[:2])
            if not all(axis in AXES for axis in setting):
                raise ValueError(f"{where}: the setting {setting} holds an axis not in {AXES}")
            ints = []
            for col, text in zip(_COUNT_COLUMNS[2:], row[2:]):
                try:
                    value = int(text)
                except ValueError:
                    value = None
                if value is None or str(value) != text:
                    raise ValueError(f"{where} column {col} is not an integer: {text!r}")
                ints.append(value)
            a, b, trial, count = ints
            if count < 0:
                raise ValueError(f"{where} column count is negative: {count}")
            found, cell = (trial, a, b), next(grid, "no row")
            if found != cell:
                raise ValueError(f"{where} holds cell (trial, a, b) = {found} where {cell} belongs")
            counts.append(count)
        if setting is None:
            raise ValueError(f"count file {path} holds no rows")
        if (cell := next(grid, None)) is not None:  # ``where`` names the last line
            raise ValueError(f"{where}: the file ends before cell (trial, a, b) = {cell}")
        try:
            return cls(setting, np.array(counts).reshape(-1, 2, 2), config, stream_tag)
        except ValueError as err:
            raise ValueError(f"count file {path}: {err}") from None


def _check_correlator(value: float, n_total: int) -> None:
    """A correlator lies in [-1, 1], which NaN does not, and is estimated from an
    ``_is_int`` count of at least 1."""
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"correlator {value!r} outside [-1, 1]")
    if not (_is_int(n_total) and n_total >= 1):
        raise ValueError(f"n_total={reprlib.repr(n_total)} must be an integer of at least 1")


@dataclass(frozen=True)
class EstimatedCorrelator:
    """Point estimate with bootstrap standard error and sample size."""

    value: float
    std_err: float
    n_total: int

    def __post_init__(self) -> None:
        _check_correlator(self.value, self.n_total)
        if not (math.isfinite(self.std_err) and self.std_err >= 0.0):
            raise ValueError(f"std_err {self.std_err!r} must be finite and nonnegative")


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
    rho = werner_mix(state, cfg.visibility_v)
    means = cfg.mean_per_trial * setting_distribution(rho, u, v)
    key = (AXES.index(u), AXES.index(v))
    trials = _draws(cfg.seed, stream_tag, key, [means] * cfg.num_trials)
    return CountTable((u, v), trials, cfg, stream_tag)


def _row_estimate(
    pooled: np.ndarray, seed: int, tag: int, setting: tuple[str, str], num_bootstrap: int
) -> EstimatedCorrelator:
    """The correlator of one setting's pooled ``(2, 2)`` cells, with the standard error of
    ``num_bootstrap`` redraws from ``_stream(seed, tag, u, v, _BOOT_DOMAIN, 0)``."""
    key = (AXES.index(setting[0]), AXES.index(setting[1]), _BOOT_DOMAIN, 0)
    draws = _poisson_bootstrap(pooled, _stream(seed, tag, *key), num_bootstrap)
    std_err = float(np.std(_cell_correlator(draws), ddof=1))
    return EstimatedCorrelator(float(_cell_correlator(pooled)), std_err, int(pooled.sum()))


def correlator_from_counts(
    table: CountTable, u: str, v: str, num_bootstrap: int = _ROW_BOOTSTRAP
) -> EstimatedCorrelator:
    """Estimate one setting's correlator with a parametric bootstrap.

    ``_one_draw`` reads the table under the key ``(u, v)``. The estimate is
    ``_cell_correlator`` of its pooled cells, and the standard error is the
    standard deviation of the estimates over the ``_poisson_bootstrap``
    replicates of those cells, which leaves out those with N = 0 (only tiny
    means reach it). ``value +- 2 std_err`` is a Wald-type interval, which
    undercovers as |E| -> 1 (Brown, Cai & DasGupta, Stat. Sci. 16:101, 2001):
    at about 100 pairs per setting it held the truth in 0.897 of seeded runs
    for XX at v = 0.9 and theta = pi/4, against a nominal 0.954.

    Raises:
        ValueError: a ``num_bootstrap`` that is no integer (a float or bool), below
            2 (one replicate has no spread to measure) or above ``_MAX_DRAWS``, a
            table for another setting than ``(u, v)`` or a zero total, all before
            any draw, or fewer than two nonempty replicates.
    """
    _check_bootstrap_count(num_bootstrap)
    pooled, cfg, tag = _one_draw({(u, v): table}, [(u, v)], [(u, v)], 0)
    return _row_estimate(pooled[0], cfg.seed, tag, (u, v), num_bootstrap)


def delta_method_std_err(value: float, n_total: int) -> float:
    """First-order error of a correlator from Poisson cells: sqrt((1-E^2)/N).

    Raises:
        ValueError: what ``_check_correlator`` refuses.
    """
    _check_correlator(value, n_total)
    return math.sqrt((1.0 - value * value) / n_total)


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
        ValueError: a ``tag_base`` that breaks the stream-tag rule, a label
            without a source, or an observable that is not a two-party axis pair.
    """
    _check_tag(tag_base)
    out: dict[tuple[str, str], CountTable] = {}
    for idx, (key, con) in enumerate(zip(spec.observation_keys(), spec.constraints)):
        if con.source_label not in sources:
            raise ValueError(f"no source state for label {con.source_label!r}")
        out[key] = simulate_counts(
            sources[con.source_label], con.observable.axes, cfg, stream_tag=tag_base + idx
        )
    return out


def _one_draw(
    tables: Mapping, keys, settings, tag_step: int
) -> tuple[np.ndarray, ExperimentConfig, int]:
    """The one reader of count tables: the pooled ``(k, 2, 2)`` counts under ``keys``,
    in order, with the first table's config and stream tag. Table ``i`` must hold
    ``settings[i]``, that config and that tag plus ``tag_step * i`` (1 for
    ``paradox_counts``, 0 for ``simulate_tomography_counts``), else ``ValueError``
    names the key of a missing table, of one with another setting or draw, or of
    one with a zero total (and its setting). Tables under other keys are ignored."""
    stack = []
    for idx, (key, setting) in enumerate(zip(keys, settings)):
        if key not in tables:
            raise ValueError(f"no counts under key {key}")
        table, first = tables[key], tables[keys[0]]
        if table.setting != setting:
            raise ValueError(f"counts under key {key} are for setting {table.setting}")
        tag = first.stream_tag + tag_step * idx
        if (table.config, table.stream_tag) != (first.config, tag):
            raise ValueError(
                f"counts under key {key} are of another draw than those under {keys[0]}:"
                f" row {idx} needs their config and stream tag {tag}"
            )
        stack.append(table.counts.sum(axis=0))
        _check_nonzero_total(stack[-1].sum(), "setting ({},{}) under key {}".format(*setting, key))
    return np.array(stack, dtype=float), first.config, first.stream_tag


def paradox_p_value(
    spec: ParadoxSpec, counts: Mapping[tuple[str, str], CountTable]
) -> tuple[float, float]:
    """Hoeffding tail bound against the best convex-mixture model, and its log10.

    ``counts`` maps each ``spec.observation_keys()`` key to its table, as
    one ``paradox_counts`` call draws them; ``_one_draw`` reads them with a
    tag step of 1 and ignores tables under other keys.

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
        ValueError: from ``_one_draw``, at the first key in spec order with a
            missing table, a table under another setting's key, a table of
            another draw (another config, or a stream tag off its row's) or a
            zero total.
    """
    settings = [con.observable.axes for con in spec.constraints]
    return _stack_p_value(spec, _one_draw(counts, spec.observation_keys(), settings, 1)[0])


def _stack_p_value(spec: ParadoxSpec, pooled: np.ndarray) -> tuple[float, float]:
    """``_hoeffding_p`` at the mixture gap of the spec's pooled ``(k, 2, 2)`` stack,
    one table per constraint in spec order, each row weighted by sqrt(N)."""
    keys = spec.observation_keys()
    gap, _, rows = _mixture_gap(
        spec,
        dict(zip(keys, _cell_correlator(pooled).tolist())),
        dict(zip(keys, np.sqrt(pooled.sum(axis=(1, 2))).tolist())),
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


# The declared level of a data verdict: p <= ALPHA refutes the mixture model.
ALPHA = 1e-3


def judge(
    spec: ParadoxSpec, counts: Mapping[tuple[str, str], CountTable]
) -> tuple[list[dict], ParadoxVerdict]:
    """Estimate columns and mixture verdict of a spec's count tables.

    ``counts`` maps each ``spec.observation_keys()`` key to its table, as
    ``paradox_counts`` draws them or ``CountTable.from_csv`` reads them.
    ``_one_draw`` reads them once, and its pooled stack gives both outputs:
    one row per constraint, in spec order (``estimate``, ``std_err``,
    ``delta_std_err``, ``n_total``), row ``i`` as ``correlator_from_counts``
    estimates table ``i``, and the ``lhv_mixture_test`` verdict at
    ``EQ_ATOL`` on the estimates, with the ``paradox_p_value`` attached.

    Raises:
        ValueError: what ``_one_draw`` refuses, as for ``paradox_p_value``,
            before any bootstrap draw.
    """
    keys = spec.observation_keys()
    settings = [con.observable.axes for con in spec.constraints]
    pooled, cfg, tag = _one_draw(counts, keys, settings, 1)
    p, log10_p = _stack_p_value(spec, pooled)
    rows = []
    for i, (cells, setting) in enumerate(zip(pooled, settings)):
        e = _row_estimate(cells, cfg.seed, tag + i, setting, _ROW_BOOTSTRAP)
        delta = delta_method_std_err(e.value, e.n_total)
        rows.append(
            dict(estimate=e.value, std_err=e.std_err, delta_std_err=delta, n_total=e.n_total)
        )
    observed = {key: row["estimate"] for key, row in zip(keys, rows)}
    verdict = lhv_mixture_test(spec, observed, tol=EQ_ATOL)
    return rows, dataclasses.replace(verdict, p_value=p, log10_p_value=log10_p)


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


def _scan_angle(angle) -> float:
    """``float(angle)``, refused unless twice it is finite: the fringe reads
    cos 2t and sin 2t."""
    try:
        value = float(angle)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(2.0 * value):
        raise ValueError(f"angle {angle!r}: an analyzer angle and twice it must be finite")
    return value


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
            (NaN, infinite, beyond about 9e307, or an int too large for a
            float), fewer than three grid angles distinct modulo pi (the
            fit's three coefficients need them), a non-2-qubit state, or,
            with ``simulate=True``, more than ``_MAX_DRAWS`` grid angles
            (each opens its own random stream; refused before any draw),
            a ``stream_tag`` ``_check_tag`` refuses or draws that are all
            zero; in either mode, a fringe fit whose mean rate is not
            positive (a dark port, or a few counts that fall on the
            fringe's low side).
    """
    fixed_angle, *grid = (_scan_angle(a) for a in (fixed_arm_angle, *scan_grid))
    if not grid:
        raise ValueError("scan grid must be nonempty")
    if simulate and len(grid) > _MAX_DRAWS:
        raise ValueError(
            f"a simulated scan of {len(grid)} angles is above the ceiling of {_MAX_DRAWS}:"
            " each angle opens its own random stream"
        )
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
    fixed = np.array([1.0, math.cos(2.0 * fixed_angle), math.sin(2.0 * fixed_angle)])
    probs = np.maximum(0.0, design @ (fixed @ corr) / 4.0)
    rate_scale = cfg.pair_rate * cfg.efficiency
    measure_time = cfg.duration_per_setting * cfg.num_trials
    counts: tuple[int, ...] | None = None
    if simulate:
        drawn = _draws(cfg.seed, stream_tag, (_SCAN_DOMAIN,), rate_scale * measure_time * probs)
        counts = tuple(int(n) for n in drawn)
        rates = drawn / measure_time
    else:
        rates = rate_scale * probs
    coeffs, _, rank, _ = np.linalg.lstsq(design, rates, rcond=None)
    if rank < 3:
        raise ValueError(f"the fit needs 3 grid angles distinct modulo pi, found {rank}")
    if counts is not None:
        _check_nonzero_total(sum(counts), "the fringe scan")
    offset = float(coeffs[0])
    amplitude = float(math.hypot(coeffs[1], coeffs[2]))
    if offset <= 0.0:
        raise ValueError(f"the fringe fit has a mean rate {offset!r}, not positive")
    return VisibilityScan(
        fixed_arm_angle=fixed_angle,
        angles=tuple(grid),
        rates=tuple(float(r) for r in rates),
        fit_offset=offset,
        fit_amplitude=amplitude,
        counts=counts,
    )
