"""Layer spans recorded from outside cohsim.

A traced run rebinds every public function of the eight cohsim modules
(plus ``scipy.optimize.linprog``) to a wrapper that records one span per
call: name, start, end, parent span and unit id. A span is named
``<layer>.<function>``, where the layer is the cohsim module that
defines the function. The originals are put back by ``Tracer.uninstall``.

Nothing here imports numpy, so the orchestrating process can use the
arithmetic helpers without starting OpenBLAS threads.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("states", "measurement", "paradox", "game", "experiment", "tomography", "reports", "cli")

# Methods traced besides the module-level functions: (module, class, attribute, span name).
METHODS = (
    ("cohsim.states", "DensityOperator", "__post_init__", "states.density_check"),
    ("cohsim.experiment", "CountTable", "to_csv", "experiment.CountTable.to_csv"),
    ("cohsim.experiment", "VisibilityScan", "to_csv", "experiment.VisibilityScan.to_csv"),
)
LP_SPAN = "paradox.lp"

# Spans that write data files. They feed cli.write_s and no layer's self time.
WRITERS = (
    "reports.write_rows_csv",
    "experiment.CountTable.to_csv",
    "experiment.VisibilityScan.to_csv",
    "tomography.write_density_csv",
)

NAME, START, END, PARENT, UNIT = range(5)


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _count_expectation(counters: dict, args: dict) -> None:
    key = "measurement.expectation.max_qubits"
    counters[key] = max(counters.get(key, 0), args["state"].num_qubits)


def _count_simulate_counts(counters: dict, args: dict) -> None:
    _add(counters, "experiment.poisson_cells", 4 * args["cfg"].num_trials)


def _count_correlator(counters: dict, args: dict) -> None:
    _add(counters, "experiment.poisson_cells", 4 * args["num_bootstrap"])


def _count_scan(counters: dict, args: dict) -> None:
    if args["simulate"]:
        _add(counters, "experiment.poisson_cells", len(args["scan_grid"]))


def _count_reconstruct(counters: dict, args: dict) -> None:
    if args["target"] is not None and args["num_bootstrap"] > 0:
        _add(counters, "tomography.bootstrap_replicates", args["num_bootstrap"])


# Counters computed from a call's arguments, keyed by span name.
ARGUMENT_COUNTERS = {
    "measurement.expectation": _count_expectation,
    "experiment.simulate_counts": _count_simulate_counts,
    "experiment.correlator_from_counts": _count_correlator,
    "experiment.visibility_scan": _count_scan,
    "tomography.reconstruct": _count_reconstruct,
}


class Tracer:
    """Records spans in memory while its wrappers are installed.

    ``spans`` holds ``[name, start, end, parent_index, unit]`` lists in
    call order; ``parent_index`` is -1 for a span no other span encloses.
    Set ``unit`` before each unit so its spans share that id.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict = {}
        self.unit = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = ARGUMENT_COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counters, bound.arguments)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.unit]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        """Rebind the traced names in every ``cohsim.*`` namespace and in scipy."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        import scipy.optimize

        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cohsim.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        linprog = scipy.optimize.linprog
        wrappers[id(linprog)] = (linprog, self._wrap(LP_SPAN, linprog))
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "cohsim" or mod_name.startswith("cohsim.") or mod_name == "scipy.optimize"):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        for mod_name, cls_name, attr, span_name in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(span_name, original))
            self._patched.append((cls, attr, original))

    def uninstall(self) -> None:
        """Put back every binding ``install`` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (s[END] - s[START]) - union_length(kids, s[START], s[END])
        for s, kids in zip(spans, children)
    ]


def layer_metrics(spans, counters: dict, traced_wall_s: float, rounds: int = 1) -> dict[str, float]:
    """Per-layer metrics, per round, from ``rounds`` traced rounds.

    ``traced_wall_s`` is the wall time of the traced units; the part of it
    that no top-level span covers is reported as ``trace.untraced_s``.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + (span[END] - span[START])

    def total(*names):
        return sum(total_s.get(n, 0.0) for n in names) / rounds

    def own(*names):
        return sum(self_s.get(n, 0.0) for n in names) / rounds

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own(
            *(n for n in self_s if n.split(".", 1)[0] == layer and n not in WRITERS)
        )
    out["cli.work_s"] = total("cli.main")
    out["cli.write_s"] = total(*WRITERS)
    for name in (
        "measurement.expectation",
        "measurement.setting_distribution",
        "states.werner_mix",
        "states.fidelity",
        "experiment.simulate_counts",
        "experiment.correlator_from_counts",
        "experiment.visibility_scan",
        "paradox.lhv_mixture_test",
        "paradox.ghz_stabilizer_check",
        "game.quantum_strategy",
        "game.winning_probability",
        "tomography.simulate_tomography_counts",
        "tomography.reconstruct",
    ):
        out[f"{name}.calls"] = calls.get(name, 0) / rounds
        out[f"{name}.self_s"] = own(name)
    out["measurement.expectation.max_qubits"] = counters.get("measurement.expectation.max_qubits", 0)
    out["states.density_checks"] = calls.get("states.density_check", 0) / rounds
    out["states.density_checks_s"] = own("states.density_check")
    out["experiment.p_value.self_s"] = own("experiment.paradox_p_value", "experiment.paradox_log10_p_value")
    out["experiment.poisson_cells"] = counters.get("experiment.poisson_cells", 0) / rounds
    out["paradox.lp_solves"] = calls.get(LP_SPAN, 0) / rounds
    out["paradox.lp_s"] = total(LP_SPAN)
    replicates = counters.get("tomography.bootstrap_replicates", 0) / rounds
    out["tomography.bootstrap_replicates"] = replicates
    out["tomography.replicate_us"] = 1e6 * own("tomography.reconstruct") / replicates if replicates else 0.0
    top = [(sp[START], sp[END]) for sp in spans if sp[PARENT] < 0]
    covered = union_length(top, float("-inf"), float("inf"))
    out["trace.untraced_s"] = max(0.0, traced_wall_s - covered) / rounds
    return out
