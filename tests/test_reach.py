"""Reach: every function of cohsim that no shipped command enters, with why.

The golden commands, plus one ``paradox --mode simulated --config FILE``
run, go through ``cohsim.cli.main`` in-process under ``sys.setprofile``,
which records every code object they enter. Every function, method,
property getter and classmethod defined in a ``cohsim`` module (an
``lru_cache`` unwrapped, generated dataclass methods left out) that no run
entered must be a key of ``UNREACHED``, whose value says why it stays:
an acceptance criterion that imports it, or the ROADMAP item that will ship
its user. A new function with no caller on some command's path fails here,
and so does a listed name that has gained one: the change that ships a
user takes its names off in the same diff.

    PYTHONPATH=src python tests/test_reach.py

prints the functions no command enters, each with its reason.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
import tempfile
from pathlib import Path

import cohsim
from cohsim import measurement
from cohsim.cli import main

if __package__:
    from .test_golden import COMMANDS
else:  # run as a script
    from test_golden import COMMANDS

UNREACHED = {
    "experiment.correlator_from_counts": "acceptance criterion 9 imports it",
    "experiment.paradox_p_value": "acceptance criterion 6 imports it",
    "experiment.CountTable.from_csv": "ROADMAP item 15 ships its user",
    "paradox.ParadoxSpec.from_dict": "ROADMAP item 15 ships its user",
    "paradox._spec_row": "ROADMAP item 15 ships its user",
    "paradox._spec_field": "ROADMAP item 15 ships its user",
    "paradox._mixture_lp": "ROADMAP item 30 ships its user",
    "states.ghz_state": (
        "acceptance criterion 2 imports it, and ROADMAP item 29's GHZ command ships its user"
    ),
    "paradox.ghz_stabilizer_check": (
        "acceptance criterion 2 imports it, and ROADMAP item 29's GHZ command ships its user"
    ),
    "paradox._ghz_hull_residual": "ROADMAP item 29's GHZ command ships its user",
}

# A config file read by the one --config run, so ExperimentConfig.from_file
# and its reader are on a command's path.
CONFIG_TEXT = "# the default run, reseeded\nseed = 1\n"


def _function(obj):
    """The function behind a function, method, property getter, classmethod
    or staticmethod (through any ``lru_cache``), or None for anything else."""
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    obj = inspect.unwrap(obj)
    return obj if inspect.isfunction(obj) else None


def package_functions() -> dict:
    """Every function cohsim's modules define, by ``module.qualname``."""
    found = {}
    for info in pkgutil.iter_modules(cohsim.__path__):
        module = importlib.import_module(f"cohsim.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                func = _function(member)
                # Dataclass-generated methods are compiled from "<string>".
                if func is not None and func.__code__.co_filename != "<string>":
                    found[f"{info.name}.{func.__qualname__}"] = func.__code__
    return found


def entered_code() -> set:
    """The code objects that the reach commands enter."""
    entered = set()

    def hook(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    # A warm cache would skip _pauli_action's body.
    measurement._pauli_action.cache_clear()
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        config = Path(scratch) / "reach.cfg"
        config.write_text(CONFIG_TEXT)
        runs = [cmd.split() for cmd in COMMANDS]
        runs.append(["paradox", "--mode", "simulated", "--config", str(config)])
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            codes = [main([*argv, "--out", f"{scratch}/{i}"]) for i, argv in enumerate(runs)]
        finally:
            sys.setprofile(previous)
    failed = [" ".join(argv) for argv, code in zip(runs, codes) if code != 0]
    assert not failed, f"reach runs failed: {failed}"
    return entered


def unreached() -> set[str]:
    """Names of the package functions that no reach command enters."""
    entered = entered_code()
    return {name for name, code in package_functions().items() if code not in entered}


def test_unreached_functions_are_exactly_the_listed_ones():
    missing = unreached()
    no_reason = sorted(missing - set(UNREACHED))
    gained = sorted(set(UNREACHED) - missing)
    assert not no_reason and not gained, (
        f"entered by no command and not in UNREACHED: {no_reason}; "
        f"in UNREACHED but entered by a command, or no longer defined: {gained}"
    )


if __name__ == "__main__":
    names = sorted(unreached())
    for name in names:
        print(f"{name}: {UNREACHED.get(name, 'NO REASON LISTED')}")
    print(f"{len(names)} functions no command enters")
