"""Single-site mutation sweep of cohsim's kernel functions against its tests.

Usage::

    python tools/mutate.py --out MUTATION.json
    python tools/mutate.py --out MUTATION.json --functions _min_max_residual
    python tools/mutate.py --out MUTATION.json --repo path/to/other/checkout

Each target function in ``TARGETS`` is parsed with ``ast``, and every
mutation site in its body (an arithmetic or comparison operator, a
boolean connective, a unary minus or ``not``, a numeric constant, a
``min``/``max``-style call, the values of two adjacent keyword arguments
of one call) gives one mutant that changes that site alone.
The repository (``--repo``, default this script's checkout) is copied to a
temporary directory, without ``.git``; each mutant is written into the
copy's ``src/`` and ``python -m pytest -x -q`` runs in the copy. A mutant
is killed when that run fails or times out (three times the unmutated
run, plus 30 s). The checkout itself is only read, and the copy is
removed at the end, also when the sweep is stopped with SIGTERM.

The report (``--out``) gives, per function, its module, the number of
mutants, the number killed (of them, the number that timed out), and
each survivor: its site (file, line, column), the source line, the
original and mutated source, and a ``reason`` from ``REASONS`` when the
survivor is known to be equivalent to the original (``null`` until
someone explains or kills it).

Stdlib only, and not part of the tier-1 suite: every survivor costs a
full suite run. Reference: DeMillo, Lipton & Sayward, "Hints on test
data selection", IEEE Computer 11(4):34, 1978.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TARGETS = (
    "_min_max_residual",
    "_mixture_lp",
    "_ghz_hull_residual",
    "_mixture_gap",
    "_cell_correlator",
    "_poisson_bootstrap",
    "correlator_from_counts",
    "delta_method_std_err",
    "paradox_p_value",
    "_hoeffding_p",
    "judge",
    "_row_estimate",
    "_stack_p_value",
    "_check_correlator",
    "EstimatedCorrelator.__post_init__",
    "_is_int",
    "_check_int",
    "StateVector.__post_init__",
    "_check_theta",
    "epr_family",
    "_check_nonzero_total",
    "visibility_scan",
    "_check_field",
    "_check_tag",
    "_check_bootstrap_count",
    "ExperimentConfig.from_file",
    "CountTable.from_csv",
    "_pauli_action",
    "expectation",
    "setting_distribution",
    "_invert",
    "_simplex_project",
    "_project",
    "_one_draw",
    "reconstruct",
)

# Survivors known to change no observable behaviour, keyed by function and
# then by (source line, original source, mutated source) as the report
# prints them.
REASONS: dict[str, dict[tuple[str, str, str], str]] = {
    "_mixture_lp": {
        ("tol = 1e-12", "1e-12", "2e-12"): (
            "The tolerance only sorts out entries that are zero up to rounding, and"
            " every optimum is certified to 1e-12 either way."
        ),
        ("for _ in range(10 * tab.size):", "10", "11"): (
            "Bland's rule ends the pivot loop far below the cap, so a cap of 11"
            " times the tableau size ends the same solves."
        ),
        ("entering = np.flatnonzero(tab[-1, :-1] < -tol)", "tab[-1, :-1] < -tol",
         "tab[-1, :-1] <= -tol"): (
            "Only a reduced cost of exactly -1e-12 tells the two apart, and either"
            " way the tableau is optimal within the tolerance."
        ),
        ("rising = np.flatnonzero(tab[:-1, col] > tol)", "tab[:-1, col] > tol",
         "tab[:-1, col] >= tol"): (
            "Only a pivot entry of exactly 1e-12 tells the two apart."
        ),
        ("row = tied[np.argmin(basis[tied])]", "np.argmin(basis[tied])",
         "np.argmax(basis[tied])"): (
            "Rows tied in the ratio test give the same pivot value; the lowest"
            " basic index (Bland's rule) only guards against cycling, and no"
            " program the suite solves cycles with the highest one either."
        ),
    },
    "_ghz_hull_residual": {
        ("alpha = _HADAMARD @ (observed - gap * _MERMIN_NORMALS[best]) / 4.0",
         "gap * _MERMIN_NORMALS[best]", "gap / _MERMIN_NORMALS[best]"): (
            "The Mermin normals are exactly +-1, and x / +-1 equals x * +-1 in IEEE"
            " arithmetic."
        ),
        ("weights[minus if math.copysign(1.0, a) < 0.0 else plus] += abs(a)",
         "math.copysign(1.0, a) < 0.0", "math.copysign(1.0, a) <= 0.0"): (
            "copysign(1.0, a) is +-1.0, never 0.0."
        ),
        ("weights[minus if math.copysign(1.0, a) < 0.0 else plus] += abs(a)", "0.0",
         "1.0"): (
            "copysign(1.0, a) is +-1.0, so '< 1.0' and '< 0.0' pick the same sign."
        ),
        ("for row in _GHZ_VERTEX_ROWS[0]:", "0", "1"): (
            "The leftover weight goes to +-h_2 instead of +-h_1: another"
            " decomposition of the same point, so the witness still attains the"
            " gap. No data file records the GHZ witness."
        ),
    },
    "StateVector.__post_init__": {
        ("if not abs(norm - 1.0) <= NORM_ATOL:", "abs(norm - 1.0) <= NORM_ATOL",
         "abs(norm - 1.0) < NORM_ATOL"): (
            "Near 1, norm - 1.0 is exact and a multiple of 2**-53, and NORM_ATOL"
            " (1e-12, 0x1.19799812dea11p-40 as a double) is not, so the two never"
            " meet."
        ),
    },
    "expectation": {
        ("if abs(val.imag) > EQ_ATOL:", "abs(val.imag) > EQ_ATOL",
         "abs(val.imag) >= EQ_ATOL"): (
            "Only an imaginary part of exactly 1e-10 tells the two apart."
        ),
    },
    "setting_distribution": {
        ("if abs(total - 1.0) > EQ_ATOL:", "abs(total - 1.0) > EQ_ATOL",
         "abs(total - 1.0) >= EQ_ATOL"): (
            "Only a clipped table whose sum is off by exactly 1e-10 tells the two"
            " apart."
        ),
    },
    "_simplex_project": {
        ("valid = desc * np.arange(1, n + 1) > (csum - 1.0)",
         "desc * np.arange(1, n + 1) > (csum - 1.0)",
         "desc * np.arange(1, n + 1) >= csum - 1.0"): (
            "At a tie, desc[k] * (k + 1) == csum[k] - 1, ranks k + 1 and k give the"
            " same shift, desc[k], so only rounding at an exact tie could move a"
            " value; the ties the suite meets (a valid spectrum with a zero"
            " eigenvalue) give a shift of exactly 0 either way."
        ),
    },
    "correlator_from_counts": {
        ("pooled, cfg, tag = _one_draw({(u, v): table}, [(u, v)], [(u, v)], 0)", "0", "1"): (
            "One table is read, at index 0, so its tag is the first table's plus"
            " tag_step * 0 whatever the step."
        ),
    },
    "reconstruct": {
        ("if num_bootstrap > 0:", "0", "1"): (
            "_check_bootstrap_count has refused 1 by then, so num_bootstrap is 0 or"
            " at least 2, and '> 0' and '> 1' pick the same calls."
        ),
    },
    "_project": {
        ("mat = 0.5 * (mat + _dagger(mat))", "0.5", "1.0"): (
            "The next line divides by the trace. Doubling is exact in binary"
            " floating point and doubles the trace exactly, so the quotient is"
            " the same to the bit."
        ),
    },
}

PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider")
# Address-space cap for each suite run, so a mutant that asks for a huge
# array fails fast instead of taking the host's memory.
MEMORY_CAP = 4 << 30

_BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_CMPOPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_BOOLOPS = {ast.And: ast.Or, ast.Or: ast.And}
_NAMES = {"min": "max", "max": "min", "argmin": "argmax", "argmax": "argmin", "any": "all",
          "all": "any"}


def _swapped(node: ast.AST, field: str, table: dict, index: int | None = None) -> str | None:
    """``node`` unparsed with the operator in ``field`` (entry ``index`` of a
    list field) replaced by its partner in ``table``, or None if it has none."""
    op = getattr(node, field) if index is None else getattr(node, field)[index]
    if type(op) not in table:
        return None
    new = copy.copy(node)
    if index is None:
        setattr(new, field, table[type(op)]())
    else:
        ops = list(getattr(node, field))
        ops[index] = table[type(op)]()
        setattr(new, field, ops)
    return ast.unparse(new)


def _keywords_swapped(node: ast.Call, index: int) -> str | None:
    """``node`` unparsed with the values of keyword arguments ``index`` and
    ``index + 1`` swapped, or None if one is a ``**`` argument or both
    values read the same."""
    first, second = node.keywords[index:index + 2]
    if first.arg is None or second.arg is None or ast.dump(first.value) == ast.dump(second.value):
        return None
    new = copy.copy(node)
    new.keywords = list(node.keywords)
    new.keywords[index] = ast.keyword(first.arg, second.value)
    new.keywords[index + 1] = ast.keyword(second.arg, first.value)
    return ast.unparse(new)


def _constant(value: int | float) -> int | float:
    if value in (0, 1):
        return 1 - value
    return value + 1 if isinstance(value, int) else value * 2.0


def _mutations(node: ast.AST) -> list[str]:
    """The source texts that replace ``node`` in its single-site mutants."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        out = [_swapped(node, "op", _BINOPS)]
    elif isinstance(node, ast.Compare):
        out = [_swapped(node, "ops", _CMPOPS, i) for i in range(len(node.ops))]
    elif isinstance(node, ast.BoolOp):
        out = [_swapped(node, "op", _BOOLOPS)]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
        out = [ast.unparse(node.operand)]
    elif (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        out = [ast.unparse(ast.Constant(_constant(node.value)))]
    elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr
        out = [None]
        if name in _NAMES:
            new = copy.copy(func)
            if isinstance(func, ast.Name):
                new.id = _NAMES[name]
            else:
                new.attr = _NAMES[name]
            call = copy.copy(node)
            call.func = new
            out = [ast.unparse(call)]
        out += [_keywords_swapped(node, i) for i in range(len(node.keywords) - 1)]
    else:
        out = [None]
    return [text for text in out if text is not None]


def _find(src: Path, name: str) -> tuple[Path, ast.FunctionDef]:
    """The one definition of ``name`` under ``src``: a module-level function,
    or a method given as ``Class.method``."""
    owner, _, func = name.rpartition(".")
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_bytes(), filename=str(path))
        scopes = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == owner]
        for scope in scopes if owner else [tree]:
            for node in scope.body:
                if isinstance(node, ast.FunctionDef) and node.name == func:
                    found.append((path, node))
    if len(found) != 1:
        raise SystemExit(f"mutate: {name} is defined {len(found)} times under {src}")
    return found[0]


def mutants(src: Path, name: str):
    """Yield ``(path, site, line, original, mutated, new_bytes)`` for each
    single-site mutant of function ``name``, in source order."""
    path, func = _find(src, name)
    data = path.read_bytes()
    lines = data.decode().splitlines()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    body = func.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    nodes, stack = [], list(body)
    while stack:
        node = stack.pop()
        # Positions inside f-strings are unreliable before Python 3.12.
        if not isinstance(node, ast.JoinedStr):
            nodes.append(node)
            stack.extend(ast.iter_child_nodes(node))
    nodes = [n for n in nodes if hasattr(n, "end_col_offset")]
    nodes.sort(key=lambda n: (n.lineno, n.col_offset, -n.end_lineno, -n.end_col_offset))
    for node in nodes:
        # ast offsets count UTF-8 bytes.
        lo = starts[node.lineno - 1] + node.col_offset
        hi = starts[node.end_lineno - 1] + node.end_col_offset
        original = data[lo:hi].decode()
        for text in _mutations(node):
            wrapped = text if isinstance(node, ast.stmt) else f"({text})"
            new = data[:lo] + wrapped.encode() + data[hi:]
            compile(new, str(path), "exec")
            site = f"{path.relative_to(src).as_posix()}:{node.lineno}:{node.col_offset}"
            line = lines[node.lineno - 1].strip()
            yield path, site, line, " ".join(original.split()), text, new


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_suite(copy_root: Path, timeout: float | None) -> str:
    """Run the tests in ``copy_root`` against its ``src``: ``"passed"``,
    ``"failed"`` or ``"timeout"``."""
    env = dict(os.environ, PYTHONPATH=str(copy_root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, *PYTEST], cwd=copy_root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout, preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def sweep(repo: Path, functions: list[str]) -> dict:
    with tempfile.TemporaryDirectory(prefix="cohsim-mutate-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(
            repo, root,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"),
        )
        src = root / "src"
        start = time.monotonic()
        if run_suite(root, None) != "passed":
            raise SystemExit(f"mutate: the unmutated suite fails in {repo}")
        timeout = 3.0 * (time.monotonic() - start) + 30.0
        report = {}
        for name in functions:
            module = _find(src, name)[0].relative_to(src).as_posix()
            entry = {"module": module, "mutants": 0, "killed": 0, "timeouts": 0, "survivors": []}
            for path, site, line, original, mutated, new in mutants(src, name):
                clean = path.read_bytes()
                path.write_bytes(new)
                try:
                    outcome = run_suite(root, timeout)
                finally:
                    path.write_bytes(clean)
                entry["mutants"] += 1
                entry["timeouts"] += outcome == "timeout"
                if outcome == "passed":
                    reason = REASONS.get(name, {}).get((line, original, mutated))
                    entry["survivors"].append({
                        "site": site, "line": line, "original": original, "mutant": mutated,
                        "reason": reason,
                    })
                else:
                    entry["killed"] += 1
                verdict = {"passed": "SURVIVED", "failed": "killed"}.get(outcome, outcome)
                print(f"{name} {site} {verdict}: {original} -> {mutated}", flush=True)
            report[name] = entry
    return {"command": " ".join(["python", *PYTEST]), "functions": report}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON report to write")
    parser.add_argument(
        "--repo", default=str(Path(__file__).resolve().parent.parent),
        help="checkout whose src/ and tests/ are swept (default: this one)",
    )
    parser.add_argument(
        "--functions", nargs="+", default=list(TARGETS), choices=TARGETS, metavar="NAME",
        help="target functions to sweep (default: all of TARGETS)",
    )
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the temporary copy is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    report = sweep(Path(args.repo).resolve(), args.functions)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in report["functions"].items():
        print(f"{name}: {entry['killed']} of {entry['mutants']} killed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
