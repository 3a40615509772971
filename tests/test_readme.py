"""The README's Library example runs and prints what its comments say,
and each of its command-line examples runs."""

import contextlib
import io
import json
import math
import re
import shlex
import types
from pathlib import Path

import pytest

import cohsim
from cohsim.cli import main
from cohsim.experiment import ExperimentConfig
from cohsim.reports import paradox_simulated_block

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first ``python`` code block under the README's Library heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_its_comments():
    source = library_example()
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), namespace)
    # Each print line's comment gives the printed value, before any "(" note.
    expected = [
        line.split("#", 1)[1].split("(")[0].strip()
        for line in source.splitlines()
        if line.startswith("print(")
    ]
    assert out.getvalue().splitlines() == expected
    verdict = namespace["verdict"]
    assert verdict.lhv_feasible is False and verdict.violation_gap == 1.0
    assert namespace["p"] == 5e-324
    assert round(namespace["log10_p"]) == -43407374


def test_all_names_the_package_namespace():
    """The Library example imports from ``cohsim``: a star-import works, and
    ``__all__`` names exactly the public names the package binds, its
    submodules aside."""
    exec("from cohsim import *", {})
    public = {
        name
        for name, value in vars(cohsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(cohsim.__all__) == public


def cli_examples() -> list[list[str]]:
    """Each line of the first ``sh`` block under the README's
    Command-line interface heading, as arguments to ``main``."""
    text = README.read_text()
    section = text[text.index("\n## Command-line interface\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "cohsim" for argv in argvs)
    return [argv[1:] for argv in argvs]


@pytest.mark.parametrize("argv", cli_examples(), ids=" ".join)
def test_cli_example_runs(argv, tmp_path, capsys):
    out = tmp_path / "out"
    # A later --out wins over one the example gives.
    assert main(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 0
    assert all((out / name).is_file() for name in manifest["output_files"])


# The acceptance gate's desk-scale config (criterion 5), about 1e5 pairs per setting.
DESK = ExperimentConfig(
    pair_rate=1e5, duration_per_setting=1.0, num_trials=1, visibility_v=0.99, efficiency=1.0
)


@pytest.mark.parametrize("seed", range(10))
def test_p_value_reads_as_the_readme_says(seed):
    """README's "Error bars and p-values": the simulated gap of the pi/4
    superposition along X lies within 3 standard errors of its closed form
    ``v sin 2 theta``, and ``-log10 p`` within the band that
    ``N g^2 / (2 ln 10) - log10 2`` gives as the gap ``g`` moves by 3 of them."""
    theta = math.pi / 4
    _spec, rows, verdict, _counts = paradox_simulated_block(theta, "X", DESK.replace(seed=seed))
    mixed = next(row for row in rows if row["label"] == "00")
    components = [row for row in rows if row["label"] != "00" and row["observable"] == "XX"]
    assert len(components) == 2
    se = math.hypot(mixed["std_err"], max(row["std_err"] for row in components))
    gap = verdict["violation_gap"]
    assert abs(gap - 0.99 * math.sin(2.0 * theta)) <= 3.0 * se

    def minus_log10_p(g: float) -> float:
        return mixed["n_total"] * g * g / (2.0 * math.log(10.0)) - math.log10(2.0)

    low, high = minus_log10_p(max(0.0, gap - 3.0 * se)), minus_log10_p(gap + 3.0 * se)
    assert low <= -verdict["log10_p_value"] <= high
