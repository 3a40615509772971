"""The README's Library example runs and prints what its comments say,
and each of its command-line examples runs."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from cohsim.cli import main

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
