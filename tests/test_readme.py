"""The README's Library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
