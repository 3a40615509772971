"""``tools/mutate.py`` names live code: each target resolves to one
definition, and each known-equivalent survivor in ``REASONS`` is still a
mutant the tool makes. A rename or a cut in ``src/`` that leaves the tool
stale fails here, not only in the next sweep."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


mutate = _load_tool()


@pytest.mark.parametrize("name", mutate.TARGETS)
def test_every_target_has_one_definition(name):
    _, func = mutate._find(SRC, name)  # exits unless exactly one
    assert func.name == name.rpartition(".")[2]


@pytest.mark.parametrize("name", sorted(mutate.REASONS))
def test_every_reason_is_a_mutant_the_tool_makes(name):
    assert name in mutate.TARGETS
    made = {(line, old, new) for _, _, line, old, new, _ in mutate.mutants(SRC, name)}
    stale = [key for key in mutate.REASONS[name] if key not in made]
    assert stale == []
