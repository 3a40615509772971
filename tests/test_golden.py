"""Golden bytes: every data file of the pinned commands, hashed.

The CLI promises that the same command, seed and config reproduce every
data file bit for bit. This test holds that promise across code changes:
``golden_sha256.json`` stores the sha256 of each data file (all files
except ``manifest.json``, whose timing fields vary) for a fixed set of
default/seed-0 commands. A change that moves any byte fails here; one
that moves them on purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cohsim.cli import _blas_core, main

FIXTURE = Path(__file__).with_name("golden_sha256.json")

COMMANDS = (
    "report --seed 0",
    "paradox",
    "paradox --mode simulated",
    "game",
    "game --mode simulated",
    "game --strategy z --mode simulated",
    "dicke --n 3",
    "tomo",
    "visibility",
    "visibility --mode simulated",
)


def _versions() -> dict:
    """The versions the hashes are pinned to, and the BLAS kernel they were
    written with: some values differ in the last bit from kernel to kernel."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_core": _blas_core(),
    }


def data_file_hashes(command: str, out_dir: Path) -> dict[str, str]:
    """Run one command into ``out_dir``; sha256 of each file but the manifest."""
    code = main(command.split() + ["--out", str(out_dir)])
    if code != 0:
        raise AssertionError(f"'cohsim {command}' exited {code}")
    hashes = {}
    for root, _dirs, names in os.walk(out_dir):
        for name in names:
            path = Path(root) / name
            rel = path.relative_to(out_dir).as_posix()
            if rel != "manifest.json":
                hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return dict(sorted(hashes.items()))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_pinned_command(golden):
    assert list(golden["commands"]) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_data_files_match_golden_bytes(command, golden, tmp_path, capsys):
    got = data_file_hashes(command, tmp_path / "out")
    want = golden["commands"][command]
    if got != want:
        changed = sorted(
            name for name in set(got) | set(want) if got.get(name) != want.get(name)
        )
        pytest.fail(
            f"'cohsim {command}' changed data files {changed}; fixture versions"
            f" {golden['versions']}, running {_versions()}"
        )


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_sha256_matches_file_bytes(command, tmp_path, capsys):
    out = tmp_path / "out"
    on_disk = data_file_hashes(command, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sha256"] == on_disk
    listed = [name for name in manifest["output_files"] if name != "manifest.json"]
    assert sorted(manifest["sha256"]) == listed


@pytest.mark.parametrize("command", COMMANDS)
def test_json_data_files_have_one_format(command, tmp_path, capsys):
    # Every JSON data file is written alike: sorted keys, indent 2, final newline.
    out = tmp_path / "out"
    data_file_hashes(command, out)
    odd = []
    for path in sorted(out.rglob("*.json")):
        text = path.read_text()
        if text != json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n":
            odd.append(path.relative_to(out).as_posix())
    assert odd == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        doc = {
            "versions": _versions(),
            "commands": {
                cmd: data_file_hashes(cmd, Path(scratch) / str(i))
                for i, cmd in enumerate(COMMANDS)
            },
        }
    FIXTURE.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
