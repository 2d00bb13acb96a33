"""The pinned grid gives the golden numbers on every local CPython >= 3.10.

The determinism contract covers every interpreter that pyproject.toml
admits. This test writes the grid's sweep spec under the main
interpreter, then runs the grid serially under each other CPython >= 3.10
it finds, through the plain script tests/pinned_grid.py, which first
generates the pinned corpus and trains its LM under that interpreter;
every cell is compared with bench/golden.json. Interpreters are looked
for in pyenv's versions directory and as python3.N on PATH; with none
found the test skips. The package needs no numpy: the last test runs
make-synthetic with numpy unimportable.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from retransim import translator
from retransim.cli import main
from retransim.sim import RunConfig
from retransim.strategy import StrategyConfig
from retransim.synthetic import synthetic_paths, toy_translator_spec

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden.json"
SCRIPT = Path(__file__).resolve().parent / "pinned_grid.py"
_PROBE = "import sys; print(sys.implementation.name, *sys.version_info[:2])"


def _other_interpreters() -> list[tuple[str, str]]:
    """(major.minor, executable): one per CPython >= 3.10 other than this one."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    candidates = [str(p) for p in sorted(versions.glob("3.*/bin/python3"))]
    candidates += [exe for m in range(10, 20) if (exe := shutil.which(f"python3.{m}"))]
    found: dict[tuple[int, int], str] = {}
    for exe in candidates:
        match = re.search(r"(?:^|/|python)3\.(\d+)", exe)
        if match is None:
            continue
        version = (3, int(match.group(1)))
        if version < (3, 10) or version == sys.version_info[:2] or version in found:
            continue
        try:
            probe = subprocess.run(
                [exe, "-c", _PROBE], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.split() == ["cpython", *map(str, version)]:
            found[version] = exe
    return [(f"{v[0]}.{v[1]}", exe) for v, exe in sorted(found.items())]


_INTERPRETERS = _other_interpreters()


@pytest.fixture(scope="module")
def grid_spec() -> str:
    """The grid's sweep spec over the pinned inputs, under the benchmark's
    relative paths, so that the run headers and with them the digests match."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    paths = {k: Path(v).as_posix() for k, v in synthetic_paths("inputs").items()}
    base = RunConfig(
        source_path=paths["source"],
        reference_path=paths["reference"],
        translator=dict(toy_translator_spec(paths["lexicon"], 0.5), seed=golden["seed"]),
        strategy=StrategyConfig("none"),
        lm_path="inputs/lm.json",
    )
    spec = {
        "base": base.to_dict(),
        "axes": {"k_mask": list(range(1, 11))},
        "dynamic_cells": [
            {"strategy": "lm_greedy", "k": 1, "n": 1},
            {"strategy": "random", "k": 5, "n": 3},
            {"strategy": "lm_sample", "k": 3, "n": 3},
        ],
    }
    return json.dumps(spec)


@pytest.mark.skipif(not _INTERPRETERS, reason="no other CPython >= 3.10 found")
@pytest.mark.parametrize(
    "version,exe", _INTERPRETERS or [("none", "")], ids=[v for v, _ in _INTERPRETERS] or ["none"]
)
def test_pinned_grid_matches_golden_under(version, exe, grid_spec, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    (tmp_path / "spec.json").write_text(grid_spec, encoding="utf-8")
    child = subprocess.run(
        [exe, str(SCRIPT), "spec.json"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["python"].startswith(version + ".")
    # the child takes the kernel path whenever this interpreter does
    assert report["kernel"] is (translator._kernel is not None)
    assert len(report["cells"]) == 13
    for label, seen in report["cells"].items():
        assert seen == golden["cells"][label], (version, label)


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # every import of numpy now fails
import retransim.cli
sys.exit(retransim.cli.main(["make-synthetic", "--out-dir", "work"]))
"""


def test_cli_import_leaves_numpy_out(tmp_path, monkeypatch, capsys):
    # nothing in the package imports numpy, make-synthetic included; its
    # files equal those of a run in this process
    child_dir, own_dir = tmp_path / "child", tmp_path / "own"
    child_dir.mkdir()
    own_dir.mkdir()
    child = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY],
        cwd=child_dir,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    monkeypatch.chdir(own_dir)
    assert main(["make-synthetic", "--out-dir", "work"]) == 0
    assert child.stdout == capsys.readouterr().out
    names = ["run.json", "synthetic.lexicon", "synthetic.ref", "synthetic.src"]
    assert sorted(p.name for p in (child_dir / "work").iterdir()) == names
    for name in names:
        assert (child_dir / "work" / name).read_bytes() == (own_dir / "work" / name).read_bytes()
