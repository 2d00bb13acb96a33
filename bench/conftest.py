"""Import the package from src/ and the harness modules from this directory."""

import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


@pytest.fixture(scope="session", autouse=True)
def in_work_dir(tmp_path_factory):
    """The harness writes its inputs and trace files under the working directory."""
    previous = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("work"))
    yield
    os.chdir(previous)
