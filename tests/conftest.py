"""Shared test set-up: subprocesses import the package from this checkout."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _src_on_subprocess_path(monkeypatch):
    # tests that chdir to tmp_path would otherwise lose a relative PYTHONPATH
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(SRC), *rest]))
