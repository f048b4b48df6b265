"""Shared fixtures: keep the compile cache hermetic.

The CLI enables the on-disk compile cache by default; pointing
``REPRO_MSC_CACHE`` at a per-test temporary directory keeps test runs
from reading or writing the developer's real ``~/.cache/repro-msc``.
"""

import pytest


@pytest.fixture(autouse=True)
def _hermetic_compile_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MSC_CACHE", str(tmp_path / "msc-cache"))
