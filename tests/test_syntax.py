"""The package parses at the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = re.search(r'requires-python = ">=3\.(\d+)"',
                  (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
SOURCES = sorted((ROOT / "src" / "korthos").glob("*.py"))


def test_the_floor_and_the_sources_are_found():
    assert FLOOR and SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, int(FLOOR[1])))
