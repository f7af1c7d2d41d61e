"""The README documents only what the package provides."""

from __future__ import annotations

import re
from pathlib import Path

import sctubes

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_functions() -> list[str]:
    """Backticked names before the colon of each "What you get" item."""
    section = README.read_text().split("## What you get", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- (.*?):", section, flags=re.MULTILINE | re.DOTALL)
    return [name for item in items for name in re.findall(r"`(\w+)`", item)]


def test_every_listed_function_exists():
    names = documented_functions()
    assert "roy_k_sample" in names and "sup_ratio" in names
    missing = [n for n in names if not callable(getattr(sctubes, n, None))]
    assert missing == []
