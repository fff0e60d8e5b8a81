"""Every name in ``critlocus.__all__`` resolves and has a row in the README's
Python API table, which says what reaches it, and the table names nothing
else: a helper that only the tests call cannot join the public surface
without a line saying what reaches it."""

import re
from pathlib import Path

import critlocus

README = Path(__file__).resolve().parent.parent / "README.md"


def api_table_names():
    text = README.read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return [m.group(1) for m in re.finditer(r"^\| `(\w+)` \|", section, re.M)]


def test_every_public_name_resolves():
    missing = [name for name in critlocus.__all__ if not hasattr(critlocus, name)]
    assert not missing, missing


def test_readme_api_table_names_exactly_the_public_names():
    names = api_table_names()
    assert len(names) == len(set(names)), names
    assert set(names) == set(critlocus.__all__)
