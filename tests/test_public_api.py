"""The README's Public API list is the set of names ``import dini`` exports."""

import re
import types
from pathlib import Path

import dini

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_exactly_the_exported_names():
    section = README.read_text().split("\n## Public API\n", 1)[1]
    bullets = section[section.index("\n- ") :].split("\n\n", 1)[0]
    listed = set(re.findall(r"`(\w+)`", bullets))
    exported = {
        name
        for name, value in vars(dini).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert listed == exported
