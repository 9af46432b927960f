import re
from pathlib import Path

import ripgd

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve():
    missing = [name for name in ripgd.__all__ if not hasattr(ripgd, name)]
    assert missing == []


def test_readme_library_sketch_imports():
    statements = re.findall(r"^from ripgd import \([^)]*\)",
                            README.read_text(encoding="utf-8"), re.MULTILINE)
    assert statements, "README has no 'from ripgd import (...)' line"
    for statement in statements:
        exec(statement, {})
