import importlib.util
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants",
                                                  TESTS / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = load_mutants().MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m[3].split("::")[1])
def test_mutant_still_applies(mutant):
    # Each mutant edits one place of the package, and its killing test
    # still exists; `python tests/mutants.py` runs them.
    path, old, new, test = mutant
    assert path.startswith("src/ripgd/") and old != new
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
    test_file, name = test.split("::")
    assert re.search(r"^def %s\(" % name,
                     (ROOT / test_file).read_text(encoding="utf-8"), re.M)
