import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import ripgd

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_all_names_resolve():
    missing = [name for name in ripgd.__all__ if not hasattr(ripgd, name)]
    assert missing == []


def test_readme_library_sketch_imports():
    statements = re.findall(r"^from ripgd import \([^)]*\)",
                            README.read_text(encoding="utf-8"), re.MULTILINE)
    assert statements, "README has no 'from ripgd import (...)' line"
    for statement in statements:
        exec(statement, {})


def test_cli_import_defers_scipy_special():
    # scipy.special is loaded only once a 1-bit loss is built.
    code = (
        "import sys, numpy as np\n"
        "import ripgd.cli\n"
        "assert 'scipy.special' not in sys.modules\n"
        "from ripgd.losses import make_onebit_loss\n"
        "loss = make_onebit_loss(np.zeros((2, 2)))\n"
        "assert 'scipy.special' in sys.modules\n"
        "assert loss.grad(np.zeros((2, 2))).tolist() == [[0.0, 0.0], [0.0, 0.0]]\n"
    )
    src = str(Path(ripgd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    # The package root does not import ripgd.cli, so running it as a module
    # raises no runpy warning, even with warnings as errors.
    subprocess.run([sys.executable, "-W", "error", "-m", "ripgd.cli", "--help"],
                   check=True, env=env, stdout=subprocess.DEVNULL)


def test_benchmark_traced_names_exist():
    # perfbench replaces these callables by name and refuses to run if one
    # is gone; renaming one in ripgd must fail here, not only in the
    # traced benchmark.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    entries = [entry for group in tracing.TRACED.values() for entry in group]
    missing = []
    for module_name, path in entries + tracing.SolveClock.ENTRIES:
        owner = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path)
        if attr not in vars(owner):
            missing.append("%s.%s" % (module_name, path))
    assert missing == []
