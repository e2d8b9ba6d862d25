import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import triposet


def submodules_with_all():
    for info in pkgutil.iter_modules(triposet.__path__):
        mod = importlib.import_module(f"triposet.{info.name}")
        if hasattr(mod, "__all__"):
            yield mod


def test_every_submodule_export_is_a_package_export():
    mods = list(submodules_with_all())
    assert {m.__name__ for m in mods} >= {
        "triposet.formats", "triposet.heyting",
        "triposet.nucleus", "triposet.poset", "triposet.topology", "triposet.triangle",
    }
    missing = [
        f"{m.__name__}.{name}" for m in mods for name in m.__all__
        if name not in triposet.__all__
    ]
    assert missing == []


def test_every_package_export_resolves():
    assert len(set(triposet.__all__)) == len(triposet.__all__)
    unresolved = [name for name in triposet.__all__ if not hasattr(triposet, name)]
    assert unresolved == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    """A cold CLI process pays for every module it imports."""
    src = Path(triposet.__file__).resolve().parent.parent
    probe = (
        "import sys, triposet.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
