import importlib
import pkgutil

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
