import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import triposet
from triposet import errors, triangle
from triposet.poset import _Layout

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_every_error_class_is_in_errors_all():
    defined = [
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
        and obj.__module__ == errors.__name__
    ]
    assert sorted(defined) == sorted(errors.__all__)


def test_package_all_is_the_sorted_union_of_the_submodule_alls():
    names = [name for m in submodules_with_all() for name in m.__all__]
    assert triposet.__all__ == sorted(names)


def perfbench_modules():
    """``MODULES`` of ``perfbench/workloads.py``, read without running it."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    [modules] = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["MODULES"]
    ]
    return modules


def after_cli_import(expr):
    """What ``expr`` prints in a fresh process that has run ``import triposet.cli``."""
    src = Path(triposet.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, triposet.cli; print({expr})"],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def test_every_perfbench_wrap_site_resolves():
    """Each attribute the benchmark's tracer wraps must exist where it looks.

    ``WRAPS`` comes from ``perfbench/tracing.py``, which imports only the
    standard library; ``MODULES`` is read from ``perfbench/workloads.py``
    without running it.
    """
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = {m: importlib.import_module(f"triposet.{m}") for m in perfbench_modules()}
    sites = [site for _, _, sites, _ in tracing.WRAPS for site in sites]
    unresolved = []
    for site in sites:
        module, *path, attr = site.split(".")
        owner = mods.get(module)
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            unresolved.append(site)
    assert len(sites) > 20
    assert unresolved == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    """A cold CLI process pays for every module it imports."""
    assert after_cli_import("sorted({'dataclasses', 'inspect'} & set(sys.modules))") == "[]"


def test_cli_import_loads_no_string():
    """``string`` compiles the ``string.Template`` pattern when it is imported."""
    assert after_cli_import("'string' in sys.modules") == "False"


def test_cli_import_loads_every_module_the_benchmark_reads():
    """The benchmark imports ``triposet.cli`` and then reads each of its
    ``MODULES`` from ``sys.modules``; a module the CLI imported lazily
    would break every benchmark set-up."""
    modules = perfbench_modules()
    assert "triangle" in modules
    probe = f"[m for m in {list(modules)!r} if 'triposet.' + m not in sys.modules]"
    assert after_cli_import(probe) == "[]"


def unused_imports(source):
    """The names an ``import`` in ``source`` binds and nothing reads, as
    ``line: name``; a star import, a ``__future__`` import, a name listed in
    ``__all__`` and an alias whose line carries ``# noqa: F401`` are left out."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                waived = "# noqa: F401" in lines[alias.lineno - 1]
                if name != "*" and name not in read and not waived:
                    unused.append(f"{alias.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_reads():
    package = Path(triposet.__file__).resolve().parent
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
    sample = "import a.b\nfrom c import (\n    d as e,\n    f,  # noqa: F401\n)\nprint(a)\n"
    assert unused_imports(sample) == ["3: e"]


def dead_private_names(sources):
    """The module-level private functions and classes in ``sources`` (module
    name -> source) that no statement other than their own definition reads,
    by name or as an attribute, as ``module.name``."""
    defined, read = [], {}
    for module, source in sources.items():
        for at, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and (
                stmt.name.startswith("_") and not stmt.name.startswith("__")
            ):
                defined.append((module, at, stmt.name))
            for node in ast.walk(stmt):
                used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if used:
                    read.setdefault(used, set()).add((module, at))
    return [f"{module}.{name}" for module, at, name in defined
            if not read.get(name, set()) - {(module, at)}]


def test_every_private_definition_is_read_in_the_package():
    """A private helper that only tests or the benchmark call does not stay."""
    package = Path(triposet.__file__).resolve().parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert dead_private_names(sources) == []
    sample = {
        "a": "def _used():\n    pass\n\ndef _self():\n    return _self()\n\n"
             "class _Dead:\n    pass\n",
        "b": "from a import _used\n\n_used()\n\ndef __dunder__():\n    pass\n",
    }
    assert dead_private_names(sample) == ["a._self", "a._Dead"]


def cache_reads(sources):
    """``module: what`` for each top-level statement of ``sources`` (module
    name -> source) that reads ``lru_cache`` or ``cache``, by name or as an
    attribute, imports aside: a function or class as its name and
    parameters, anything else as its source."""
    found = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or not any(
                (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
                in ("lru_cache", "cache") for node in ast.walk(stmt)
            ):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                params = ast.unparse(stmt.args) if isinstance(stmt, ast.FunctionDef) else ""
                found.append(f"{module}: {stmt.name}({params})")
            else:
                found.append(f"{module}: {ast.unparse(stmt)}")
    return found


def test_the_layout_is_the_only_per_poset_cache():
    """One ``lru_cache`` in the package, the layout's, with one entry: no
    second per-poset table comes back with its own cache.  The only other
    cache is on a function that takes no arguments."""
    package = Path(triposet.__file__).resolve().parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert cache_reads(sources) == [
        "poset: _layout = lru_cache(maxsize=1)(_Layout)",
        "triangle: _bit_tables()",
    ]
    sample = {
        "a": "from functools import cache, lru_cache\n\n@cache\ndef _table():\n    pass\n",
        "b": "import functools\n\n@functools.lru_cache(maxsize=1)\ndef _steps(poset):\n"
             "    pass\n\nclass _Rows:\n    pass\n\n_rows = functools.cache(_Rows)\n",
    }
    assert cache_reads(sample) == ["a: _table()", "b: _steps(poset)",
                                   "b: _rows = functools.cache(_Rows)"]


def fields_read(sources):
    """The attribute names the ``sources`` read, outside ``_Layout.__init__``."""
    read = set()
    for source in sources:
        tree = ast.parse(source)
        builder = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "_Layout"
                   for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                   for node in ast.walk(fn)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load) and id(node) not in builder}
    return read


def test_every_layout_field_is_read_outside_its_builder():
    """Every poset pays for every table the layout builds, so each name in
    ``_Layout.__slots__`` is read somewhere in the package outside
    ``_Layout.__init__``."""
    package = Path(triposet.__file__).resolve().parent
    read = fields_read(path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py")))
    assert [name for name in _Layout.__slots__ if name not in read] == []
    sample = ("class _Layout:\n    def __init__(self, poset):\n        self.cut = []\n"
              "        self.cut.append(0)\n        self.stable = self.cut[:]\n\n"
              "    def covering(self):\n        return self.cut\n")
    assert fields_read([sample]) >= {"cut"} and not fields_read([sample]) & {"stable", "append"}


CONVERSION_FIELDS = ("alt", "push", "pull")


def attribute_reads(source, names):
    """``line: name`` for each attribute in ``names`` that ``source`` reads."""
    return [f"{node.lineno}: {node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_the_axiom_modules_never_read_the_conversion_tables():
    """``nucleus.py`` and ``topology.py`` share the layout with the kernels
    but not its conversion fields, so their enumerators and validators stay
    an oracle independent of the conversions."""
    package = Path(triposet.__file__).resolve().parent
    assert set(CONVERSION_FIELDS) <= set(_Layout.__slots__)
    reads = {name: attribute_reads((package / f"{name}.py").read_text(encoding="utf-8"),
                                   CONVERSION_FIELDS)
             for name in ("nucleus", "topology", "triangle")}
    assert reads["nucleus"] == reads["topology"] == []
    assert {read.split(": ")[1] for read in reads["triangle"]} == set(CONVERSION_FIELDS)
    assert attribute_reads("x = layout.steps\ny = layout.push[0]\n", CONVERSION_FIELDS) == [
        "2: push"]


EXPANSIONS = ("_images", "_families")


def names_read(source, names):
    """``line: name`` for each of ``names`` that ``source`` imports or reads,
    by name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(alias.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
    return [f"{line}: {name}" for line, name in found if name in names]


def test_the_triangle_reads_each_census_only_off_its_planes():
    """The generator expansions of ``nucleus.py`` and ``topology.py`` serve
    the public enumerators; ``triangle.py`` lists a census by lowering its
    planes, so its laws have one source for census values."""
    package = Path(triposet.__file__).resolve().parent
    assert names_read((package / "triangle.py").read_text(encoding="utf-8"), EXPANSIONS) == []
    sample = "from m import (\n    _images,\n)\nx = m._families\ny = _families_to_table\n"
    assert names_read(sample, EXPANSIONS) == ["2: _images", "4: _families"]


# the functions of ``triangle.py`` that may read ``_transpose``, the one
# lowering and the lift of generator masks; the lift of subsets is the third
TRANSPOSERS = ("_columns", "_mask_planes")


def transpose_reads(source):
    """``line: _transpose`` for each read of ``_transpose`` in ``source``
    outside the functions ``TRANSPOSERS`` and the lift of ``_SUBSET``."""
    tree, allowed = ast.parse(source), set()
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name in TRANSPOSERS:
            allowed |= {id(node) for node in ast.walk(stmt)}
        elif isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "_SUBSET":
            lift = stmt.value.args[triangle._Corner._fields.index("lift")]
            allowed |= {id(node) for node in ast.walk(lift)}
    return [f"{node.lineno}: {node.id}" for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_transpose" and id(node) not in allowed]


def test_every_batch_is_lowered_through_the_columns():
    """A corner decodes the columns ``_columns`` lowers a batch to, so no
    other code in ``triangle.py`` transposes planes back to values."""
    package = Path(triposet.__file__).resolve().parent
    assert transpose_reads((package / "triangle.py").read_text(encoding="utf-8")) == []
    sample = ("def _columns(planes, w):\n    return _transpose(planes, w)\n\n\n"
              "def _lower(r, planes, w):\n    return _transpose(planes, w)\n\n\n"
              "_SUBSET = _Corner('subset', Subset, lambda r, xs: _transpose(xs, r.n),\n"
              "                  lambda r, planes, w: list(map(_transpose, planes)))\n")
    assert transpose_reads(sample) == ["6: _transpose", "10: _transpose"]
