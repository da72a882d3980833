"""Module boundaries of the opcalc package."""

import ast
import collections
import pathlib
import re

import opcalc

SRC = pathlib.Path(opcalc.__file__).parent
TESTS = pathlib.Path(__file__).parent


def private_reads(path: pathlib.Path) -> list[str]:
    """"line: module._name" for each underscore name of another opcalc module
    that the source file at ``path`` imports or reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").split(".")[0] == "opcalc"):
            continue
        for alias in node.names:
            if node.module in (None, "opcalc"):
                modules.add(alias.asname or alias.name)
            elif alias.name.startswith("_"):
                found.append(f"{node.lineno}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    found = {path.name: private_reads(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_guard_sees_both_import_forms(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from . import matcalc\nfrom .torus import _pointwise\nmatcalc._classify\n")
    assert private_reads(src) == ["2: torus._pointwise", "3: matcalc._classify"]


# the numpy calls that reach a BLAS reduction or product, which OpenBLAS
# runs on its thread pool at Krylov sizes
BLAS_CALLS = {f"{mod}.{name}" for mod in ("np", "numpy")
              for name in ("vdot", "dot", "inner", "tensordot", "matmul", "linalg.norm")}


def blas_calls(path: pathlib.Path) -> list[str]:
    """"line: call" for each call in BLAS_CALLS, and "line: @" for each
    matrix product, in the source file at ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, node.col_offset, "@"))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in BLAS_CALLS:
            found.append((node.lineno, node.col_offset, ast.unparse(node.func)))
    return [f"{line}: {what}" for line, _, what in sorted(found)]


def test_krylov_calls_no_blas_reduction():
    assert blas_calls(SRC / "krylov.py") == []


def test_blas_guard_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import numpy as np\n"
        "h = np.vdot(v, w)\n"
        "n = float(np.linalg.norm(w))\n"
        "x = y @ basis\n"
        "x @= y\n"
        "z = np.dot(a, b) + np.inner(a, b) + numpy.matmul(a, b)\n"
        "t = np.tensordot(r, m, axes=1)\n"
        "e = np.einsum('i,i->', v.conj(), w) + v.dot(w)\n"
    )
    assert blas_calls(src) == [
        "2: np.vdot", "3: np.linalg.norm", "4: @", "5: @",
        "6: np.dot", "6: np.inner", "6: numpy.matmul", "7: np.tensordot",
    ]


def _sets(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether ``call`` sets the parameter ``name``, at position ``index``
    (None if keyword-only): by keyword, by position, or through * or **."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def unset_options(sources, callers) -> list[str]:
    """"module:function.parameter" for each parameter with a default, of a
    function defined in the files ``sources``, that no call in the files
    ``callers`` sets.  Calls match by the called name; a class's calls count
    for its ``__init__``, and a method's positions start after self or cls."""
    calls = collections.defaultdict(list)
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                calls[getattr(node.func, "id", getattr(node.func, "attr", None))].append(node)
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            in_class = isinstance(owner[fn], ast.ClassDef)
            name = owner[fn].name if in_class and fn.name == "__init__" else fn.name
            decorators = {getattr(d, "id", None) for d in fn.decorator_list}
            skip = in_class and "staticmethod" not in decorators
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            options = [(a.arg, i - skip) for i, a in enumerate(args) if i >= first]
            options += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                        if d is not None]
            found += [f"{path.stem}:{name}.{arg}" for arg, index in options
                      if not any(_sets(call, arg, index) for call in calls[name])]
    return found


def test_every_option_is_set_by_some_call():
    sources = sorted(SRC.glob("*.py"))
    assert unset_options(sources, sources + sorted(TESTS.glob("*.py"))) == []


def test_option_guard_sees_an_unset_option(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "class C:\n"
        "    def __init__(self, a, b=2):\n        pass\n"
        "    def m(self, x, y=0, *, z=1):\n        pass\n"
        "def f(u, tol=1e-8):\n    pass\n"
        "C(1, 2).m(1, z=3)\n"
        "f(0, **{})\n"
    )
    assert unset_options([src], [src]) == ["mod:m.y"]


def public_definitions(path: pathlib.Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each public function and class of
    the module at ``path``, and of each public method of its classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
    return [(node.name, node.lineno, node.end_lineno) for scope in scopes
            for node in scope.body if isinstance(node, defs) and not node.name.startswith("_")]


def name_reads(path: pathlib.Path) -> list[tuple[str, int]]:
    """(name, line) of each name, attribute and imported name the file at
    ``path`` reads."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names]
    return found


def layout_names(readme: pathlib.Path) -> set[str]:
    """The identifiers in backticks in the README's "Library layout" table."""
    text = readme.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    rows = [line for line in text.split("\n## ", 1)[0].splitlines() if line.startswith("|")]
    return {name for row in rows for span in re.findall(r"`([^`]*)`", row)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def orphans(sources, readers, documented=frozenset()) -> list[str]:
    """"module:name" for each public function, class or method defined in
    the files ``sources`` that no file of ``readers`` reads outside its own
    definition, and that is not in ``documented``."""
    reads = collections.defaultdict(list)
    for path in readers:
        for name, line in name_reads(path):
            reads[name].append((path.resolve(), line))
    found = []
    for path in sources:
        for name, first, last in public_definitions(path):
            inside = lambda at: at[0] == path.resolve() and first <= at[1] <= last
            if name not in documented and all(inside(at) for at in reads[name]):
                found.append(f"{path.stem}:{name}")
    return found


def test_every_public_name_is_read():
    sources = sorted(SRC.glob("*.py"))
    readme = SRC.parent.parent / "README.md"
    assert orphans(sources, sources + sorted(TESTS.glob("*.py")), layout_names(readme)) == []


def test_orphan_guard_sees_a_planted_orphan(tmp_path):
    src, readme = tmp_path / "mod.py", tmp_path / "README.md"
    src.write_text(
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def _private():\n    pass\n"
        "def documented():\n    pass\n"
        "class Box:\n"
        "    def method(self):\n        return used()\n"
        "    def orphan_method(self):\n        pass\n"
        "Box().method()\n"
    )
    readme.write_text("## Library layout\n\n| `mod` | `documented(x)` |\n\n## Next\n`recursive`\n")
    assert orphans([src], [src], layout_names(readme)) == ["mod:recursive", "mod:orphan_method"]


def env_mismatches(sources, readme) -> list[str]:
    """Each OPCALC_* name that the files ``sources`` or the file ``readme``
    mention but the other side does not, as "source:NAME" or "README:NAME"."""
    pattern = re.compile(r"\bOPCALC_\w+")
    in_src = {name for path in sources
              for name in pattern.findall(path.read_text(encoding="utf-8"))}
    in_readme = set(pattern.findall(readme.read_text(encoding="utf-8")))
    return sorted([f"source:{name}" for name in in_src - in_readme]
                  + [f"README:{name}" for name in in_readme - in_src])


def test_every_environment_variable_is_documented():
    readme = SRC.parent.parent / "README.md"
    assert env_mismatches(sorted(SRC.rglob("*.py")), readme) == []


def test_environment_guard_sees_both_sides(tmp_path):
    src, readme = tmp_path / "mod.py", tmp_path / "README.md"
    src.write_text('import os\nos.environ.get("OPCALC_MEMORY_MB")\nos.environ["OPCALC_SEED"]\n')
    readme.write_text("`OPCALC_SEED=n` seeds every suite; `OPCALC_THREADS=n` is gone.\n")
    assert env_mismatches([src], readme) == ["README:OPCALC_THREADS", "source:OPCALC_MEMORY_MB"]
