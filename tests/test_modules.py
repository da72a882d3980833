"""Module boundaries of the opcalc package."""

import ast
import pathlib

import opcalc

SRC = pathlib.Path(opcalc.__file__).parent


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
