import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import opcalc
from opcalc import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_worked_example_passes_both_checks():
    text = README.read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", text, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert sum(line.startswith("pass") for line in lines) == 2


def documented_readers() -> dict[str, set[str]]:
    """The config-key table of the README: key -> the probes that read it."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| key | read by | value |", 1)[1].split("\n\n", 1)[0]
    readers = {}
    for row in table.strip().splitlines()[1:]:
        keys, read_by, _ = (cell.strip() for cell in row.strip("|").split("|"))
        if read_by == "every probe":
            probes = set(cli.PROBE_KEYS)
        elif read_by.startswith("all but "):
            probes = set(cli.PROBE_KEYS) - set(read_by[len("all but "):].split(", "))
        else:
            probes = set(read_by.split(", "))
        for key in re.findall(r"`(\w+)`", keys):
            readers[key] = probes
    return readers


def test_config_key_table_matches_the_probes():
    actual = {key: {p for p, keys in cli.PROBE_KEYS.items() if key in keys} for key in cli.READERS}
    assert documented_readers() == actual


def layout_names() -> dict[str, list[str]]:
    """The library-layout table of the README: module -> the backticked
    identifiers of its row, a call's arguments dropped."""
    text = README.read_text(encoding="utf-8")
    table = text.split("## Library layout", 1)[1].split("| module", 1)[1].split("\n\n", 1)[0]
    names = {}
    for row in table.strip().splitlines()[2:]:
        module, contents = (cell.strip() for cell in row.strip("|").split("|", 1))
        names[module.strip("`")] = re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", contents)
    return names


def resolves(scope, dotted: str) -> bool:
    """Whether ``dotted`` names an attribute or a dataclass field of ``scope``."""
    for part in dotted.split("."):
        fields = getattr(scope, "__dataclass_fields__", {})
        if part not in fields and not hasattr(scope, part):
            return False
        scope = fields[part].type if part in fields else getattr(scope, part)
    return True


def test_layout_table_names_resolve():
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in vars(opcalc).values()
               if inspect.ismodule(m) and m.__name__.startswith("opcalc.")}
    names = layout_names()
    assert names.keys() <= modules.keys() | {"cli"}
    stale = []
    for row, found in names.items():
        module = importlib.import_module(f"opcalc.{row}")
        classes = [c for c in vars(module).values()
                   if inspect.isclass(c) and c.__module__ == module.__name__]
        # the row's module, one of its classes, or any opcalc module
        scopes = [module, *classes, opcalc, *modules.values()]
        stale += [(row, name) for name in found if not any(resolves(s, name) for s in scopes)]
    assert not stale
