import contextlib
import io
import re
from pathlib import Path

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
