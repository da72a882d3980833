import contextlib
import io
import re
from pathlib import Path

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
