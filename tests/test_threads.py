"""The BLAS thread default that ``import opcalc`` applies as it loads numpy."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import opcalc

SRC = pathlib.Path(opcalc.__file__).parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# run in a fresh interpreter: import as told, then count this process's
# threads (OpenBLAS starts its workers as it loads) and read the variables
COUNT_TASKS = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
exec(sys.argv[2])
print(json.dumps({"tasks": len(os.listdir("/proc/self/task")),
                  "env": {name: os.environ.get(name) for name in sys.argv[3:]}}))
"""


def tasks_after(imports: str, **env) -> dict:
    """Threads and thread variables of a fresh interpreter that ran
    ``imports``, with none of THREAD_VARS set but those given in ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_TASKS, str(SRC.parent), imports, *THREAD_VARS],
        env={**base, **env}, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


needs_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/task and two cores to tell one BLAS thread from several",
)


@needs_tasks
@pytest.mark.parametrize("imports", ["import opcalc", "import opcalc.krylov"])
def test_one_blas_thread_by_default(imports):
    # OpenBLAS starts no worker, and the variable set for the load is gone again
    assert tasks_after(imports) == {"tasks": 1, "env": dict.fromkeys(THREAD_VARS)}


@needs_tasks
@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_count_the_user_set_wins(name):
    found = tasks_after("import opcalc", **{name: "2"})
    assert found == {"tasks": 2, "env": {**dict.fromkeys(THREAD_VARS), name: "2"}}


@needs_tasks
def test_numpy_loaded_first_keeps_its_threads():
    found = tasks_after("import numpy; import opcalc")
    assert found["tasks"] > 1
    assert found["env"] == dict.fromkeys(THREAD_VARS)


def _sets_thread_count(node: ast.AST) -> bool:
    return any(isinstance(t, ast.Subscript) and "OPENBLAS_NUM_THREADS" in ast.unparse(t)
               for sub in ast.walk(node) if isinstance(sub, ast.Assign) for t in sub.targets)


def _loads_numpy_or_opcalc(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            if any(a.name.split(".")[0] in ("numpy", "opcalc") for a in sub.names):
                return True
        elif isinstance(sub, ast.ImportFrom):
            if sub.level or (sub.module or "").split(".")[0] in ("numpy", "opcalc"):
                return True
    return False


def late_thread_default(path: pathlib.Path) -> list[str]:
    """"line: problem" for each way the package file at ``path`` departs
    from opening with the thread block: after the docstring only ``import
    os``/``import sys`` and plain assignments, then the statement that sets
    OPENBLAS_NUM_THREADS, then a ``try`` that imports numpy and whose
    ``finally`` deletes the variable, before any other import of numpy or
    of an opcalc module."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    set_at = next((i for i, node in enumerate(body) if _sets_thread_count(node)), None)
    load_at = next((i for i, node in enumerate(body) if _loads_numpy_or_opcalc(node)), None)
    if set_at is None or load_at is None:
        return ["0: no thread default before numpy loads"]
    found = []
    for node in body[:set_at]:
        plain = isinstance(node, ast.Assign) or (
            isinstance(node, ast.Import) and all(a.name in ("os", "sys") for a in node.names))
        if not plain or _loads_numpy_or_opcalc(node):
            found.append(f"{node.lineno}: code before the thread default")
    load = body[load_at]
    restores = isinstance(load, ast.Try) and any(
        isinstance(n, ast.Delete) and "OPENBLAS_NUM_THREADS" in ast.unparse(n)
        for n in ast.walk(ast.Module(body=load.finalbody, type_ignores=[])))
    if load_at != set_at + 1 or not restores:
        found.append(f"{load.lineno}: first load is not the try that restores the variable")
    return found


def test_thread_block_is_the_first_code_of_the_package():
    assert late_thread_default(SRC / "__init__.py") == []


def test_thread_guard_sees_a_late_block(tmp_path):
    src = tmp_path / "__init__.py"
    block = (
        "import os\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "try:\n    import numpy\nfinally:\n    del os.environ['OPENBLAS_NUM_THREADS']\n"
    )
    src.write_text('"""Doc."""\n' + block + "from . import torus\n")
    assert late_thread_default(src) == []
    src.write_text('"""Doc."""\nfrom . import torus\n' + block)
    assert late_thread_default(src) == ["2: code before the thread default",
                                        "2: first load is not the try that restores the variable"]
    src.write_text(block.replace("finally:\n    del", "except ImportError:\n    del"))
    assert late_thread_default(src) == ["3: first load is not the try that restores the variable"]
    src.write_text("import numpy\n")
    assert late_thread_default(src) == ["0: no thread default before numpy loads"]
