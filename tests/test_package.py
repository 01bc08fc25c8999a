"""The package surface: lazy exports, and the thread pool the command line asks for.

`import multigroup` loads no submodule: each exported name imports its
submodule on first use (PEP 562). The command line sets
OPENBLAS_NUM_THREADS=1 before numpy loads, unless the variable is set, so a
call runs on one thread; a library import sets nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multigroup

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# OpenBLAS also sizes its pool from these two; an inherited value would keep a
# child on one thread whatever the command line does
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run(script, env_extra=None, **kwargs):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env, **kwargs)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule_and_sets_nothing():
    out = _run(
        "import json, os, sys\n"
        "env = dict(os.environ)\n"
        "import multigroup\n"
        "print(json.dumps(['numpy' in sys.modules, dict(os.environ) == env,\n"
        "                  sorted(m for m in sys.modules if m.startswith('multigroup'))]))\n"
    )
    assert json.loads(out) == [False, True, ["multigroup"]]


def test_every_export_resolves_in_a_fresh_process():
    out = _run(
        "import importlib, json\n"
        "import multigroup\n"
        "names = {}\n"
        "exec('from multigroup import *', names)\n"
        "print(json.dumps({\n"
        "    'bound': sorted(set(multigroup.__all__) - set(names)),\n"
        "    'wrong': [name for name in multigroup.__all__ if getattr(multigroup, name) is not\n"
        "              getattr(importlib.import_module('multigroup.' + multigroup._SOURCE[name]),\n"
        "                      name)],\n"
        "    'dir': sorted(set(multigroup.__all__) - set(dir(multigroup))),\n"
        "}))\n"
    )
    assert json.loads(out) == {"bound": [], "wrong": [], "dir": []}


def test_exports_are_the_public_api():
    assert multigroup.__version__ == "0.1.0"
    assert len(multigroup.__all__) == 68
    assert multigroup.__all__ == sorted(set(multigroup.__all__))
    assert set(multigroup.__all__) <= set(dir(multigroup))
    assert multigroup.check_associativity is multigroup.axioms.check_associativity
    assert multigroup.WorkbenchError is multigroup.errors.WorkbenchError
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        multigroup.no_such_name
    with pytest.raises(ImportError):
        exec("from multigroup import no_such_name", {})


@pytest.mark.parametrize("script", ["probe_brace_dimonoid", "probe_op_products"])
def test_probe_matches_golden_in_a_fresh_process(script):
    # the probes import their names from the package, which resolves them lazily
    out = _run(f"import runpy; runpy.run_path({str(SCRIPTS / f'{script}.py')!r}, "
               "run_name='__main__')")
    assert out == (GOLDEN / f"{script}.txt").read_text(encoding="utf-8")


def test_scan_kernel_script_runs_every_shape_in_a_fresh_process():
    # the script calls each law shape with its own tables, so a change to a
    # shape's signature fails here rather than in the next timing run
    out = _run("import runpy, sys\n"
               "sys.argv = ['scan_kernels.py', '--repeat', '1']\n"
               f"runpy.run_path({str(SCRIPTS / 'scan_kernels.py')!r}, run_name='__main__')")
    header, *lines = out.splitlines()
    assert header.split() == ["shape", "n", "rows", "best", "ms", "peak", "KB"]
    shapes = ["bracket", "mixed_distrib", "left_distrib", "brace_compatibility", "nvalued"]
    assert [line.split()[:2] for line in lines] == [
        [shape, str(n)] for n in (24, 81, 360, 625) for shape in shapes]


PASSING = "carrier symmetric(3);\nop q = conj_quandle(m=1);\ncheck quandle_right q;\n"

# what the child prints after its CLI call: its thread count (-1 when the
# system has no /proc/self/task) and the variable
REPORT = ("import os\n"
          "task = '/proc/self/task'\n"
          "print(len(os.listdir(task)) if os.path.isdir(task) else -1,"
          " os.environ.get('OPENBLAS_NUM_THREADS'))\n")

ENTRY_POINTS = {
    "cli-main": "from multigroup.cli import main\nmain(['verify', SPEC, '--no-timing'])\n",
    # what `python -m multigroup verify SPEC` runs
    "module": ("import runpy, sys\n"
               "sys.argv = ['multigroup', 'verify', SPEC, '--no-timing']\n"
               "try:\n"
               "    runpy.run_module('multigroup', run_name='__main__', alter_sys=True)\n"
               "except SystemExit as exc:\n"
               "    assert exc.code == 0, exc.code\n"),
}


def _cli_child(tmp_path, entry, env_extra=None):
    spec = tmp_path / "pass.mg"
    spec.write_text(PASSING, encoding="utf-8")
    script = f"SPEC = {str(spec)!r}\n" + ENTRY_POINTS[entry] + REPORT
    last = _run(script, env_extra).splitlines()[-1]
    threads, value = last.split()
    return int(threads), value


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_cli_starts_no_blas_thread_pool(tmp_path, entry):
    threads, value = _cli_child(tmp_path, entry)
    assert value == "1"
    if threads == -1 or (os.cpu_count() or 1) < 2:
        pytest.skip("no /proc/self/task, or one CPU: OpenBLAS starts no pool either way")
    assert threads == 1


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_cli_keeps_a_thread_count_the_user_set(tmp_path, entry):
    assert _cli_child(tmp_path, entry, {"OPENBLAS_NUM_THREADS": "3"})[1] == "3"
