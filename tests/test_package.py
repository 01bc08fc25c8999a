"""The package surface: lazy exports, the modules a call imports, and its threads.

`import multigroup` loads no submodule: each exported name imports its
submodule on first use (PEP 562). A command-line call imports neither
`dataclasses` nor `concurrent.futures`. The command line sets
OPENBLAS_NUM_THREADS=1 before numpy loads, unless the variable is set, so a
call runs on one thread; a library import sets nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multigroup
from multigroup.carriers import Carrier, GroupAutomorphism, cyclic_group
from multigroup.constructions import MatrixOpParams, ZParityWindow
from multigroup.dsl import (
    CarrierAtom, CheckDecl, CompiledSpec, OpDecl, ParseDiagnostic, SpecDraft, SpecSource, Token,
    ValueNode,
)
from multigroup.errors import CarrierMismatchError, NotPrimeError, UnsupportedCarrierError
from multigroup.field import PrimeField
from multigroup.matrix import Matrix
from multigroup.optables import CHUNK_CELLS, GATHER_CELLS, AxiomReport, Multiset, OpTable

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
    # the script calls each law shape with its own tables, and scans through
    # scan_chunks at one and two jobs, so a change to a shape's signature or
    # to the scan's fails here rather than in the next timing run; the first
    # line names the chunk and gather budgets the figures were taken with
    out = _run("import runpy, sys\n"
               "sys.argv = ['scan_kernels.py', '--repeat', '1', '--threads', '2']\n"
               f"runpy.run_path({str(SCRIPTS / 'scan_kernels.py')!r}, run_name='__main__')")
    budgets, header, *lines = out.splitlines()
    assert budgets.split() == ["CHUNK_CELLS", str(CHUNK_CELLS), "GATHER_CELLS", str(GATHER_CELLS)]
    assert header.split() == ["shape", "n", "rows", "best", "ms", "peak", "KB",
                              "1-job", "ms", "2-job", "ms"]
    shapes = ["bracket", "mixed_distrib", "left_distrib", "brace_compatibility", "nvalued"]
    lines, (table_header, *steps) = lines[:20], lines[20:]
    assert [line.split()[:2] for line in lines] == [
        [shape, str(n)] for n in (24, 81, 360, 625) for shape in shapes]
    assert all(len(line.split()) == 7 for line in lines)
    # then the table layer: Cayley tables, each construction's gather and
    # both divisibility sides, one best time each
    assert table_header.split() == ["table", "step", "carrier", "best", "ms"]
    gl, matrices, product, s5 = "gl(2,5)", "matrices(2,5)", "symmetric(5) x cyclic(4)", "symmetric(5)"
    pairs, square = "vectors(2,3) x gl(2,3)", "cyclic(20) x cyclic(20)"
    assert [line.rsplit(None, 1)[0].split(None, 1) for line in steps] == [
        ["cayley", gl], ["cayley", matrices], ["cayley", product], ["gl_group_op", gl],
        ["matrix_op", matrices], ["conj_quandle", gl], ["core_quandle", product],
        ["alexander_quandle", s5], ["vxg_phi_op", pairs], ["vxg_conj_op", pairs],
        ["pair_dimonoid", square], ["action_dimonoid", pairs], ["divisibility_left", gl],
        ["divisibility_right", gl]]
    assert all(float(line.rsplit(None, 1)[1]) >= 0 for line in steps)


def test_cli_calls_import_neither_dataclasses_nor_the_executor():
    # defining a dataclass execs generated source, and concurrent.futures
    # pulls in logging and queue: start-up that every call would pay. The
    # late spec's scan spans five chunks, so at --jobs 2 helper threads run
    late = str(GOLDEN / "decided_late.mg")
    out = _run(
        "import contextlib, io, json, sys\n"
        "import multigroup.cli as cli\n"
        "GUARDED = ('dataclasses', 'concurrent.futures')\n"
        "seen = [['import', None, [m for m in GUARDED if m in sys.modules]]]\n"
        f"for argv in (['verify', {late!r}, '--jobs', '1'], ['verify', {late!r}, '--jobs', '2'],\n"
        "             ['demo']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv + ['--no-timing'])\n"
        "    seen.append([' '.join(argv[:1] + argv[2:]), code, [m for m in GUARDED if m in sys.modules]])\n"
        "print(json.dumps(seen))\n"
    )
    assert json.loads(out) == [["import", None, []], ["verify --jobs 1", 1, []],
                               ["verify --jobs 2", 1, []], ["demo", 0, []]]


def _records():
    """(type, field names, positional arguments, the fields they give) for every record type.

    The fields differ from the arguments where the type normalises them:
    Matrix reduces its rows and MatrixOpParams its s and t mod p.
    """
    f5, z3 = PrimeField(5), cyclic_group(3)
    tok = Token("ident", "q", 1, 2)
    src = SpecSource("carrier cyclic(3);", "x.mg")
    m = Matrix(f5, ((1, 2), (0, 1)))
    op = OpTable(z3, z3.cayley, "plus")
    same = None  # the fields are the arguments
    return [
        (SpecSource, ("text", "origin"), ("carrier cyclic(3);", "x.mg"), same),
        (ParseDiagnostic, ("severity", "line", "column", "message"), ("error", 1, 2, "bad"), same),
        (Token, ("kind", "text", "line", "column"), ("ident", "q", 1, 2), same),
        (CarrierAtom, ("name", "args", "token"), ("cyclic", (3,), tok), same),
        (ValueNode, ("kind", "value", "token"), ("int", 3, tok), same),
        (OpDecl, ("name", "token", "ctor", "ctor_token", "args"), ("q", tok, "core_quandle", tok, ()),
         same),
        (CheckDecl, ("name", "token", "operands"), ("assoc", tok, (("q", tok),)), same),
        (Multiset, ("entries",), (((0, 2), (1, 1)),), same),
        (AxiomReport, ("axiom", "verdict", "witness", "checked", "reason"),
         ("assoc", "fail", (0, 1, 2), 27, "why"), same),
        (PrimeField, ("p",), (5,), same),
        (Matrix, ("field", "rows"), (f5, ((6, -3), (0, 11))), (f5, ((1, 2), (0, 1)))),
        (MatrixOpParams, ("s", "t", "m1", "m2"), (7, -1, m, m), (2, 4, m, m)),
        (ZParityWindow, ("lo", "hi"), (-2, 3), same),
        (Carrier, ("kind", "elements", "label", "identity", "is_group", "field", "dim", "factors",
                   "group"), ("cyclic-group", (0, 1, 2), "c3", 0, True, None, None, None, None), same),
        (OpTable, ("carrier", "table", "label"), (z3, z3.cayley, "plus"), same),
        (GroupAutomorphism, ("carrier", "images", "label"), (z3, (0, 2, 1), "neg"), same),
        (CompiledSpec, ("source", "carrier", "ops", "checks"), (src, z3, {"q": op}, ()), same),
        (SpecDraft, ("source", "statements", "diagnostics", "values", "carrier"),
         (src, [("op-name", tok)], [], {"q": {}}, z3), same),
    ]


BY_IDENTITY = {Carrier, OpTable, GroupAutomorphism, CompiledSpec}


def test_records_keep_their_construction_equality_and_immutability():
    # the memo and the cached tables rely on an OpTable's grid and a
    # Carrier's elements never changing, so every record but the draft,
    # which the parser and validation fill in, refuses assignment
    records = _records()
    assert len(records) == 18
    for cls, names, args, fields in records:
        made = [cls(*args), cls(**dict(zip(names, args)))]
        for record in made:
            assert tuple(getattr(record, name) for name in names) == (fields or args), cls
        first, second = made
        if cls is SpecDraft:
            first.carrier = None
            assert first.carrier is None and SpecDraft(args[0]).statements == []
            assert SpecDraft(args[0]).values is not SpecDraft(args[0]).values
            continue
        if cls in BY_IDENTITY:
            assert first != second and first == first and len({first, second}) == 2, cls
        else:
            assert first == second and hash(first) == hash(fields or args), cls
        for name in (names[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(first, name, getattr(first, names[0]))
        with pytest.raises(AttributeError):
            delattr(first, names[0])
        assert getattr(first, names[0]) == getattr(second, names[0]), cls


def test_records_refuse_what_they_refused_and_keep_their_defaults():
    z3 = cyclic_group(3)
    with pytest.raises(NotPrimeError, match="modulus 4 is not prime"):
        PrimeField(4)
    with pytest.raises(ValueError, match=r"empty window \(2, 1\)"):
        ZParityWindow(2, 1)
    with pytest.raises(UnsupportedCarrierError, match="unknown carrier kind 'ring'"):
        Carrier("ring", (0, 1), "r")
    with pytest.raises(CarrierMismatchError, match=r"table shape \(3, 2\)"):
        OpTable(z3, np.zeros((3, 2), dtype=np.int16))
    # and their defaults are those they had
    report = AxiomReport("assoc", "pass", None, 27)
    assert report.reason is None and report.exhaustive is True
    c1 = Carrier("cyclic-group", (0,), "c1")
    assert (c1.identity, c1.is_group, c1.field, c1.dim, c1.factors, c1.group) == (
        None, False, None, None, None, None)
    assert SpecSource("x").origin == "<string>"
    assert OpTable(z3, z3.cayley).label == "op" and GroupAutomorphism(z3, (0, 1, 2)).label == "phi"


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


@pytest.mark.parametrize("call", [
    ENTRY_POINTS["module"],
    "from multigroup.cli import main\nmain(['demo', 'S3-unit', '--no-timing'])\n",
], ids=["module-verify", "cli-main-demo"])
def test_cli_calls_load_no_argument_parser(tmp_path, call):
    # argparse and gettext took 2 ms of import, and gettext imported locale,
    # 1.2-1.8 ms more, the first time argparse translated a message
    spec = tmp_path / "pass.mg"
    spec.write_text(PASSING, encoding="utf-8")
    out = _run(f"SPEC = {str(spec)!r}\n" + call +
               "import sys\nprint([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n")
    assert out.splitlines()[-1] == "[]"
