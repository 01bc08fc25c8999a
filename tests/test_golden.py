"""Byte-for-byte pins of the command line and probe outputs.

tests/golden holds small spec files that together reach all 16 check names
and every failure reason the DSL's constructions produce, next to the
recorded stdout of `verify --no-timing` in both formats, and `demo
--no-timing` in both formats. The recorded files come from a run at --jobs 1;
every --jobs value must reproduce them. To
re-record after an intended output change, run from tests/golden (the
PYTHONPATH prefix finds the package in a checkout without an install):

    PYTHONPATH=../../src python3 -m multigroup verify NAME.mg --no-timing --format json > NAME.json
    PYTHONPATH=../../src python3 -m multigroup verify NAME.mg --no-timing > NAME.txt
    PYTHONPATH=../../src python3 -m multigroup demo --no-timing --format json > demo.json
    PYTHONPATH=../../src python3 -m multigroup demo --no-timing > demo.txt
    PYTHONPATH=../../src python3 ../../scripts/probe_brace_dimonoid.py > probe_brace_dimonoid.txt
    PYTHONPATH=../../src python3 ../../scripts/probe_op_products.py > probe_op_products.txt
    PYTHONPATH=../../src python3 -m multigroup enumerate "EXPR" --list > enumerate_NAME.txt

with NAME and EXPR from ENUMERATE below.

A search over the constructions on small carriers found no spec that fails
with reason `no-solution` or `quandle_*: distrib_*`; the library tests in
test_axioms.py cover those reasons.

The recorded reports are not only the program's own word: on every spec
whose carrier has at most 48 elements, each pinned check entry is held to
the plain loops of tests/reference.py, run on the spec's tables as lists.
"""

import json
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reference
from multigroup.cli import main
from multigroup.dsl import SpecSource, compile_spec, parse_spec

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).parent.parent / "scripts"
SPECS = sorted(p.stem for p in GOLDEN.glob("*.mg"))
# One small carrier of each family: index tables follow this element order.
ENUMERATE = {
    "cyclic": "cyclic(5)",
    "symmetric": "symmetric(3)",
    "gl": "gl(2,3)",
    "matrices": "matrices(2,2)",
    "window": "window(-2,3)",
    "product": "cyclic(2) x symmetric(3)",
    "pairs": "vectors(2,2) x gl(2,2)",
}


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("spec", SPECS)
def test_verify_matches_golden(spec, fmt, jobs, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    main(["verify", f"{spec}.mg", "--no-timing", "--format", fmt, "--jobs", jobs])
    want = (GOLDEN / f"{spec}.{'json' if fmt == 'json' else 'txt'}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_demo_matches_golden(fmt, jobs, capsys):
    assert main(["demo", "--no-timing", "--format", fmt, "--jobs", jobs]) == 0
    want = (GOLDEN / f"demo.{'json' if fmt == 'json' else 'txt'}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("script", ["probe_brace_dimonoid", "probe_op_products"])
def test_probe_matches_golden(script, capsys, monkeypatch):
    path = SCRIPTS / f"{script}.py"
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{script}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ENUMERATE))
def test_enumerate_matches_golden(name, capsys):
    assert main(["enumerate", ENUMERATE[name], "--list"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"enumerate_{name}.txt").read_text(encoding="utf-8")


def test_runs_leave_numpy_ma_unimported():
    # numpy.ma costs 10-14 ms of import in a fresh process, and plain
    # np.unique (without return_index) imports it on its first call
    script = (
        "import contextlib, io, sys\n"
        "from multigroup.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for spec in {SPECS!r}:\n"
        "        main(['verify', spec + '.mg', '--no-timing'])\n"
        "    main(['demo', '--no-timing'])\n"
        f"    for expr in {sorted(ENUMERATE.values())!r}:\n"
        "        main(['enumerate', expr, '--list'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=GOLDEN, capture_output=True,
                          text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_small_golden_reports_equal_the_reference():
    # 10 of the 14 specs; chunks, decided_late, decided_matrices and
    # orbit_cyclic have 81 to 432 elements, past what plain loops do in seconds
    start, checked = time.perf_counter(), []
    for spec in SPECS:
        draft = parse_spec(SpecSource((GOLDEN / f"{spec}.mg").read_text(encoding="utf-8"),
                                      f"{spec}.mg"))
        if len(draft.carrier) > 48:
            continue
        compiled = compile_spec(draft)
        index = {json.dumps(e): i for i, e in enumerate(compiled.carrier.elements)}
        entries = json.loads((GOLDEN / f"{spec}.json").read_text(encoding="utf-8"))["checks"]
        assert len(entries) == len(compiled.checks)
        for decl, entry in zip(compiled.checks, entries):
            tables = [compiled.ops[name].table.tolist() for name in decl.operand_names]
            witness = entry["witness"]
            if witness is not None:
                witness = tuple(index[json.dumps(w)] for w in witness)
            pinned = (entry["verdict"], witness, entry["reason"], entry["checked"])
            assert reference.CHECKS[decl.name](*tables) == pinned, (spec, entry)
        checked.append(spec)
    assert len(checked) == 10
    assert time.perf_counter() - start < 5
