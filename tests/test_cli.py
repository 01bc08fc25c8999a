import json
import os
import re
import resource
import subprocess
import sys

import pytest

from multigroup import axioms, carriers, demos
from multigroup.cli import main
from test_diagnostics import CASES

PASSING = """\
carrier symmetric(3);
op q = conj_quandle(m=1);
check quandle_right q;
"""

FAILING = """\
carrier cyclic(3);
op s = core_quandle();
check group s;
"""

BROKEN = "carrier cyclic(3)\ncheck assoc s;\n"


def write(tmp_path, text, name="spec.mg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_verify_pass_exit_zero(tmp_path, capsys):
    code = main(["verify", write(tmp_path, PASSING), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: pass" in out
    assert "check quandle_right q: pass" in out


def test_verify_fail_exit_one(tmp_path, capsys):
    code = main(["verify", write(tmp_path, FAILING), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: fail" in out
    assert "reason=assoc" in out
    assert "witness=[0, 0, 1]" in out


def test_verify_parse_error_exit_two(tmp_path, capsys):
    code = main(["verify", write(tmp_path, BROKEN)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


def test_verify_compile_error_exit_two(tmp_path, capsys):
    code = main(["verify", write(tmp_path, "carrier gl(3,5);")])
    captured = capsys.readouterr()
    assert code == 2
    assert "guard" in captured.err



MEMORY = "carrier cyclic(5);\nop q = core_quandle();\ncheck idempotent q;\n"


def _refuse(message):
    def refuse(*args, **kwargs):
        raise MemoryError(message)
    return refuse


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 37.3 GiB for an array", "Unable to allocate 37.3 GiB for an array"),
    ("", "out of memory"),
])
def test_verify_allocation_failure_in_a_construction_exit_two(tmp_path, capsys, monkeypatch,
                                                             message, shown):
    monkeypatch.setattr(carriers.Carrier, "cayley", property(_refuse(message)))
    path = write(tmp_path, MEMORY)
    code = main(["verify", path, "--no-timing"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"{path}:2:8: error: {shown}\n"


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 1.00 TiB for an array", "Unable to allocate 1.00 TiB for an array"),
    ("", "out of memory"),
])
def test_verify_allocation_failure_in_a_check_exit_two(tmp_path, capsys, monkeypatch,
                                                      message, shown):
    monkeypatch.setattr(axioms, "check_idempotency", _refuse(message))
    path = write(tmp_path, MEMORY)
    code = main(["verify", path, "--no-timing"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"{path}:3:7: error: check idempotent: {shown}\n"


@pytest.mark.parametrize("operands", ["a b", "b a"])
def test_verify_skew_brace_on_non_group_exit_two(tmp_path, capsys, operands):
    text = (
        "carrier cyclic(4);\n"
        "op a = core_quandle();\n"
        "op b = brace_trivial(part=dot);\n"
        "check group b;\n"
        f"check skew_brace {operands};\n"
    )
    path = write(tmp_path, text)
    code = main(["verify", path, "--no-timing"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"{path}:5:7: error: check skew_brace: operation 'a' is not a group (assoc)\n"
    )


def test_verify_missing_file_exit_two(capsys):
    code = main(["verify", "/nonexistent/spec.mg"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_json_shape(tmp_path, capsys):
    path = write(tmp_path, PASSING)
    code = main(["verify", path, "--format", "json", "--no-timing"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(data) == {"spec", "checks", "verdict"}
    assert data["spec"]["origin"] == path
    assert len(data["spec"]["sha256"]) == 64
    assert data["verdict"] == "pass"
    entry = data["checks"][0]
    assert entry["check"] == "quandle_right"
    assert entry["operands"] == ["q"]
    assert entry["verdict"] == "pass"
    assert entry["exhaustive"] is True
    assert "ms" not in entry


def test_verify_timing_included_by_default(tmp_path, capsys):
    code = main(["verify", write(tmp_path, PASSING), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "ms" in data["checks"][0]


def test_verify_no_timing_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, PASSING)
    outputs = []
    for jobs in ("1", "4", "1"):
        code = main(["verify", path, "--format", "json", "--no-timing", "--jobs", jobs])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_verify_warning_does_not_block(tmp_path, capsys):
    text = PASSING + "op unused = core_quandle();\n"
    code = main(["verify", write(tmp_path, text), "--no-timing"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert "verdict: pass" in captured.out


def test_demo_single_claim(capsys):
    code = main(["demo", "S5-zbrace-counterexample", "--format", "json", "--no-timing"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["verdict"] == "PASS"
    claim = data["claims"][0]
    assert claim["claim"] == "S5-zbrace-counterexample"
    assert claim["verdict"] == "PASS"


def test_demo_unknown_claim_exit_two(capsys):
    code = main(["demo", "S9-made-up"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown claim" in captured.err


@pytest.mark.parametrize("claim", [None, "S4-conj-rack"])
@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 8.00 GiB for an array", "Unable to allocate 8.00 GiB for an array"),
    ("", "out of memory"),
])
def test_demo_allocation_failure_exit_two(capsys, monkeypatch, claim, message, shown):
    monkeypatch.setattr(demos, "run_demo", _refuse(message))
    code = main(["demo", *([claim] if claim else []), "--no-timing"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"demo {claim or demos.CLAIM_IDS[0]}: {shown}\n"


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 2.00 TiB for an array", "Unable to allocate 2.00 TiB for an array"),
    ("", "out of memory"),
])
def test_enumerate_allocation_failure_exit_two(capsys, monkeypatch, message, shown):
    monkeypatch.setattr(carriers, "gl_group", _refuse(message))
    for expr in ("gl(2,3)", "vectors(2,3) x gl(2,3)", "cyclic(2) x gl(2,3)"):
        code = main(["enumerate", expr])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"{shown}\n"


def test_demo_refutation_keeps_exit_zero(capsys):
    code = main(["demo", "S3-unit", "--format", "json", "--no-timing"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["verdict"] == "REFUTED-AS-STATED"
    detail = data["claims"][0]["details"][-1]
    instance = detail["refuting_instance"]
    assert instance["modulus"] == 3
    assert instance["s"] == 1 and instance["t"] == 1
    assert instance["unit"] == [[[2, 0], [0, 2]]]


def test_demo_all_deterministic(capsys):
    outputs = []
    for jobs in ("1", "4"):
        code = main(["demo", "--format", "json", "--no-timing", "--jobs", jobs])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    data = json.loads(outputs[0])
    assert [c["claim"] for c in data["claims"]] == [
        "S3-assoc", "S3-multisemigroup", "S3-unit", "S3-group",
        "S4-phi-idempotency", "S4-phi-nonunique", "S4-conj-rack",
        "S4-opposite-rack", "S5-brace-trivial", "S5-brace-opposite",
        "S5-nonabelian-not-dimonoid", "S5-zbrace-counterexample",
        "E1-multiquandle-degenerate",
    ]
    assert data["verdict"] == "REFUTED-AS-STATED"


def test_enumerate_counts(capsys):
    assert main(["enumerate", "gl(2,2)"]) == 0
    assert "gl(2,2): 6 elements" in capsys.readouterr().out
    assert main(["enumerate", "cyclic(7)"]) == 0
    assert "cyclic(7): 7 elements" in capsys.readouterr().out


def test_enumerate_list(capsys):
    assert main(["enumerate", "symmetric(3)", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert json.loads(lines[1]) == [0, 1, 2]


def test_enumerate_bad_expression(capsys):
    assert main(["enumerate", "banana(3)"]) == 2
    assert capsys.readouterr().err == (
        "unknown carrier 'banana' (known: cyclic, symmetric, gl, matrices, vectors, window)\n"
    )


@pytest.mark.parametrize("expr", ["vectors(2,2,2) x gl(2,2)", "vectors(2,2) x gl(2)"])
def test_enumerate_pair_argument_count_exit_two(capsys, expr):
    assert main(["enumerate", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


# Specs in the diagnostics cases that are one carrier declaration and nothing else.
CARRIER_ONLY = [(name, match[1], lines) for name, spec, lines in CASES
                if (match := re.fullmatch(r"carrier ([^;]*);\n", spec))]


@pytest.mark.parametrize("expr, lines", [c[1:] for c in CARRIER_ONLY], ids=[c[0] for c in CARRIER_ONLY])
def test_enumerate_prints_the_verify_message(capsys, monkeypatch, expr, lines):
    monkeypatch.delenv("MULTIGROUP_GUARD", raising=False)
    assert main(["enumerate", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [re.sub(r"^bad\.mg:\d+:\d+: error: ", "", line) for line in lines]


@pytest.mark.parametrize("expr, modulus", [
    ("gl(2,4)", 4), ("matrices(2,6)", 6), ("vectors(2,4) x gl(2,4)", 4),
])
def test_enumerate_composite_modulus_exit_two(capsys, expr, modulus):
    assert main(["enumerate", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"modulus {modulus} is not prime\n"


def test_enumerate_guard_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MULTIGROUP_GUARD", "50")
    assert main(["enumerate", "cyclic(100)"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("MULTIGROUP_GUARD", "200")
    assert main(["enumerate", "cyclic(100)"]) == 0
    assert "100 elements" in capsys.readouterr().out


def test_jobs_must_be_positive(tmp_path, capsys):
    code = main(["verify", write(tmp_path, PASSING), "--jobs", "0"])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err


def test_closed_stdout_exits_one_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "multigroup", "enumerate", "cyclic(200000)", "--list"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"cyclic(200000): 200000 elements\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "multigroup", "enumerate", "cyclic(5)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "cyclic(5): 5 elements" in proc.stdout


# Two bounds of 4300 digits each, the most int() parses: their width has 4301.
WIDE = "-" + "9" * 4300


@pytest.mark.parametrize("expr, line", [
    ("gl(1,2305843009213693951)", "enumerating 1x1 matrices mod 2305843009213693951 needs "
                                  "2305843009213693951 candidates, above the guard of 1000000"),
    ("vectors(1,2305843009213693951) x gl(1,2305843009213693951)",
     "vectors(1,2305843009213693951) needs 2305843009213693951 candidates, "
     "above the guard of 1000000"),
    ("matrices(200,2)", "enumerating 200x200 matrices mod 2 needs more than 2^64 candidates, "
                        "above the guard of 1000000"),
    (f"window({WIDE},{WIDE[1:]})", f"window({WIDE},{WIDE[1:]}) needs more than 2^64 candidates, "
                                   "above the guard of 1000000"),
], ids=["gl-prime-2^61-1", "vectors-prime-2^61-1", "matrices-200", "window-4301-digit-width"])
def test_enumerate_guard_refuses_before_any_big_work(expr, line):
    # A prime test on a 61-bit modulus runs for minutes; 2^40000 has too many digits to print.
    env = {k: v for k, v in os.environ.items() if k != "MULTIGROUP_GUARD"}
    proc = subprocess.run([sys.executable, "-m", "multigroup", "enumerate", expr],
                          capture_output=True, text=True, timeout=30, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line + "\n")


def test_verify_guard_refuses_a_window_too_wide_to_print(tmp_path):
    path = write(tmp_path, f"carrier window({WIDE},{WIDE[1:]});\n", "bad.mg")
    env = {k: v for k, v in os.environ.items() if k != "MULTIGROUP_GUARD"}
    proc = subprocess.run([sys.executable, "-m", "multigroup", "verify", path],
                          capture_output=True, text=True, timeout=30, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"{path}:1:9: error: window({WIDE},{WIDE[1:]}) needs more than 2^64 "
                           "candidates, above the guard of 1000000\n")


def test_verify_guard_refuses_a_huge_prime_modulus(tmp_path):
    path = write(tmp_path, "carrier gl(1,2305843009213693951);\n", "bad.mg")
    env = {k: v for k, v in os.environ.items() if k != "MULTIGROUP_GUARD"}
    proc = subprocess.run([sys.executable, "-m", "multigroup", "verify", path],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 2
    assert proc.stderr == (f"{path}:1:9: error: enumerating 1x1 matrices mod 2305843009213693951 "
                           "needs 2305843009213693951 candidates, above the guard of 1000000\n")


def _unguarded(argv):
    """The CLI under a guard of 10^30, its address space capped at 2 GB: nothing big is allocated."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "MULTIGROUP_GUARD": str(10**30)}
    return subprocess.run([sys.executable, "-m", "multigroup", *argv], capture_output=True,
                          text=True, timeout=60, env=env, preexec_fn=cap)


# Past the guard's reach: gl(9,2) needs an 82-axis candidate stack and
# matrices(2,32749) one of 2^65 bytes, beyond numpy's limits on axes and bytes,
# and cyclic(10^20) an index past int64.
@pytest.mark.parametrize("expr, line", [
    ("gl(9,2)", "enumerating 9x9 matrices mod 2 needs more than 2^64 candidates, "
                "more than one array holds"),
    ("matrices(2,32749)", "enumerating 2x2 matrices mod 32749 needs 1150249817153994001 "
                          "candidates, more than one array holds"),
    ("cyclic(100000000000000000000)", "cyclic(100000000000000000000) needs more than 2^64 "
                                      "candidates, more than one array holds"),
], ids=["gl-9-2", "matrices-2-32749", "cyclic-10^20"])
def test_guard_cannot_admit_what_no_array_holds(tmp_path, expr, line):
    proc = _unguarded(["enumerate", expr])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line + "\n")
    path = write(tmp_path, f"carrier {expr};\n", "big.mg")
    proc = _unguarded(["verify", path])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"{path}:1:9: error: {line}\n")


def test_overlong_integer_literal_is_reported_at_the_literal(tmp_path, capsys):
    digits = "9" * 5000
    path = write(tmp_path, f"carrier cyclic({digits});\n", "bad.mg")
    assert main(["verify", path]) == 2
    line = "integer literal of 5000 digits is too long"
    assert capsys.readouterr().err == f"{path}:1:16: error: {line}\n"
    assert main(["enumerate", f"cyclic({digits})"]) == 2
    assert capsys.readouterr().err == line + "\n"


def test_verify_non_utf8_file_exit_two(tmp_path, capsys):
    path = tmp_path / "latin.mg"
    path.write_bytes(b"carrier cyclic(4);\xff\n")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 18: "
        "invalid start byte\n")


def test_verify_phi_image_beyond_int64_exit_two(tmp_path, capsys):
    spec = ("carrier cyclic(4);\n"
            "op a = alexander_quandle(phi=[[0,1,2,99999999999999999999999]]);\n"
            "check assoc a;\n")
    path = write(tmp_path, spec, "bad.mg")
    assert main(["verify", path]) == 2
    assert capsys.readouterr().err == (
        f"{path}:2:8: error: image list must be a permutation of 0..3\n")
