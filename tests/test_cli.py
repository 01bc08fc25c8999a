import json
import subprocess
import sys

import pytest

from multigroup.cli import main

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
    assert "cannot parse" in capsys.readouterr().err or True


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "multigroup", "enumerate", "cyclic(5)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "cyclic(5): 5 elements" in proc.stdout
