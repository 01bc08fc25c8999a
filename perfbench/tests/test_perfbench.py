"""Tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS  # noqa: E402

# The traced layers' self times must add up to the call's wall time to within
# this many seconds plus this share of it; what is left is the cost of the
# root span's own wrapper and of the timer calls.
SELF_TIME_TOLERANCE_S = 0.005
SELF_TIME_TOLERANCE_SHARE = 0.01

SMALL_SPEC = """carrier cyclic(24);
op q = core_quandle();
op plus = z_parity_brace(part=plus);
op circ = z_parity_brace(part=circ);
check assoc q;
check rack_right q;
check dimonoid circ plus;
check multiquandle q plus;
"""


@pytest.fixture
def in_checkout(monkeypatch):
    monkeypatch.chdir(ROOT)
    run.WORK_DIR.mkdir(exist_ok=True)


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS.values():
        for seed in (DEFAULT_SEED, HOLDOUT_SEED, 12345):
            first, again = workload.calls(seed), workload.calls(seed)
            assert [(c.spec or "").encode() for c in first] == [(c.spec or "").encode() for c in again]
            assert [c.argv for c in first] == [c.argv for c in again]
        if workload.templates is not None:
            default = {c.name: c.spec for c in workload.calls(DEFAULT_SEED)}
            holdout = {c.name: c.spec for c in workload.calls(HOLDOUT_SEED)}
            for template in workload.templates:
                if len(template.pool) > 1:
                    assert default[template.name] != holdout[template.name], template.name


def test_every_reachable_spec_has_an_expected_output():
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    for workload in WORKLOADS.values():
        recorded = {(c.name, run.spec_digest(c)) for c in workload.every_call()}
        reached = {(c.name, run.spec_digest(c)) for s in range(200) for c in workload.calls(s)}
        assert reached <= recorded
        assert all(digest in expected[name] for name, digest in recorded)


def test_altered_expected_digest_raises_failed_ratio(in_checkout):
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    workload = WORKLOADS["demo-all"]
    result, _, _ = run.run_workload(workload, DEFAULT_SEED, 0, 0, expected)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 0, True)

    call = workload.calls(DEFAULT_SEED)[0]
    altered = json.loads(json.dumps(expected))
    altered[call.name][run.spec_digest(call)]["stdout_sha256"] = "0" * 64
    result, details, _ = run.run_workload(workload, DEFAULT_SEED, 0, 0, altered)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    assert details["failures"][0]["reason"] == "stdout differs from the recorded output"


@pytest.mark.parametrize("argv", [
    ("verify", ".perfbench_work/specs/test-small.spec", "--no-timing", "--format", "json"),
    ("verify", ".perfbench_work/specs/test-small.spec", "--no-timing", "--format", "json",
     "--jobs", "2"),
    ("demo", "S4-conj-rack", "--no-timing", "--format", "json"),
])
def test_traced_self_times_sum_to_traced_wall(in_checkout, argv):
    spec = Path(argv[1]) if argv[0] == "verify" else None
    if spec is not None:
        spec.parent.mkdir(parents=True, exist_ok=True)
        spec.write_text(SMALL_SPEC, encoding="utf-8")
    envelope = run.run_child(list(argv), ("--trace",))
    assert not envelope.get("died") and not envelope["crashed"]
    assert envelope["absent"] == []
    layers = tracer.layer_self_times(envelope["spans"])
    total = sum(layers.values())
    wall = envelope["wall_s"]
    assert abs(total - wall) <= SELF_TIME_TOLERANCE_S + SELF_TIME_TOLERANCE_SHARE * wall
    if spec is not None:
        assert {"cli", "dsl", "carriers", "constructions", "axioms", "scan"} <= set(layers)
        m = tracer.call_metrics(envelope["spans"])
        # All 24 rows fit in one chunk, so each scan runs one chunk: one for
        # assoc, one for rack_right's distributivity, two for dimonoid axioms
        # 1 and 2, two for the multiquandle identities.
        assert m["optables.chunks_run"] == 6
        assert m["optables.chunks_useful"] == 6
        assert m["optables.cells_scanned"] == 6 * 24 ** 3
        assert m["constructions.rule_cells"] == 5 * 24 ** 2
    else:
        assert "demos" in layers
        assert tracer.call_metrics(envelope["spans"])["demos.claim_s.S4-conj-rack"] > 0


def test_missing_hook_is_reported_absent_without_crashing():
    sys.path.insert(0, str(ROOT / "src"))
    import multigroup.optables as optables

    original = optables.scan_chunks
    missing = tracer.Hook("multigroup.optables", "no_such_function", "scan", "scan", "x",
                          ("optables.scan_s",))
    t = tracer.Tracer(hooks=tracer.HOOKS + (missing,))
    t.install()
    try:
        assert optables.scan_chunks is not original
    finally:
        t.uninstall()
    assert optables.scan_chunks is original
    assert t.absent == ["multigroup.optables.no_such_function"]
    gone = tracer.absent_metrics(["multigroup.optables.scan_chunks"])
    assert {"optables.scan_s", "optables.chunks_run", "optables.cells_scanned"} <= set(gone)
    assert "axioms.check_s" not in gone


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.per_layer_names()
