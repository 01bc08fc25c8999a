"""Time multigroup's CLI on seeded workloads and check every output.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S]
  python3 perfbench/run.py --record

Each timed call runs `multigroup verify <spec>` or `multigroup demo` with
--no-timing --format json in a fresh interpreter (perfbench/child.py), as a
user would. Calls go round robin; after every call has run once, a call
starts only if it is predicted to end within --seconds. A call fails when it
raises, or when its exit code or the sha256 of its stdout differs from
expected.json, which --record writes from the current sources at --jobs 1 for
every spec any seed can produce.

The speed of a shared machine drifts by more than the bounds over minutes, so
a fixed calibration job runs after every call, and wall and CPU time are gated
in units of its median time in the run (wall_cal, cpu_cal). Raw seconds are
printed next to them.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced calls and reports the per-layer metrics. `--workload all` runs both
for every workload. The last line of stdout is one JSON object; the lines
before it name every metric with its unit, sample count and the highest
percentile that has at least ten samples beyond it, plus failed_ratio and
the environment. Details and spans go to .perfbench_work/.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import DEFAULT_SEED, SPEC_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
WORK_DIR = Path(".perfbench_work")
# A run stops starting calls after this long even if --seconds is larger, so
# that it ends well within the three minutes a run may take.
HARD_STOP_S = 150.0

END_TO_END = (("setup_s", "s"), ("wall_cal", "cal"), ("cpu_cal", "cal"), ("peak_rss_mb", "MB"))


def calibrate():
    """Seconds a fixed pure-Python loop takes now (about 0.1 s on a 2-core Xeon VM).

    It is not multigroup code, so no change to the program moves it; it only
    tracks machine speed. It allocates nothing: a forked child starts with this
    process's resident set, which would otherwise show in the children's
    ru_maxrss.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - started


def environment():
    """Facts that explain a noisy run; /proc is only read."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version()}


def loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def run_child(argv, options=()):
    """Run one CLI call in a fresh interpreter; returns its envelope plus rusage."""
    cmd = [sys.executable, str(CHILD), *options, "--", *argv]
    with open(WORK_DIR / "child-stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        try:
            with proc.stdout:
                out = proc.stdout.read()
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        stderr = (WORK_DIR / "child-stderr.txt").read_text(encoding="utf-8", errors="replace")
        return {"died": proc.returncode, "stderr": stderr[-2000:]}
    envelope = json.loads(lines[-1])
    envelope["cpu_s"] = usage.ru_utime + usage.ru_stime
    envelope["rss_mb"] = usage.ru_maxrss / 1024.0
    return envelope


def spec_digest(call):
    return hashlib.sha256((call.spec or "").encode("utf-8")).hexdigest()


def write_spec(call):
    if call.spec is not None:
        path = Path(SPEC_DIR) / f"{call.name}.spec"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(call.spec, encoding="utf-8")


def failure(call, envelope, expected):
    """Why a call's result is wrong, or None when it matches the recorded output."""
    if "died" in envelope:
        return f"child exited {envelope['died']}: {envelope['stderr'].strip()[-300:]}"
    if envelope["crashed"]:
        return "cli.main raised"
    want = expected.get(call.name, {}).get(spec_digest(call))
    if want is None:
        return "no expected output recorded for this spec"
    if envelope["exit"] != want["exit"]:
        return f"exit code {envelope['exit']}, expected {want['exit']}"
    if envelope["stdout_sha256"] != want["stdout_sha256"]:
        return "stdout differs from the recorded output"
    return None


def percentile_note(values):
    """Sample count and the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
            return f"n={n}, p{q}={cut:.6g}"
    return f"n={n}, no percentile has 10 samples beyond it"


def run_workload(workload, seed, seconds, trace, expected):
    """Measure one workload; returns the result object plus details."""
    env = environment()
    env["loadavg_start"] = loadavg()
    WORK_DIR.mkdir(exist_ok=True)
    calls = workload.calls(seed)
    for call in calls:
        write_spec(call)
    probe = run_child([], ("--probe",))  # fills the bytecode cache; reports versions
    if "died" in probe:
        raise SystemExit(f"cannot import multigroup: {probe['stderr']}")
    env["numpy"] = probe["numpy"]

    modes = ((), ("--trace",)) if trace else ((),)
    samples = {(c.name, m): [] for c in calls for m in modes}
    took = {}  # (call, mode) -> seconds its last run took, to predict the next
    failures = []
    attempted = 0
    started = time.perf_counter()
    while True:
        call = calls[attempted // len(modes) % len(calls)]
        mode = modes[attempted % len(modes)]
        elapsed = time.perf_counter() - started
        # Once every call has run, start no call that would end after the deadline.
        if attempted >= len(samples) and (
                elapsed + took[(call.name, mode)] > seconds or elapsed >= HARD_STOP_S):
            break
        envelope = run_child(call.argv, mode)
        envelope["cal_s"] = calibrate()
        took[(call.name, mode)] = time.perf_counter() - started - elapsed
        attempted += 1
        reason = failure(call, envelope, expected)
        if reason is not None:
            failures.append({"call": call.name, "trace": bool(mode), "reason": reason})
        if "died" not in envelope:
            samples[(call.name, mode)].append(envelope)
    env["loadavg_end"] = loadavg()
    env["measured_s"] = time.perf_counter() - started

    if trace:
        metrics, absent, spans = layer_metrics(calls, samples)
        units = dict(tracer.per_layer_names())
    else:
        metrics, raw, notes = end_to_end_metrics(calls, samples)
        units = dict(END_TO_END)
        absent, spans = [], None
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    details = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": env, "failures": failures, "absent_metrics": absent}
    if not trace:
        details["notes"] = notes
        details["raw"] = raw
    return result, details, spans


def _medians(calls, samples, mode, key):
    return [statistics.median(e[key] for e in samples[(c.name, mode)]) for c in calls
            if samples[(c.name, mode)]]


def end_to_end_metrics(calls, samples):
    """The gated metrics, plus raw seconds and sample notes for the printed lines."""
    runs = {c.name: samples[(c.name, ())] for c in calls if samples[(c.name, ())]}
    every = [e for rs in runs.values() for e in rs]
    if not every:
        return {k: 0.0 for k, _ in END_TO_END}, {}, {}
    sums = {k: sum(statistics.median(e[k] for e in rs) for rs in runs.values()) for k in ("wall_s", "cpu_s")}
    calibration = statistics.median(e["cal_s"] for e in every)
    passes = min(len(rs) for rs in runs.values())
    per_pass = {k: [sum(rs[i][k] for rs in runs.values()) for i in range(passes)] for k in sums}
    metrics = {
        "setup_s": statistics.median(e["setup_s"] for e in every),
        "wall_cal": sums["wall_s"] / calibration,
        "cpu_cal": sums["cpu_s"] / calibration,
        "peak_rss_mb": max(statistics.median(e["rss_mb"] for e in rs) for rs in runs.values()),
    }
    raw = {"wall_s": (sums["wall_s"], "s"), "cpu_s": (sums["cpu_s"], "s"),
           "calibration_s": (calibration, "s")}
    per_call = "sum over calls of each call's median; per-pass sums "
    notes = {
        "calls": {name: {k: [round(e[k], 4) for e in rs] for k in ("wall_s", "cpu_s", "cal_s")}
                  for name, rs in runs.items()},
        "setup_s": "median over calls; " + percentile_note([e["setup_s"] for e in every]),
        "wall_cal": "wall_s over calibration_s",
        "cpu_cal": "cpu_s over calibration_s",
        "peak_rss_mb": f"highest among calls of each call's median ru_maxrss, n={len(every)}",
        "calibration_s": "median over the calibration job's runs, one after each call, "
                         + percentile_note([e["cal_s"] for e in every]),
        **{k: per_call + percentile_note(v) for k, v in per_pass.items()},
    }
    return metrics, raw, notes


def layer_metrics(calls, samples):
    traced = ("--trace",)
    totals = tracer.call_metrics([])
    absent_hooks = set()
    spans = []
    for call in calls:
        runs = samples[(call.name, traced)]
        if not runs:
            continue
        per_run = [tracer.call_metrics(e["spans"]) for e in runs]
        for key in totals:
            totals[key] += statistics.median(r[key] for r in per_run)
        for i, e in enumerate(runs):
            absent_hooks.update(e["absent"])
            spans.append({"call": call.name, "sample": i, "spans": e["spans"]})
    traced_wall = sum(_medians(calls, samples, traced, "wall_s"))
    untraced_wall = sum(_medians(calls, samples, (), "wall_s"))
    metrics = tracer.finish_ratios(totals, traced_wall, untraced_wall or 1.0)
    return metrics, tracer.absent_metrics(absent_hooks), spans


def report(result, details):
    """Human-readable lines: every metric by name and unit, failures, environment."""
    head = f"# workload {details['workload']} seed {details['seed']} trace {details['trace']}"
    lines = [head]
    notes = details.get("notes", {})
    absent = set(details["absent_metrics"])
    for name, metric in result["metrics"].items():
        extra = notes.get(name, "")
        if name in absent:
            extra = "absent: its hook point is missing"
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}  {extra}".rstrip())
    for name, (value, unit) in details.get("raw", {}).items():
        lines.append(f"  {name} = {value:.6g} {unit}  (not gated) {notes.get(name, '')}".rstrip())
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    lines.append(f"  failed_ratio = {ratio:.6g} ratio  ({result['failed']} of {result['attempted']} calls)")
    for f in details["failures"][:5]:
        lines.append(f"  FAILED {f['call']}{' (traced)' if f['trace'] else ''}: {f['reason']}")
    lines.append(f"  environment: {json.dumps(details['environment'])}")
    return "\n".join(lines)


def measure(name, seed, seconds, trace, expected):
    """One run: prints the report lines, saves details and spans, returns the result."""
    result, details, spans = run_workload(WORKLOADS[name], seed, seconds, trace, expected)
    tag = f"{name}-seed{seed}-trace{trace}"
    (WORK_DIR / f"result-{tag}.json").write_text(
        json.dumps({"result": result, "details": details}), encoding="utf-8")
    if spans is not None:
        (WORK_DIR / f"spans-{tag}.json").write_text(json.dumps(spans), encoding="utf-8")
    print(report(result, details), flush=True)
    return result


def record():
    """Run every spec any seed can produce at --jobs 1 and write expected.json."""
    WORK_DIR.mkdir(exist_ok=True)
    table = {}
    for workload in WORKLOADS.values():
        for call in workload.every_call():
            write_spec(call)
            envelope = run_child(call.argv, ("--keep-output",))
            if "died" in envelope or envelope["crashed"]:
                raise SystemExit(f"{call.name}: the call failed while recording: {envelope}")
            output = json.loads(envelope["stdout"])
            verdicts = [c["verdict"] for c in output.get("checks", output.get("claims", []))]
            entry = {"exit": envelope["exit"], "stdout_sha256": envelope["stdout_sha256"],
                     "verdicts": verdicts}
            table.setdefault(call.name, {})[spec_digest(call)] = entry
            print(f"{call.name} {spec_digest(call)[:12]} exit={entry['exit']} {verdicts}", flush=True)
    for name, entries in table.items():
        patterns = {(e["exit"], tuple(e["verdicts"])) for e in entries.values()}
        if len(patterns) != 1:
            raise SystemExit(f"{name}: the pool gives different verdict patterns {patterns}")
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current sources")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through run_child, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not Path("src/multigroup/cli.py").is_file():
        print("run from the root of a multigroup checkout: src/multigroup/cli.py is missing",
              file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    if args.workload != "all":
        print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace, expected)))
        return 0
    combined = {
        name: {kind: measure(name, args.seed, args.seconds, trace, expected)
               for kind, trace in (("end_to_end", 0), ("layers", 1))}
        for name in WORKLOADS
    }
    print(json.dumps({"workloads": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
