"""Command line front end.

Subcommands:
  verify <file>       parse, compile, and run every declared check
  demo [claim]        run one scripted demonstration, or all of them
  enumerate <expr>    build a carrier from a carrierExpr of the spec language
                      and report (optionally list) its elements

Exit codes: 0 all checks passed, 1 a check or demo failed, 2 the input could
not be parsed or compiled, a declared check cannot take its operations (such
as skew_brace on a non-group), a carrier expression is invalid (such as a
modulus that is not prime) or a demo claim is unknown. `enumerate` prints the
messages `verify` prints for the same carrier, without their positions. When
stdout closes early (as under `| head`) the command stops and exits 1 with
nothing on stderr. A failed allocation while building a carrier or a table,
or during a check or a demo claim, ends in one line on stderr and exit 2,
never in a traceback. With --no-timing the output carries no timings and is
byte-identical across repeated runs.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import demos
from .carriers import group_carrier
from .dsl import SpecSource, compile_spec, parse_spec, run_check
from .errors import SpecError, WorkbenchError, error_message
from .optables import encode_element

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ERROR = 2


def _print_diagnostics(origin, diagnostics):
    for diag in diagnostics:
        print(f"{origin}:{diag}", file=sys.stderr)


def cmd_verify(args) -> int:
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read {args.file}: {err}", file=sys.stderr)
        return EXIT_ERROR
    source = SpecSource(text=text, origin=str(path))
    draft = parse_spec(source)
    warnings = [d for d in draft.diagnostics if d.severity == "warning"]
    _print_diagnostics(source.origin, warnings)
    if not draft.ok:
        _print_diagnostics(source.origin, draft.errors)
        return EXIT_ERROR
    try:
        compiled = compile_spec(draft)
    except SpecError as err:
        _print_diagnostics(source.origin, err.diagnostics)
        return EXIT_ERROR

    checks = []
    all_passed = True
    for check in compiled.checks:
        started = time.perf_counter()
        try:
            report = run_check(compiled, check, jobs=args.jobs)
        except (WorkbenchError, MemoryError) as err:
            tok = check.token
            print(f"{source.origin}:{tok.line}:{tok.column}: error: check {check.name}: "
                  f"{error_message(err)}", file=sys.stderr)
            return EXIT_ERROR
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        entry = {"check": check.name, "operands": list(check.operand_names)}
        entry.update(report.to_json_dict())
        if not args.no_timing:
            entry["ms"] = round(elapsed_ms, 1)
        checks.append(entry)
        if not report.passed:
            all_passed = False

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    result = {
        "spec": {"origin": source.origin, "sha256": digest},
        "checks": checks,
        "verdict": "pass" if all_passed else "fail",
    }
    if args.format == "json":
        print(json.dumps(result, indent=2))
    else:
        print(f"spec {source.origin} sha256 {digest[:12]}")
        for entry in checks:
            line = f"check {entry['check']} {' '.join(entry['operands'])}: {entry['verdict']}"
            if entry["verdict"] != "pass":
                line += f" reason={entry['reason']} witness={json.dumps(entry['witness'])}"
            line += f" (checked={entry['checked']})"
            if "ms" in entry:
                line += f" [{entry['ms']} ms]"
            print(line)
        print(f"verdict: {result['verdict']}")
    return EXIT_OK if all_passed else EXIT_FAILED


def _render_demo_text(claim):
    print(f"{claim['claim']}: {claim['verdict']}  ({claim['title']})")
    for detail in claim["details"]:
        print(f"  {json.dumps(detail)}")
    if "ms" in claim:
        print(f"  [{claim['ms']} ms]")


def cmd_demo(args) -> int:
    wanted = args.claim
    try:
        ids = demos.CLAIM_IDS if wanted is None or wanted == "all" else [wanted]
        claims = []
        for claim_id in ids:
            started = time.perf_counter()
            claim = demos.run_demo(claim_id, jobs=args.jobs)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            if not args.no_timing:
                claim["ms"] = round(elapsed_ms, 1)
            claims.append(claim)
    except WorkbenchError as err:
        print(str(err), file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as err:
        print(f"demo {claim_id}: {error_message(err)}", file=sys.stderr)
        return EXIT_ERROR

    verdicts = [c["verdict"] for c in claims]
    if demos.FAIL in verdicts:
        overall = demos.FAIL
    elif demos.REFUTED in verdicts:
        overall = demos.REFUTED
    else:
        overall = demos.PASS
    result = {"claims": claims, "verdict": overall}
    if args.format == "json":
        print(json.dumps(result, indent=2))
    else:
        for claim in claims:
            _render_demo_text(claim)
        print(f"verdict: {overall}")
    return EXIT_FAILED if overall == demos.FAIL else EXIT_OK


def cmd_enumerate(args) -> int:
    try:
        carrier = group_carrier(args.carrier)
    except SpecError as err:  # the expression is no carrierExpr
        for diag in err.diagnostics:
            print(diag.message, file=sys.stderr)
        return EXIT_ERROR
    except (WorkbenchError, MemoryError) as err:
        print(error_message(err), file=sys.stderr)
        return EXIT_ERROR
    print(f"{carrier.label}: {len(carrier)} elements")
    if args.list:
        for element in carrier.elements:
            print(json.dumps(encode_element(element)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multigroup",
        description="build finite algebraic systems and check their axioms exhaustively",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the checks declared in a spec file")
    p_verify.add_argument("file", help="path to a spec document")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--no-timing", action="store_true",
                          help="omit timings for reproducible output")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="worker threads for the axiom scans")
    p_verify.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="run scripted demonstrations")
    p_demo.add_argument("claim", nargs="?", default=None,
                        help=f"one of: {', '.join(demos.CLAIM_IDS)} (default: all)")
    p_demo.add_argument("--format", choices=("text", "json"), default="text")
    p_demo.add_argument("--no-timing", action="store_true",
                        help="omit timings for reproducible output")
    p_demo.add_argument("--jobs", type=int, default=1)
    p_demo.set_defaults(func=cmd_demo)

    p_enum = sub.add_parser("enumerate", help="build a carrier and count its elements")
    p_enum.add_argument("carrier", help="carrier expression, e.g. 'gl(2,3)' or 'vectors(2,2) x gl(2,2)'")
    p_enum.add_argument("--list", action="store_true", help="print one element per line")
    p_enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return EXIT_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the flush at
        # interpreter exit raises no second BrokenPipeError, and exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_FAILED
    return code


if __name__ == "__main__":
    sys.exit(main())
