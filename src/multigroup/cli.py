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
byte-identical across repeated runs. Arguments are read as argparse read
them, by the hand reader `parse_args`; bad ones exit 2 with the usage and one
error line. Help, usage and refusal lines are printed by an argparse parser
built for them, so only those calls import argparse, and a valid call never
does.
"""

import os

# Before anything loads numpy: its bundled OpenBLAS starts a worker thread on
# import, which spins for about 0.1 s of CPU before it sleeps, a third of a
# short call's CPU on a 2-core machine. multigroup never calls BLAS (numpy
# keeps integer matmuls out of it), so the CLI asks for no pool. A value the
# user set is kept, and `import multigroup` in a library sets nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# dsl loads numpy and the library before the modules below: loading them
# (with argparse, which the command line used then) first raised a call's
# peak RSS by 0.2-0.7 MB.
from .dsl import SpecSource, compile_spec, parse_spec, run_check

import hashlib
import json
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import demos
from .carriers import group_carrier
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


# The command line as one table: each command's summary, its one positional
# (name, required, help) and its options, each a (kind, default, help) of
# bool for a flag, int, or a tuple of choices. The reader (`parse_args`) and
# the parser that prints help, usage and refusals (`_parser`) both come from
# it. The reader keeps what argparse accepted and refused (tests/cli_reference.py
# holds the argparse parser it replaces); only help and refusals import argparse.
FORMATS = ("text", "json")
NO_TIMING = "omit timings for reproducible output"
COMMANDS = {
    "verify": ("run the checks declared in a spec file",
               ("file", True, "path to a spec document"),
               {"--format": (FORMATS, "text", None), "--no-timing": (bool, False, NO_TIMING),
                "--jobs": (int, 1, "worker threads for the axiom scans")}),
    "demo": ("run scripted demonstrations",
             ("claim", False, "one of: {claims} (default: all)"),
             {"--format": (FORMATS, "text", None), "--no-timing": (bool, False, NO_TIMING),
              "--jobs": (int, 1, None)}),
    "enumerate": ("build a carrier and count its elements",
                  ("carrier", True,
                   "carrier expression, e.g. 'gl(2,3)' or 'vectors(2,2) x gl(2,2)'"),
                  {"--list": (bool, False, "print one element per line")}),
}
HELP = ("-h", "--help")


def _parser(command):
    """The argparse parser of `command`, or of the top level for None, built from the table.

    Only a help text or a refusal builds it, so a valid call imports neither
    argparse nor the gettext it loads. It prints and never parses: `parse_args`
    decides what argv means. Every parser lays its text out at 78 columns,
    argparse's width on 80, whatever the terminal, and in no colour.
    """
    import argparse
    import functools

    layout = functools.partial(argparse.HelpFormatter, width=78)
    plain = {"color": False} if sys.version_info >= (3, 14) else {}
    top = argparse.ArgumentParser(
        prog="multigroup", formatter_class=layout, **plain,
        description="build finite algebraic systems and check their axioms exhaustively")
    commands = top.add_subparsers(dest="command", required=True)
    for name, (summary, (positional, required, text), options) in COMMANDS.items():
        parser = commands.add_parser(name, help=summary, formatter_class=layout, **plain)
        parser.add_argument(positional, nargs=None if required else "?",
                            help=text.format(claims=", ".join(demos.CLAIM_IDS)))
        for option, (kind, _, text) in options.items():
            if kind is bool:
                parser.add_argument(option, action="store_true", help=text)
            else:
                parser.add_argument(option, choices=kind if isinstance(kind, tuple) else None,
                                    help=text)
    return top if command is None else commands.choices[command]


def _option(arg, names, command):
    """(name, value) for an option, with name None for an unknown one; None for a positional.

    As argparse read it: an exact name, NAME=VALUE, a unique prefix of a long
    name with or without =VALUE, or -h followed by more. A negative number, or
    a word with a space in it, is a positional.
    """
    if arg[:1] != "-" or arg in ("-", "--"):
        return None
    if arg in names:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and head in names:
        return head, value
    if arg[1] == "-":
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            _parser(command).error(f"ambiguous option: {arg} could match {', '.join(found)}")
        if found:
            return found[0], (value if eq else None)
    elif arg[:2] in names:  # -hh is -h twice
        return arg[:2], arg[2:].lstrip("h") or None
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, None


def _help_flag(command, value):
    """-h or --help: print the help and exit 0; with a value, refuse it."""
    if value is not None:
        _parser(command).error(f"argument -h/--help: ignored explicit argument {value!r}")
    _parser(command).print_help()
    raise SystemExit(EXIT_OK)


def parse_args(argv) -> SimpleNamespace:
    """Read argv as the table says; print help and exit 0, or refuse and exit 2.

    Options come in any order, as --opt value or --opt=value or by a unique
    prefix; the last repeat wins and -- ends the options. Options before the
    command, other than -h, are refused.
    """
    stray = []
    for at, arg in enumerate(argv):
        option = _option(arg, HELP, None)
        if option is None:
            break
        if option[0] is None:
            stray.append(arg)
        else:
            _help_flag(None, option[1])
    else:
        at = len(argv)
    if argv[at:] in ([], ["--"]):  # a -- needs a word after it to be read as the command
        _parser(None).error("the following arguments are required: command")
    command, rest = argv[at], argv[at + 1:]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _parser(None).error(f"argument command: invalid choice: {command!r} (choose from {choices})")
    _, (name, required, _), options = COMMANDS[command]
    names = HELP + tuple(options)
    # argparse sorted every argument before it read one, so an ambiguous
    # option is refused before anything else
    end = rest.index("--") if "--" in rest else len(rest)
    kinds = [_option(arg, names, command) for arg in rest[:end]] + [None] * (len(rest) - end)
    args = {"command": command, name: None}
    args.update((option[2:].replace("-", "_"), default) for option, (_, default, _) in options.items())
    taken = None  # the index of the positional's value
    i = 0
    while i < len(rest):
        at, arg, option = i, rest[i], kinds[i]
        i += 1
        if at == end:
            # argparse dropped this -- only next to the positional's value
            if taken is not None and taken != end - 1:
                stray.append(arg)
        elif option is None and taken is None:
            taken = at
            args[name] = arg
        elif option is None or option[0] is None:
            stray.append(arg)
        elif option[0] in HELP:
            _help_flag(command, option[1])
        else:
            option, value = option
            kind = options[option][0]
            if kind is bool:
                if value is not None:
                    _parser(command).error(f"argument {option}: ignored explicit argument {value!r}")
                value = True
            elif value is None:
                if i >= end or kinds[i] is not None:
                    _parser(command).error(f"argument {option}: expected one argument")
                value, i = rest[i], i + 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _parser(command).error(f"argument {option}: invalid int value: {value!r}")
            elif kind is not bool and value not in kind:
                choices = ", ".join(map(repr, kind))
                _parser(command).error(f"argument {option}: invalid choice: {value!r} (choose from {choices})")
            args[option[2:].replace("-", "_")] = value
    if taken is None and required:
        _parser(command).error(f"the following arguments are required: {name}")
    if stray:
        _parser(None).error(f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    if getattr(args, "jobs", 1) < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return EXIT_ERROR
    run = {"verify": cmd_verify, "demo": cmd_demo, "enumerate": cmd_enumerate}[args.command]
    try:
        code = run(args)
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
