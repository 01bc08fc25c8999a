"""The command line's argparse parser, kept as the oracle for its argument reader.

`build_parser` is the parser `multigroup.cli` used before it read its
arguments by hand, verbatim but for two stand-ins: `demos.CLAIM_IDS` is a
literal tuple here (tests/test_cli_args.py holds it equal to the real one),
and each command's `func` is its name. This module imports neither numpy nor
the package, so it runs on any interpreter:

    python tests/cli_reference.py

checks every row of ARGV_CASES against this parser on the running Python,
prints one line and exits 1 on a disagreement.
"""

import argparse
import contextlib
import io
import sys
from types import SimpleNamespace

demos = SimpleNamespace(CLAIM_IDS=(
    "S3-assoc", "S3-multisemigroup", "S3-unit", "S3-group", "S4-phi-idempotency",
    "S4-phi-nonunique", "S4-conj-rack", "S4-opposite-rack", "S5-brace-trivial",
    "S5-brace-opposite", "S5-nonabelian-not-dimonoid", "S5-zbrace-counterexample",
    "E1-multiquandle-degenerate",
))
cmd_verify, cmd_demo, cmd_enumerate = "verify", "demo", "enumerate"
EXIT_ERROR = 2


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


def reference(argv):
    """(exit code, parsed fields) as the old `main` met argv, up to running the command.

    A refusal or a help text gives (2 or 0, None). A parse gives (0, its
    fields), unless its `--jobs` is below 1, which `main` refused with exit 2.
    """
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, None
    if getattr(args, "jobs", 1) < 1:
        return EXIT_ERROR, None
    fields = vars(args)
    del fields["func"]
    return 0, fields


def verify(file, format="text", no_timing=False, jobs=1):
    return {"command": "verify", "file": file, "format": format, "no_timing": no_timing,
            "jobs": jobs}


def demo(claim=None, format="text", no_timing=False, jobs=1):
    return {"command": "demo", "claim": claim, "format": format, "no_timing": no_timing,
            "jobs": jobs}


def enumerate_(carrier, list=False):
    return {"command": "enumerate", "carrier": carrier, "list": list}


HELP, REFUSED = (0, None), (2, None)

# argv -> (exit code, parsed fields), as the argparse parser and the `--jobs`
# rule of `main` met it on Python 3.10 to 3.13
ARGV_CASES = [
    # accepted: options in any order, as --opt value or --opt=value
    (["verify", "s.mg"], (0, verify("s.mg"))),
    (["verify", "s.mg", "--format", "json", "--no-timing", "--jobs", "2"],
     (0, verify("s.mg", "json", True, 2))),
    (["verify", "--jobs", "2", "--no-timing", "--format", "json", "s.mg"],
     (0, verify("s.mg", "json", True, 2))),
    (["verify", "--format=json", "--jobs=3", "s.mg"], (0, verify("s.mg", "json", jobs=3))),
    (["verify", "--no-timing", "s.mg", "--format", "text"], (0, verify("s.mg", no_timing=True))),
    # unique prefixes, alone or with =value
    (["verify", "s.mg", "--no-t", "--j", "2", "--f", "json"], (0, verify("s.mg", "json", True, 2))),
    (["verify", "s.mg", "--fo=json", "--j=4", "--no"], (0, verify("s.mg", "json", True, 4))),
    # the last repeat wins; int() reads --jobs
    (["verify", "--jobs", "2", "s.mg", "--jobs", "3"], (0, verify("s.mg", jobs=3))),
    (["verify", "s.mg", "--format", "json", "--format=text"], (0, verify("s.mg"))),
    (["verify", "s.mg", "--no-timing", "--no-timing"], (0, verify("s.mg", no_timing=True))),
    (["verify", "s.mg", "--jobs", " 4 "], (0, verify("s.mg", jobs=4))),
    (["verify", "s.mg", "--jobs", "1_0"], (0, verify("s.mg", jobs=10))),
    (["verify", "s.mg", "--jobs", "+2"], (0, verify("s.mg", jobs=2))),
    # -- ends the options
    (["verify", "--", "--jobs"], (0, verify("--jobs"))),
    (["verify", "--no-timing", "--", "-x"], (0, verify("-x", no_timing=True))),
    (["verify", "s.mg", "--"], (0, verify("s.mg"))),
    (["verify", "--", "--"], (0, verify("--"))),
    # negative numbers, '-' and words with a space are arguments
    (["verify", "-1"], (0, verify("-1"))),
    (["verify", "-"], (0, verify("-"))),
    (["verify", "-x y"], (0, verify("-x y"))),
    (["demo"], (0, demo())),
    (["demo", "S3-assoc", "--format", "json"], (0, demo("S3-assoc", "json"))),
    (["demo", "--jobs", "2", "all", "--no-timing"], (0, demo("all", no_timing=True, jobs=2))),
    (["demo", "--no-timing"], (0, demo(no_timing=True))),
    # a claim may be any string; the command refuses an unknown one
    (["demo", "-1"], (0, demo("-1"))),
    (["demo", "-.5"], (0, demo("-.5"))),
    (["demo", "no such claim"], (0, demo("no such claim"))),
    (["demo", ""], (0, demo(""))),
    (["demo", "--", "--no-timing"], (0, demo("--no-timing"))),
    (["demo", "--"], (0, demo())),
    (["enumerate", "gl(2,3)", "--list"], (0, enumerate_("gl(2,3)", True))),
    (["enumerate", "--l", "vectors(2,2) x gl(2,2)"], (0, enumerate_("vectors(2,2) x gl(2,2)", True))),
    (["enumerate", "-5"], (0, enumerate_("-5"))),
    # --jobs below 1 is read, then refused by main
    (["verify", "s.mg", "--jobs", "0"], REFUSED),
    (["verify", "s.mg", "--jobs", "-1"], REFUSED),
    (["demo", "--jobs=-3"], REFUSED),
    # no command, an unknown one, or a prefix of one
    ([], REFUSED),
    (["frobnicate"], REFUSED),
    (["ver", "s.mg"], REFUSED),
    (["--", "verify", "s.mg"], REFUSED),
    # options before the command
    (["--no-timing", "verify", "s.mg"], REFUSED),
    (["--jobs", "2", "demo"], REFUSED),
    (["--format=json", "demo"], REFUSED),
    # missing and extra positionals
    (["verify"], REFUSED),
    (["verify", "--no-timing"], REFUSED),
    (["verify", "--"], REFUSED),
    (["enumerate"], REFUSED),
    (["verify", "a.mg", "b.mg"], REFUSED),
    (["demo", "S3-assoc", "S3-unit"], REFUSED),
    (["enumerate", "cyclic(3)", "cyclic(4)"], REFUSED),
    (["verify", "s.mg", "--", "--jobs", "2"], REFUSED),
    # unknown options, an option of another command, ambiguous prefixes
    (["verify", "s.mg", "--bogus"], REFUSED),
    (["verify", "s.mg", "-x"], REFUSED),
    (["verify", "s.mg", "-1x"], REFUSED),
    (["verify", "s.mg", "---"], REFUSED),
    (["verify", "s.mg", "--list"], REFUSED),
    (["enumerate", "cyclic(3)", "--jobs", "2"], REFUSED),
    (["verify", "s.mg", "--=x"], REFUSED),
    (["enumerate", "cyclic(3)", "--=x"], REFUSED),
    # a flag with a value, a value out of choices, a value that is no int
    (["verify", "s.mg", "--no-timing=x"], REFUSED),
    (["verify", "s.mg", "--no-timing="], REFUSED),
    (["enumerate", "cyclic(3)", "--list=yes"], REFUSED),
    (["verify", "s.mg", "--format", "xml"], REFUSED),
    (["verify", "s.mg", "--format="], REFUSED),
    (["verify", "s.mg", "--jobs", "x"], REFUSED),
    (["verify", "s.mg", "--jobs", "1.5"], REFUSED),
    (["verify", "s.mg", "--jobs="], REFUSED),
    # an option with no value: at the end, before an option or before --
    (["verify", "s.mg", "--jobs"], REFUSED),
    (["verify", "s.mg", "--format"], REFUSED),
    (["verify", "s.mg", "--jobs", "--no-timing"], REFUSED),
    (["verify", "s.mg", "--jobs", "-x"], REFUSED),
    (["verify", "--jobs", "--", "s.mg"], REFUSED),
    # help, at the top and per command, wherever it is met first
    (["-h"], HELP),
    (["--help"], HELP),
    (["--he"], HELP),
    (["-h", "frobnicate"], HELP),
    (["verify", "-h"], HELP),
    (["demo", "--help"], HELP),
    (["enumerate", "cyclic(3)", "-h"], HELP),
    (["verify", "s.mg", "--jobs", "2", "--h"], HELP),
    (["verify", "-h", "--jobs", "x"], HELP),
    (["verify", "--jobs", "x", "-h"], REFUSED),
    (["frobnicate", "-h"], REFUSED),
    (["verify", "--help=x"], REFUSED),
    (["--help=x", "verify"], REFUSED),
    (["verify", "--", "-h"], (0, verify("-h"))),
]


def main() -> int:
    wrong = [(argv, expected, reference(argv)) for argv, expected in ARGV_CASES
             if reference(argv) != expected]
    for argv, expected, got in wrong:
        print(f"{argv!r}: pinned {expected!r}, argparse gives {got!r}")
    print(f"Python {sys.version.split()[0]}: {len(ARGV_CASES) - len(wrong)} of "
          f"{len(ARGV_CASES)} argv cases agree with argparse")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
