"""The command line's arguments: what each argv means, and the texts it prints.

The argv table and the oracle are in tests/cli_reference.py, which keeps the
argparse parser the command line once used. `main` runs here with its three
commands replaced by a recorder, so a case yields the exit code and the
fields a command would have received, and nothing runs.
"""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multigroup.cli as cli
from cli_reference import ARGV_CASES, reference
from multigroup import demos


def outcome(argv):
    """(exit code, fields) of cli.main(argv): fields as a command received them, or None."""
    seen = []

    def record(args):
        seen.append({k: v for k, v in vars(args).items() if k != "func"})
        return 0

    commands = {f"cmd_{name}": record for name in ("verify", "demo", "enumerate")}
    with mock.patch.multiple(cli, **commands), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, (seen[0] if seen else None)


def test_reference_claim_ids_are_the_demos():
    import cli_reference

    assert cli_reference.demos.CLAIM_IDS == demos.CLAIM_IDS


@pytest.mark.parametrize("argv, expected", ARGV_CASES, ids=[repr(a) for a, _ in ARGV_CASES])
def test_argv_case(argv, expected):
    assert outcome(argv) == expected


# Tokens the property draws argv from; no help flag among them, since a help
# text ends the parse wherever it stands.
WORDS = ["verify", "demo", "enumerate", "ver", "frobnicate", "s.mg", "S3-assoc", "all",
         "cyclic(3)", "json", "text", "xml", "2", "0", "-1", "-3", "1_0", " 4 ", "x", "-.5",
         "-1x", "a b", "-x y", "", "-", "--jobs 2"]
OPTIONS = ["--format", "--format=json", "--format=text", "--format=xml", "--f", "--fo=json",
           "--no-timing", "--no-t", "--no", "--no-timing=x", "--no-timing=", "--jobs",
           "--jobs=2", "--j", "--j=3", "--jobs=", "--jobs=-1", "--list", "--l", "--li=x",
           "--", "--=x", "---", "-x", "--bogus", "-j"]
# A -- is drawn only after the command. Later CPython patch releases reworked
# argparse's reading of --, and a -- before the command is where the oracle
# would differ by release; ARGV_CASES pins that form as 3.10.13 to 3.13.0 read it.
LEADING = [token for token in WORDS + OPTIONS if token != "--"]
argvs = st.one_of(
    st.lists(st.sampled_from(LEADING), max_size=6),
    st.builds(lambda before, command, after: before + [command] + after,
              st.lists(st.sampled_from(LEADING[3:]), max_size=2),  # no command word
              st.sampled_from(["verify", "demo", "enumerate"]),
              st.lists(st.sampled_from(WORDS + OPTIONS), max_size=6)),
)


@settings(max_examples=400, deadline=None)
@given(argvs)
def test_reader_agrees_with_argparse(argv):
    assert outcome(argv) == reference(argv)


USAGE = "usage: multigroup [-h] {verify,demo,enumerate} ..."
VERIFY_USAGE = """\
usage: multigroup verify [-h] [--format {text,json}] [--no-timing]
                         [--jobs JOBS]
                         file"""
DEMO_USAGE = """\
usage: multigroup demo [-h] [--format {text,json}] [--no-timing] [--jobs JOBS]
                       [claim]"""
ENUMERATE_USAGE = "usage: multigroup enumerate [-h] [--list] carrier"

HELP_TEXTS = {
    "-h": f"""\
{USAGE}

build finite algebraic systems and check their axioms exhaustively

positional arguments:
  {{verify,demo,enumerate}}
    verify              run the checks declared in a spec file
    demo                run scripted demonstrations
    enumerate           build a carrier and count its elements

options:
  -h, --help            show this help message and exit
""",
    "verify -h": f"""\
{VERIFY_USAGE}

positional arguments:
  file                  path to a spec document

options:
  -h, --help            show this help message and exit
  --format {{text,json}}
  --no-timing           omit timings for reproducible output
  --jobs JOBS           worker threads for the axiom scans
""",
    "demo --help": f"""\
{DEMO_USAGE}

positional arguments:
  claim                 one of: S3-assoc, S3-multisemigroup, S3-unit,
                        S3-group, S4-phi-idempotency, S4-phi-nonunique,
                        S4-conj-rack, S4-opposite-rack, S5-brace-trivial,
                        S5-brace-opposite, S5-nonabelian-not-dimonoid,
                        S5-zbrace-counterexample, E1-multiquandle-degenerate
                        (default: all)

options:
  -h, --help            show this help message and exit
  --format {{text,json}}
  --no-timing           omit timings for reproducible output
  --jobs JOBS
""",
    "enumerate cyclic(3) -h": f"""\
{ENUMERATE_USAGE}

positional arguments:
  carrier     carrier expression, e.g. 'gl(2,3)' or 'vectors(2,2) x gl(2,2)'

options:
  -h, --help  show this help message and exit
  --list      print one element per line
""",
}


@pytest.mark.parametrize("argv", HELP_TEXTS)
def test_help_text(argv, capsys, monkeypatch):
    # the texts argparse printed at its default width of 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP_TEXTS[argv], "")


REFUSALS = {
    "": (USAGE, "multigroup: error: the following arguments are required: command"),
    "frobnicate": (USAGE, "multigroup: error: argument command: invalid choice: 'frobnicate' "
                          "(choose from 'verify', 'demo', 'enumerate')"),
    "--no-timing verify s.mg": (USAGE, "multigroup: error: unrecognized arguments: --no-timing"),
    "verify": (VERIFY_USAGE,
               "multigroup verify: error: the following arguments are required: file"),
    "verify a.mg b.mg --bogus": (USAGE, "multigroup: error: unrecognized arguments: b.mg --bogus"),
    "demo --format xml": (DEMO_USAGE, "multigroup demo: error: argument --format: invalid "
                                      "choice: 'xml' (choose from 'text', 'json')"),
    "verify s.mg --jobs x": (VERIFY_USAGE,
                             "multigroup verify: error: argument --jobs: invalid int value: 'x'"),
    "verify s.mg --jobs": (VERIFY_USAGE,
                           "multigroup verify: error: argument --jobs: expected one argument"),
    "verify s.mg --no-timing=x": (VERIFY_USAGE, "multigroup verify: error: argument --no-timing: "
                                                "ignored explicit argument 'x'"),
    "enumerate --help=x": (ENUMERATE_USAGE, "multigroup enumerate: error: argument -h/--help: "
                                            "ignored explicit argument 'x'"),
    "enumerate cyclic(3) --=x": (ENUMERATE_USAGE, "multigroup enumerate: error: ambiguous option: "
                                                  "--=x could match --help, --list"),
}


@pytest.mark.parametrize("argv", REFUSALS)
def test_refusal_lines(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "\n".join(REFUSALS[argv]) + "\n")


def test_jobs_below_one_is_read_as_a_value_and_refused(capsys):
    assert cli.main(["verify", "s.mg", "--jobs", "-1"]) == 2
    assert capsys.readouterr() == ("", "--jobs must be at least 1\n")
