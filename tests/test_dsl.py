import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multigroup import constructions, dsl
from multigroup.carriers import (
    CARRIER_ATOMS,
    cyclic_group,
    direct_product,
    gl_group,
    make_automorphism,
    pair_carrier,
    symmetric_group,
)
from multigroup.constructions import alexander_quandle, conj_quandle, core_quandle
from multigroup.dsl import (
    CHECK_NAMES,
    CHECKS,
    CHOICE,
    CONSTRUCTIONS,
    INT,
    MATRIX,
    OP_REF,
    PHI,
    compile_spec,
    format_spec,
    parse_spec,
    run_check,
    tokenize,
)
from multigroup.errors import SpecError, WorkbenchError

GOOD = """\
# a quandle and its transpose
carrier symmetric(3);
op q = conj_quandle(m=1);
op r = opposite(of=q);
check quandle_right q;
check rack_left r;
check multiquandle q q;
"""


def errors_of(text):
    draft = parse_spec(text)
    return [(d.line, d.column, d.message) for d in draft.diagnostics if d.severity == "error"]


def test_tokenizer_positions_and_comments():
    tokens, diags = tokenize("carrier cyclic(3); # trailing\n  op q = x;\n")
    assert not diags
    kinds = [(t.kind, t.text, t.line, t.column) for t in tokens[:4]]
    assert kinds[0] == ("ident", "carrier", 1, 1)
    assert kinds[1] == ("ident", "cyclic", 1, 9)
    assert kinds[2] == ("punct", "(", 1, 15)
    assert kinds[3] == ("int", "3", 1, 16)
    op_tok = next(t for t in tokens if t.text == "op")
    assert (op_tok.line, op_tok.column) == (2, 3)


def test_tokenizer_crlf_and_negative_ints():
    tokens, diags = tokenize("carrier window(-4, 4);\r\ncheck assoc a;\r\n")
    assert not diags
    neg = next(t for t in tokens if t.kind == "int")
    assert neg.text == "-4"
    check_tok = next(t for t in tokens if t.text == "check")
    assert (check_tok.line, check_tok.column) == (2, 1)


def test_tokenizer_flags_unexpected_characters():
    _, diags = tokenize("carrier cyclic(3); @")
    assert len(diags) == 1
    assert (diags[0].line, diags[0].column) == (1, 20)
    assert "@" in diags[0].message


def test_integers_are_decimal_digits():
    """Any Unicode decimal digit is an integer digit; other digit characters are unexpected."""
    assert parse_spec("carrier cyclic(٣);").carrier_atoms[0].args == (3,)
    tokens, diags = tokenize("3① -²")
    assert [(t.kind, t.text) for t in tokens] == [("int", "3"), ("eof", "")]
    assert [(d.column, d.message) for d in diags] == [
        (2, "unexpected character '①'"), (4, "unexpected character '-'"), (5, "unexpected character '²'"),
    ]


_TOKEN_PIECES = st.one_of(
    st.text(alphabet="abx_éλЖ", min_size=1, max_size=4),  # identifiers, ASCII and not
    st.builds(
        str.__add__, st.sampled_from(("", "-")),
        st.text(alphabet="0123456789٠١٢٣٤٥٦٧٨٩", min_size=1, max_size=3),  # ASCII and Arabic-Indic digits
    ),
    st.sampled_from(tuple(";=(),[]") + (" ", "\t", "\r\n", "\n", "# x; (\t\n", "#")),
    st.sampled_from(("@", "!", "$", "-", "²", "\u00a0")),  # stray characters
)


@settings(max_examples=500, deadline=None)
@given(pieces=st.lists(_TOKEN_PIECES, max_size=30))
def test_tokens_and_stray_characters_sit_at_their_positions(pieces):
    """Each token's text, and each unexpected character, is at its (line, column) in the source."""
    text = "".join(pieces)
    lines = text.split("\n")
    tokens, diags = tokenize(text)
    assert tokens[-1].kind == "eof"
    for tok in tokens[:-1]:
        assert lines[tok.line - 1][tok.column - 1:].startswith(tok.text), tok
    for diag in diags:
        assert diag.message == f"unexpected character {lines[diag.line - 1][diag.column - 1]!r}", diag


def test_parse_good_spec_has_no_diagnostics():
    draft = parse_spec(GOOD)
    assert draft.ok
    assert [a.name for a in draft.carrier_atoms] == ["symmetric"]
    assert [o.name for o in draft.ops] == ["q", "r"]
    assert [c.name for c in draft.checks] == ["quandle_right", "rack_left", "multiquandle"]


def test_missing_semicolon_recovers_at_next_statement():
    errs = errors_of("carrier symmetric(3)\nop q = conj_quandle();\ncheck quandle_right q;")
    line, column, message = errs[0]
    assert (line, column) == (2, 1)
    assert "';'" in message
    # recovery consumed the op statement, so the check reports a cascade
    assert len(errs) == 2
    assert "unknown operation 'q'" in errs[1][2]


def test_duplicate_carrier_rejected():
    errs = errors_of("carrier cyclic(3);\ncarrier cyclic(5);")
    assert errs == [(2, 1, "carrier already declared")]


def test_ops_need_a_carrier_first():
    errs = errors_of("op q = core_quandle();")
    assert errs[0][:2] == (1, 4)
    assert "carrier" in errs[0][2]


def test_carrier_atom_validation_positions():
    errs = errors_of("carrier cyclic(0);")
    assert errs[0][:2] == (1, 9)
    errs = errors_of("carrier gl(2,6);")
    assert "not prime" in errs[0][2]
    errs = errors_of("carrier symmetric(9);")
    assert "1 <= n <= 5" in errs[0][2]
    errs = errors_of("carrier nonsense(2);")
    assert "unknown carrier" in errs[0][2]
    errs = errors_of("carrier vectors(2,2);")
    assert "crossed with gl" in errs[0][2]
    errs = errors_of("carrier vectors(2,2) x cyclic(4);")
    assert "pair carriers" in errs[0][2]
    errs = errors_of("carrier vectors(2,3) x gl(2,2);")
    assert "share dimension and modulus" in errs[0][2]
    errs = errors_of("carrier cyclic(3) x window(0,5);")
    assert "cannot be crossed" in errs[0][2]


def test_op_validation_diagnostics():
    base = "carrier symmetric(3);\n"
    errs = errors_of(base + "op q = mystery_op();")
    assert errs[0][:2] == (2, 8)
    assert "unknown construction" in errs[0][2]

    errs = errors_of(base + "op q = conj_quandle(m=1);\nop q = core_quandle();")
    assert errs[0][:2] == (3, 4)
    assert "already declared" in errs[0][2]

    errs = errors_of(base + "op q = conj_quandle(m=1, m=2);")
    assert "duplicate argument" in errs[0][2]

    errs = errors_of(base + "op q = conj_quandle(volume=3);")
    assert "does not take an argument named 'volume'" in errs[0][2]

    errs = errors_of(base + "op q = conj_quandle(m=[[1]]);")
    assert "must be an integer" in errs[0][2]

    errs = errors_of("carrier matrices(2,2);\nop q = conj_quandle();")
    assert "needs a group carrier" in errs[0][2]


def test_matrix_argument_validation():
    base = "carrier gl(2,3);\n"
    errs = errors_of(base + "op g = gl_group_op(m=[[1,2],[3]]);")
    assert errs[0][:2] == (2, 22)
    assert "unequal lengths" in errs[0][2]

    errs = errors_of(base + "op g = gl_group_op(m=[[1,2,0],[0,1,0],[0,0,1]]);")
    assert "must be 2x2" in errs[0][2]

    errs = errors_of(base + "op g = gl_group_op(m=[[1,2],[2,4]]);")
    assert errs[0][:2] == (2, 22)
    assert "singular" in errs[0][2]

    errs = errors_of(base + "op g = gl_group_op(m=7);")
    assert "matrix literal" in errs[0][2]


def test_part_and_phi_argument_validation():
    errs = errors_of("carrier cyclic(4) x cyclic(4);\nop d = pair_dimonoid(part=sideways);")
    assert "must be one of: dashv, vdash" in errs[0][2]

    errs = errors_of("carrier cyclic(5);\nop a = alexander_quandle(phi=identity, power=2);")
    assert "at most one of" in errs[0][2]

    errs = errors_of("carrier cyclic(5);\nop a = alexander_quandle(phi=[[0,1],[1,0]]);")
    assert "single row" in errs[0][2]

    errs = errors_of("carrier cyclic(16);\nop z = z_parity_brace(part=minus);")
    assert "must be one of: plus, circ" in errs[0][2]

    errs = errors_of("carrier cyclic(15);\nop z = z_parity_brace(part=circ);")
    assert "even order" in errs[0][2]


def test_check_validation():
    base = "carrier symmetric(3);\nop q = conj_quandle();\n"
    errs = errors_of(base + "check wobbly q;")
    assert errs[0][:2] == (3, 7)
    assert "unknown check" in errs[0][2]

    errs = errors_of(base + "check dimonoid q;")
    assert "takes 2 operations, got 1" in errs[0][2]

    errs = errors_of(base + "check nvalued_assoc;")
    assert "at least one" in errs[0][2]

    errs = errors_of(base + "check assoc missing;")
    assert "unknown operation 'missing'" in errs[0][2]

    # declared-before-use is positional
    errs = errors_of("carrier symmetric(3);\ncheck assoc late;\nop late = conj_quandle();")
    assert errs[0][:2] == (2, 13)
    assert "declare it first" in errs[0][2]


def test_opposite_requires_earlier_op():
    errs = errors_of("carrier symmetric(3);\nop r = opposite(of=q);\nop q = conj_quandle();")
    assert "declare it first" in errs[0][2]


def test_unused_op_warning():
    draft = parse_spec("carrier symmetric(3);\nop q = conj_quandle();\n")
    warnings = [d for d in draft.diagnostics if d.severity == "warning"]
    assert len(warnings) == 1
    assert "never checked" in warnings[0].message
    assert draft.ok


def test_format_round_trip():
    draft = parse_spec(GOOD)
    text = format_spec(draft)
    again = parse_spec(text)
    assert again.ok
    assert format_spec(again) == text
    first = compile_spec(draft)
    second = compile_spec(again)
    for name in first.ops:
        assert np.array_equal(first.ops[name].table, second.ops[name].table)


def test_format_renders_matrices_and_ints():
    text = "carrier gl(2,3);\nop g = gl_group_op(m=[[1,1],[0,1]]);\ncheck group g;\n"
    draft = parse_spec(text)
    assert format_spec(draft) == text


def test_compile_matches_direct_constructions():
    s3 = symmetric_group(3)
    compiled = compile_spec(parse_spec(
        "carrier symmetric(3);\nop q = conj_quandle(m=2);\ncheck distrib_right q;"
    ))
    assert np.array_equal(compiled.ops["q"].table, conj_quandle(s3, 2).table)

    z5 = cyclic_group(5)
    compiled = compile_spec(parse_spec(
        "carrier cyclic(5);\nop a = alexander_quandle(power=2);\ncheck distrib_right a;"
    ))
    phi = make_automorphism(z5, ("power", 2))
    assert np.array_equal(compiled.ops["a"].table, alexander_quandle(z5, phi).table)

    compiled = compile_spec(parse_spec(
        "carrier cyclic(7);\nop c = core_quandle();\ncheck quandle_right c;"
    ))
    assert np.array_equal(compiled.ops["c"].table, core_quandle(cyclic_group(7)).table)


def test_compile_phi_forms():
    base = "carrier cyclic(5);\nop a = alexander_quandle(%s);\ncheck distrib_right a;"
    z5 = cyclic_group(5)
    by_power = compile_spec(parse_spec(base % "power=2")).ops["a"]
    by_images = compile_spec(parse_spec(base % "phi=[[0,2,4,1,3]]")).ops["a"]
    assert np.array_equal(by_power.table, by_images.table)
    ident = compile_spec(parse_spec(base % "phi=identity")).ops["a"]
    direct = alexander_quandle(z5, make_automorphism(z5, "identity"))
    assert np.array_equal(ident.table, direct.table)

    inner = compile_spec(parse_spec(
        "carrier symmetric(3);\nop a = alexander_quandle(inner=1);\ncheck distrib_right a;"
    )).ops["a"]
    s3 = symmetric_group(3)
    phi = make_automorphism(s3, ("inner", s3.elements[1]))
    assert np.array_equal(inner.table, alexander_quandle(s3, phi).table)


def test_compile_part_selection():
    text = (
        "carrier cyclic(4) x cyclic(4);\n"
        "op d = pair_dimonoid(part=dashv);\n"
        "op v = pair_dimonoid(part=vdash);\n"
        "check dimonoid d v;"
    )
    compiled = compile_spec(parse_spec(text))
    assert not np.array_equal(compiled.ops["d"].table, compiled.ops["v"].table)
    report = run_check(compiled, compiled.checks[0])
    assert report.passed


def test_compile_rejects_bad_draft():
    draft = parse_spec("carrier cyclic(0);")
    with pytest.raises(SpecError) as info:
        compile_spec(draft)
    assert info.value.diagnostics
    with pytest.raises(SpecError):
        compile_spec(parse_spec("check assoc q;"))
    with pytest.raises(SpecError):
        compile_spec(parse_spec(""))


def test_compile_carrier_guard():
    big_ok = parse_spec("carrier gl(3,3);")
    assert big_ok.ok
    assert len(compile_spec(big_ok).carrier) == 11232
    too_big = parse_spec("carrier gl(3,5);")
    assert [str(d) for d in too_big.errors] == [
        "1:9: error: enumerating 3x3 matrices mod 5 needs 1953125 candidates, above the guard of 1000000"
    ]
    with pytest.raises(SpecError):
        compile_spec(too_big)


def test_run_check_covers_every_name():
    text = (
        "carrier cyclic(16);\n"
        "op plus = z_parity_brace(part=plus);\n"
        "op circ = z_parity_brace(part=circ);\n"
        + "".join(
            f"check {name} plus;\n" for name in CHECK_NAMES
            if name not in ("dimonoid", "skew_brace", "multiquandle", "interchange")
        )
        + "check interchange plus plus;\n"
        + "check dimonoid plus circ;\ncheck skew_brace plus circ;\n"
        + "check multiquandle plus circ;\ncheck nvalued_assoc plus circ;\n"
    )
    compiled = compile_spec(parse_spec(text))
    reports = [run_check(compiled, c) for c in compiled.checks]
    assert len(reports) == len(compiled.checks)
    by_name = {}
    for check, report in zip(compiled.checks, reports):
        by_name.setdefault(check.name, report)
    assert by_name["group"].passed
    assert by_name["skew_brace"].passed
    assert not by_name["idempotent"].passed
    assert not by_name["dimonoid"].passed


def test_vector_pair_spec_compiles():
    text = (
        "carrier vectors(2,2) x gl(2,2);\n"
        "op c = vxg_conj_op(n=1);\n"
        "op f = vxg_phi_op(phi=identity);\n"
        "op ad = action_dimonoid(part=dashv);\n"
        "op av = action_dimonoid(part=vdash);\n"
        "check rack_left c;\n"
        "check divisibility_right f;\n"
        "check dimonoid ad av;\n"
    )
    compiled = compile_spec(parse_spec(text))
    assert len(compiled.carrier) == 24
    results = {c.name: run_check(compiled, c) for c in compiled.checks}
    assert results["rack_left"].passed
    assert not results["divisibility_right"].passed
    assert results["dimonoid"].passed


# --- multi-part constructions are built once per compile ------------------------


@pytest.mark.parametrize("carrier, ctor, builder, direct", [
    ("symmetric(3) x symmetric(3)", "pair_dimonoid", "pair_dimonoid_on",
     lambda: constructions.pair_dimonoid_on(direct_product(symmetric_group(3), symmetric_group(3)))),
    ("vectors(2,2) x gl(2,2)", "action_dimonoid", "action_dimonoid",
     lambda: constructions.action_dimonoid(pair_carrier(2, 2, gl_group(2, 2)))),
    ("symmetric(3)", "brace_trivial", "brace_ops",
     lambda: constructions.brace_ops(symmetric_group(3), "trivial")),
    ("symmetric(3)", "brace_opposite", "brace_ops",
     lambda: constructions.brace_ops(symmetric_group(3), "opposite")),
    ("cyclic(8)", "z_parity_brace", "z_parity_brace",
     lambda: constructions.z_parity_brace(cyclic_group(8))),
])
def test_multi_part_constructions_build_once(carrier, ctor, builder, direct, monkeypatch):
    calls = []
    original = getattr(dsl, builder)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dsl, builder, counted)
    parts = CONSTRUCTIONS[ctor].parts
    text = f"carrier {carrier};\n" + "".join(
        f"op p{i} = {ctor}(part={part});\n" for i, part in enumerate(parts)
    ) + f"check nvalued_assoc {' '.join(f'p{i}' for i in range(len(parts)))};\n"
    compiled = compile_spec(parse_spec(text))
    assert len(calls) == 1
    for i, table in enumerate(direct()):
        assert compiled.ops[f"p{i}"].label == f"p{i}"
        assert np.array_equal(compiled.ops[f"p{i}"].table, table.table)


# --- bad specs never crash ------------------------------------------------------

# Every draw that makes a spec wrong is gated by _sometimes, so that most specs
# compile and reach run_check, and the rest are wrong in one or two places.
_CARRIERS = (
    "cyclic(4)", "cyclic(5)", "symmetric(3)", "gl(2,2)", "matrices(2,2)", "cyclic(2) x cyclic(2)",
    "symmetric(3) x symmetric(3)", "vectors(2,2) x gl(2,2)",
)
_BAD_CARRIERS = (
    "cyclic(0)", "gl(2,3)", "matrices(2,4)", "matrices(2,2) x matrices(2,2)", "vectors(2,2)",
    "window(0,3)", "cyclic(3) x window(0,3)",
)
_INTS = st.integers(-3, 12).map(str)
_MATRICES = st.sampled_from(("[[1,0],[0,1]]", "[[1,1],[0,1]]", "[[0,1],[1,1]]", "[[1,1],[1,1]]"))
_PHIS = st.sampled_from(("identity", "[[0,1,2,3]]", "[[0,3,2,1]]", "[[0,2,1,3]]", "[[0,1,2,3,4,5]]"))
_ANY_VALUE = st.sampled_from(("[[1]]", "[[1,2],[3]]", "[[0,1],[1,0]]", "sideways", "dot", "plus",
                              "vdash", "identity", "zz", "3", "-1", "99"))
_JUNK = st.sampled_from((";", "(", ")", "=", ",", "[", "]", "@", "x", "op", "check", "carrier", "7"))


def _sometimes(draw):
    return draw(st.integers(0, 15)) == 5


def _fitting(carrier):
    """The constructions whose carrier need the carrier meets (all of them on a bad carrier)."""
    built = parse_spec(f"carrier {carrier};").carrier
    return sorted(name for name, spec in CONSTRUCTIONS.items()
                  if built is None or spec.need is None or spec.need.holds(built))


@st.composite
def _op_decl(draw, name, earlier, fitting):
    """Mostly a construction that fits the carrier, with its declared arguments."""
    if not earlier:
        fitting = [c for c in fitting if all(arg.kind != OP_REF for arg in CONSTRUCTIONS[c].args)] \
            or sorted(CONSTRUCTIONS)
    ctor = draw(st.sampled_from(sorted(CONSTRUCTIONS) + ["mystery"] if _sometimes(draw) else fitting))
    spec = CONSTRUCTIONS.get(ctor)
    args = []
    for arg in spec.arguments if spec else ():
        if _sometimes(draw):
            continue
        key = draw(st.sampled_from(arg.keys))
        if _sometimes(draw):
            value = draw(_ANY_VALUE)
        elif arg.kind == OP_REF:
            value = draw(st.sampled_from(earlier or ("zz",)))
        else:
            value = draw({INT: _INTS, MATRIX: _MATRICES, CHOICE: st.sampled_from(spec.parts),
                          PHI: _PHIS if key == "phi" else _INTS}[arg.kind])
        args.append(f"{key}={value}")
    if _sometimes(draw):
        args.append(f"{draw(st.sampled_from(('volume', 'part', 'inner', 'm')))}={draw(_ANY_VALUE)}")
    return f"op {name} = {ctor}({', '.join(args)});"


@st.composite
def _check_decl(draw, declared):
    """Mostly a check with its arity in declared operands."""
    name = draw(st.sampled_from(sorted(CHECKS) + ["wobbly"] if _sometimes(draw) else sorted(CHECKS)))
    arity = CHECKS[name].arity if name in CHECKS else None
    count = draw(st.integers(0, 3)) if arity is None or _sometimes(draw) else arity
    names = declared if declared and not _sometimes(draw) else ("zz",)
    return f"check {name} {' '.join(draw(st.lists(st.sampled_from(names), min_size=count, max_size=count)))};"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bad_specs_never_crash(data):
    """parse_spec never raises; compile_spec and run_check raise only WorkbenchError."""
    draw = data.draw
    carrier = draw(st.sampled_from(_BAD_CARRIERS + (None,) if _sometimes(draw) else _CARRIERS))
    names = [f"o{i}" for i in range(draw(st.integers(0 if _sometimes(draw) else 1, 3)))]
    fitting = _fitting(carrier) if carrier else sorted(CONSTRUCTIONS)
    ops = [draw(_op_decl(name, names[:i], fitting)) for i, name in enumerate(names)]
    checks = draw(st.lists(_check_decl(names), min_size=1, max_size=3))
    words = " ".join(([f"carrier {carrier};"] if carrier else []) + ops + checks).split(" ")
    if _sometimes(draw):
        words.insert(draw(st.integers(0, len(words))), draw(_JUNK))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MULTIGROUP_GUARD", "64")
        draft = parse_spec(" ".join(words))
        try:
            compiled = compile_spec(draft)
        except WorkbenchError:
            return
        for check in compiled.checks:
            try:
                run_check(compiled, check)
            except WorkbenchError:
                pass


# --- README lists what the tables hold -------------------------------------------


def _readme_paragraph(start):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = next(p for p in readme.split("\n\n") if p.startswith(start))
    return " ".join(paragraph.split())


def test_readme_constructors_match_the_table():
    entries = dict(re.findall(r"`(\w+)\(([^`]*)\)`", _readme_paragraph("Operation constructors:")))
    assert set(entries) == set(CONSTRUCTIONS)
    for name, args in entries.items():
        spec = CONSTRUCTIONS[name]
        shown = dict(re.findall(r"(\w+)=([^,]*)", args))
        assert list(shown) == [arg.name for arg in spec.arguments], name
        if spec.parts:
            assert tuple(shown["part"].split("|")) == spec.parts, name


def test_readme_carrier_atoms_match_the_table():
    shown = dict(re.findall(r"`(\w+)\(([^`()]*)\)`", _readme_paragraph("Carrier atoms:")))
    assert set(shown) == set(CARRIER_ATOMS)
    assert {name: len(args.split(",")) for name, args in shown.items()} == {
        name: atom.arity for name, atom in CARRIER_ATOMS.items()
    }


def test_readme_check_names_and_arities_match_the_table():
    match = re.fullmatch(
        r"Check names: (.*)\. (.*) takes one or more operations; (.*) take two; the rest take one\.",
        _readme_paragraph("Check names:"),
    )
    assert match is not None
    names = re.findall(r"`(\w+)`", match[1])
    assert names == list(CHECKS)
    arity = {name: 1 for name in names}
    arity.update({name: None for name in re.findall(r"`(\w+)`", match[2])})
    arity.update({name: 2 for name in re.findall(r"`(\w+)`", match[3])})
    assert arity == {name: spec.arity for name, spec in CHECKS.items()}
