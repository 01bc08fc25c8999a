"""Exact stderr of `verify` on bad specs.

Each case is a spec that `verify` must refuse with exit code 2, nothing on
stdout and exactly the listed stderr lines. Together the cases reach every
diagnostic the tokenizer, parser, static validator, compiler and check
dispatch emit, one case each, plus the cascades that one mistake can cause.
"""

import pytest

from multigroup.cli import main

CASES = [
    (
        'unexpected-character',
        'carrier cyclic(3); @\nop a = core_quandle();\ncheck assoc a;\n',
        [
            "bad.mg:1:20: error: unexpected character '@'",
        ],
    ),
    (
        'non-decimal-digit',
        'carrier cyclic(²);\n',
        [
            "bad.mg:1:16: error: unexpected character '²'",
            "bad.mg:1:17: error: expected an integer, got ')'",
        ],
    ),
    (
        'missing-semicolon-cascade',
        'carrier symmetric(3)\nop q = conj_quandle();\ncheck quandle_right q;\n',
        [
            "bad.mg:2:1: error: expected ';', got 'op'",
            "bad.mg:3:21: error: unknown operation 'q' (declare it first)",
        ],
    ),
    (
        'op-parse-error-keeps-name',
        'carrier cyclic(4);\nop a = alexander_quandle(power=);\ncheck assoc a;\n',
        [
            "bad.mg:2:32: error: expected an integer, a matrix literal, or an identifier",
        ],
    ),
    (
        'expected-punct-at-end',
        'carrier cyclic(3',
        [
            "bad.mg:1:17: error: expected ')' before end of input",
        ],
    ),
    (
        'expected-carrier-name',
        'carrier (3);\n',
        [
            "bad.mg:1:9: error: expected a carrier name, got '('",
        ],
    ),
    (
        'expected-operation-name',
        'carrier cyclic(3);\nop = core_quandle();\n',
        [
            "bad.mg:2:4: error: expected an operation name, got '='",
        ],
    ),
    (
        'expected-construction-name',
        'carrier cyclic(3);\nop a = 3;\n',
        [
            "bad.mg:2:8: error: expected a construction name, got '3'",
        ],
    ),
    (
        'expected-argument-name',
        'carrier cyclic(3);\nop a = conj_quandle(3);\n',
        [
            "bad.mg:2:21: error: expected an argument name, got '3'",
        ],
    ),
    (
        'expected-check-name',
        'carrier cyclic(3);\ncheck ;\n',
        [
            "bad.mg:2:7: error: expected a check name, got ';'",
        ],
    ),
    (
        'expected-name-at-end',
        'carrier cyclic(3);\nop',
        [
            'bad.mg:2:3: error: expected an operation name before end of input',
        ],
    ),
    (
        'expected-integer',
        'carrier cyclic(x);\n',
        [
            "bad.mg:1:16: error: expected an integer, got 'x'",
        ],
    ),
    (
        'expected-integer-at-end',
        'carrier cyclic(',
        [
            'bad.mg:1:16: error: expected an integer',
        ],
    ),
    (
        'expected-value',
        'carrier cyclic(3);\nop a = conj_quandle(m=;\n',
        [
            'bad.mg:2:23: error: expected an integer, a matrix literal, or an identifier',
        ],
    ),
    (
        'carrier-args-trailing-comma',
        'carrier cyclic(3,);\n',
        [
            "bad.mg:1:18: error: expected an integer, got ')'",
        ],
    ),
    (
        'carrier-args-empty',
        'carrier cyclic();\n',
        [
            "bad.mg:1:16: error: expected an integer, got ')'",
        ],
    ),
    (
        'matrix-no-rows',
        'carrier gl(2,3);\nop a = gl_group_op(m=[]);\ncheck group a;\n',
        [
            "bad.mg:2:23: error: expected '[', got ']'",
        ],
    ),
    (
        'matrix-rows-trailing-comma',
        'carrier gl(2,3);\nop a = gl_group_op(m=[[1,0],]);\ncheck group a;\n',
        [
            "bad.mg:2:29: error: expected '[', got ']'",
        ],
    ),
    (
        'matrix-empty-row',
        'carrier gl(2,3);\nop a = gl_group_op(m=[[]]);\ncheck group a;\n',
        [
            "bad.mg:2:24: error: expected an integer, got ']'",
        ],
    ),
    (
        'matrix-rows-without-comma',
        'carrier gl(2,3);\nop a = gl_group_op(m=[[1,0] [0,1]]);\ncheck group a;\n',
        [
            "bad.mg:2:29: error: expected ']', got '['",
        ],
    ),
    (
        'matrix-open-at-end',
        'carrier gl(2,3);\nop a = gl_group_op(m=[[1,0],[0,1]',
        [
            "bad.mg:2:34: error: expected ']' before end of input",
        ],
    ),
    (
        'op-args-lone-comma',
        'carrier cyclic(3);\nop a = core_quandle(,);\ncheck assoc a;\n',
        [
            "bad.mg:2:21: error: expected an argument name, got ','",
        ],
    ),
    (
        'op-args-trailing-comma',
        'carrier cyclic(3);\nop a = conj_quandle(m=1,);\ncheck assoc a;\n',
        [
            "bad.mg:2:25: error: expected an argument name, got ')'",
        ],
    ),
    (
        'op-args-without-comma',
        'carrier cyclic(3);\nop a = conj_quandle(m=1 m=2);\ncheck assoc a;\n',
        [
            "bad.mg:2:25: error: expected ')', got 'm'",
        ],
    ),
    (
        'expected-statement',
        'carrier cyclic(3);\nfoo;\n',
        [
            "bad.mg:2:1: error: expected 'carrier', 'op', or 'check', got 'foo'",
        ],
    ),
    (
        'carrier-already-declared',
        'carrier cyclic(3);\ncarrier cyclic(5);\n',
        [
            'bad.mg:2:1: error: carrier already declared',
        ],
    ),
    (
        'cyclic-order',
        'carrier cyclic(0);\n',
        [
            'bad.mg:1:9: error: cyclic(n) needs one argument n >= 1',
        ],
    ),
    (
        'symmetric-degree',
        'carrier symmetric(9);\n',
        [
            'bad.mg:1:9: error: symmetric(n) needs one argument with 1 <= n <= 5',
        ],
    ),
    (
        'gl-arguments',
        'carrier gl(2);\n',
        [
            'bad.mg:1:9: error: gl(n, p) needs a dimension and a modulus',
        ],
    ),
    (
        'matrices-modulus',
        'carrier matrices(2,6);\n',
        [
            'bad.mg:1:9: error: modulus 6 is not prime',
        ],
    ),
    (
        'vectors-arguments',
        'carrier vectors(2) x gl(2,2);\n',
        [
            'bad.mg:1:9: error: vectors(n, p) needs a dimension and a modulus',
        ],
    ),
    (
        'window-bounds',
        'carrier window(5,1);\n',
        [
            'bad.mg:1:9: error: window(lo, hi) needs lo <= hi',
        ],
    ),
    (
        'unknown-carrier',
        'carrier nonsense(2);\n',
        [
            "bad.mg:1:9: error: unknown carrier 'nonsense' (known: cyclic, symmetric, gl, matrices, vectors, window)",
        ],
    ),
    (
        'vectors-alone',
        'carrier vectors(2,2);\n',
        [
            'bad.mg:1:9: error: vectors(n,p) must be crossed with gl(n,p)',
        ],
    ),
    (
        'pair-carrier-form',
        'carrier vectors(2,2) x cyclic(4);\n',
        [
            'bad.mg:1:9: error: pair carriers are written vectors(n,p) x gl(n,p)',
        ],
    ),
    (
        'pair-carrier-mismatch',
        'carrier vectors(2,3) x gl(2,2);\n',
        [
            'bad.mg:1:9: error: vector space and matrix group must share dimension and modulus',
        ],
    ),
    (
        'window-crossed',
        'carrier cyclic(3) x window(0,5);\n',
        [
            'bad.mg:1:21: error: window carriers cannot be crossed',
        ],
    ),
    (
        'unknown-construction',
        'carrier symmetric(3);\nop q = mystery_op();\ncheck assoc q;\n',
        [
            "bad.mg:2:8: error: unknown construction 'mystery_op'",
        ],
    ),
    (
        'operation-redeclared',
        'carrier symmetric(3);\nop q = conj_quandle(m=1);\nop q = core_quandle();\ncheck assoc q;\n',
        [
            "bad.mg:3:4: error: operation 'q' already declared",
        ],
    ),
    (
        'duplicate-argument',
        'carrier symmetric(3);\nop q = conj_quandle(m=1, m=2);\ncheck assoc q;\n',
        [
            "bad.mg:2:26: error: duplicate argument 'm'",
        ],
    ),
    (
        'unknown-argument',
        'carrier symmetric(3);\nop q = conj_quandle(volume=3);\ncheck assoc q;\n',
        [
            "bad.mg:2:28: error: conj_quandle does not take an argument named 'volume'",
        ],
    ),
    (
        'int-argument-missing',
        'carrier vectors(2,2) x gl(2,2);\nop c = vxg_conj_op();\ncheck assoc c;\n',
        [
            'bad.mg:2:8: error: vxg_conj_op needs argument n=<int>',
        ],
    ),
    (
        'int-argument-kind',
        'carrier symmetric(3);\nop q = conj_quandle(m=[[1]]);\ncheck assoc q;\n',
        [
            'bad.mg:2:23: error: argument m must be an integer',
        ],
    ),
    (
        'matrix-argument-missing',
        'carrier gl(2,3);\nop g = gl_group_op();\ncheck group g;\n',
        [
            'bad.mg:2:8: error: gl_group_op needs argument m=<matrix>',
        ],
    ),
    (
        'matrix-argument-kind',
        'carrier gl(2,3);\nop g = gl_group_op(m=7);\ncheck group g;\n',
        [
            'bad.mg:2:22: error: argument m must be a matrix literal',
        ],
    ),
    (
        'matrix-unequal-rows',
        'carrier gl(2,3);\nop g = gl_group_op(m=[[1,2],[3]]);\ncheck group g;\n',
        [
            'bad.mg:2:22: error: matrix rows have unequal lengths',
        ],
    ),
    (
        'matrix-size',
        'carrier gl(2,3);\nop g = gl_group_op(m=[[1,2,0],[0,1,0],[0,0,1]]);\ncheck group g;\n',
        [
            'bad.mg:2:22: error: matrix must be 2x2 for this carrier',
        ],
    ),
    (
        'matrix-singular',
        'carrier gl(2,3);\nop g = gl_group_op(m=[[1,2],[2,4]]);\ncheck group g;\n',
        [
            'bad.mg:2:22: error: matrix constant is singular mod 3',
        ],
    ),
    (
        'matrix-not-square-wide',
        'carrier gl(2,3);\nop g = gl_group_op(m=[[1,2,3],[4,5,6]]);\ncheck group g;\n',
        [
            'bad.mg:2:22: error: matrix must be 2x2 for this carrier',
        ],
    ),
    (
        'matrix-not-square-tall',
        'carrier gl(2,3);\nop g = gl_group_op(m=[[1],[2]]);\ncheck group g;\n',
        [
            'bad.mg:2:22: error: matrix must be 2x2 for this carrier',
        ],
    ),
    (
        'matrix-size-small',
        'carrier gl(2,3);\nop g = gl_group_op(m=[[1]]);\ncheck group g;\n',
        [
            'bad.mg:2:22: error: matrix must be 2x2 for this carrier',
        ],
    ),
    (
        'matrix-op-size-second',
        'carrier gl(2,3);\nop g = matrix_op(s=1,t=0,m1=[[1,0],[0,1]],m2=[[1,0,0],[0,1,0],[0,0,1]]);\ncheck assoc g;\n',
        [
            'bad.mg:2:46: error: matrix must be 2x2 for this carrier',
        ],
    ),
    (
        'matrix-singular-matrix-set',
        'carrier matrices(3,2);\nop g = gl_group_op(m=[[1,1,0],[1,1,0],[0,0,1]]);\ncheck assoc g;\n',
        [
            'bad.mg:2:22: error: matrix constant is singular mod 2',
        ],
    ),
    (
        'part-missing',
        'carrier cyclic(4);\nop b = brace_trivial();\ncheck group b;\n',
        [
            'bad.mg:2:8: error: brace_trivial needs argument part=<dot|circ>',
        ],
    ),
    (
        'part-choice',
        'carrier cyclic(4) x cyclic(4);\nop d = pair_dimonoid(part=sideways);\ncheck assoc d;\n',
        [
            'bad.mg:2:27: error: argument part must be one of: dashv, vdash',
        ],
    ),
    (
        'op-argument-missing',
        'carrier symmetric(3);\nop r = opposite();\ncheck assoc r;\n',
        [
            'bad.mg:2:8: error: opposite needs argument of=<declared op>',
        ],
    ),
    (
        'op-argument-kind',
        'carrier symmetric(3);\nop r = opposite(of=3);\ncheck assoc r;\n',
        [
            'bad.mg:2:20: error: argument of must name a declared operation',
        ],
    ),
    (
        'op-argument-undeclared',
        'carrier symmetric(3);\nop r = opposite(of=q);\nop q = conj_quandle();\ncheck multiquandle q r;\n',
        [
            "bad.mg:2:20: error: unknown operation 'q' (declare it first)",
        ],
    ),
    (
        'phi-at-most-one',
        'carrier cyclic(5);\nop a = alexander_quandle(phi=identity, power=2);\ncheck assoc a;\n',
        [
            'bad.mg:2:8: error: give at most one of phi=, inner=, power=',
        ],
    ),
    (
        'phi-single-row',
        'carrier cyclic(5);\nop a = alexander_quandle(phi=[[0,1],[1,0]]);\ncheck assoc a;\n',
        [
            'bad.mg:2:30: error: phi image table must be a single row of indices',
        ],
    ),
    (
        'phi-form',
        'carrier cyclic(5);\nop a = alexander_quandle(phi=3);\ncheck assoc a;\n',
        [
            'bad.mg:2:30: error: phi must be `identity` or a one-row index table',
        ],
    ),
    (
        'inner-kind',
        'carrier symmetric(3);\nop a = alexander_quandle(inner=x);\ncheck assoc a;\n',
        [
            'bad.mg:2:32: error: argument inner must be an integer',
        ],
    ),
    (
        'group-carrier',
        'carrier matrices(2,2);\nop q = conj_quandle();\ncheck assoc q;\n',
        [
            'bad.mg:2:8: error: conj_quandle needs a group carrier',
        ],
    ),
    (
        'brace-group-carrier',
        'carrier matrices(2,2);\nop b = brace_opposite(part=dot);\ncheck assoc b;\n',
        [
            'bad.mg:2:8: error: brace_opposite needs a group carrier',
        ],
    ),
    (
        'matrix-carrier-cascade',
        'carrier matrices(2,2) x cyclic(2);\nop a = matrix_op(s=1,t=0,m1=[[1,0],[0,1]],m2=[[1,0],[0,1]]);\ncheck assoc a;\n',
        [
            'bad.mg:2:8: error: matrix_op needs a matrix carrier, carrier is direct-product',
        ],
    ),
    (
        'pair-carrier-cascade',
        'carrier cyclic(4);\nop c = vxg_conj_op(n=1);\ncheck assoc c;\n',
        [
            'bad.mg:2:8: error: vxg_conj_op needs a vectors(n,p) x gl(n,p) carrier, carrier is cyclic-group',
        ],
    ),
    (
        'dimonoid-carrier-cascade',
        'carrier cyclic(4);\nop d = pair_dimonoid(part=dashv);\ncheck assoc d;\n',
        [
            'bad.mg:2:8: error: pair_dimonoid needs a carrier M x M with M a monoid',
        ],
    ),
    (
        'dimonoid-invalid-carrier-cascade',
        'carrier cyclic(0);\nop d = pair_dimonoid(part=dashv);\ncheck assoc d;\n',
        [
            'bad.mg:1:9: error: cyclic(n) needs one argument n >= 1',
        ],
    ),
    (
        'parity-carrier-cascade',
        'carrier cyclic(15);\nop z = z_parity_brace(part=circ);\ncheck assoc z;\n',
        [
            'bad.mg:2:8: error: z_parity_brace needs a cyclic carrier of even order',
        ],
    ),
    (
        'no-carrier-cascade',
        'op m = matrix_op(s=1,t=0,m1=[[1,0],[0,1]],m2=[[1,0],[0,1]]);\ncheck assoc m;\n',
        [
            'bad.mg:1:4: error: declare a carrier before any operations',
        ],
    ),
    (
        'carrier-need-unknown-argument',
        'carrier cyclic(4);\nop c = vxg_conj_op(n=1, volume=2);\ncheck assoc c;\n',
        [
            'bad.mg:2:8: error: vxg_conj_op needs a vectors(n,p) x gl(n,p) carrier, carrier is cyclic-group',
            "bad.mg:2:32: error: vxg_conj_op does not take an argument named 'volume'",
        ],
    ),
    (
        'invalid-carrier-duplicate-argument',
        'carrier cyclic(0);\nop d = pair_dimonoid(part=dashv, part=vdash);\ncheck assoc d;\n',
        [
            'bad.mg:1:9: error: cyclic(n) needs one argument n >= 1',
            "bad.mg:2:34: error: duplicate argument 'part'",
        ],
    ),
    (
        'no-carrier-missing-arguments',
        'op m = matrix_op(s=1);\ncheck assoc m;\n',
        [
            'bad.mg:1:4: error: declare a carrier before any operations',
            'bad.mg:1:8: error: matrix_op needs argument t=<int>',
            'bad.mg:1:8: error: matrix_op needs argument m1=<matrix>',
            'bad.mg:1:8: error: matrix_op needs argument m2=<matrix>',
        ],
    ),
    (
        'no-carrier-group-construction',
        'op q = conj_quandle(m=[[1]]);\ncheck assoc q;\n',
        [
            'bad.mg:1:4: error: declare a carrier before any operations',
            'bad.mg:1:23: error: argument m must be an integer',
        ],
    ),
    (
        'unknown-check',
        'carrier symmetric(3);\nop q = conj_quandle();\ncheck wobbly q;\n',
        [
            "bad.mg:2:4: warning: operation 'q' is never checked",
            "bad.mg:3:7: error: unknown check 'wobbly'",
        ],
    ),
    (
        'check-arity',
        'carrier symmetric(3);\nop q = conj_quandle();\ncheck dimonoid q;\n',
        [
            'bad.mg:3:7: error: check dimonoid takes 2 operations, got 1',
        ],
    ),
    (
        'check-arity-one',
        'carrier symmetric(3);\nop q = conj_quandle();\ncheck assoc q q;\n',
        [
            'bad.mg:3:7: error: check assoc takes 1 operation, got 2',
        ],
    ),
    (
        'check-needs-operand',
        'carrier symmetric(3);\nop q = conj_quandle();\ncheck nvalued_assoc;\n',
        [
            "bad.mg:2:4: warning: operation 'q' is never checked",
            'bad.mg:3:7: error: check nvalued_assoc needs at least one operation',
        ],
    ),
    (
        'check-operand-undeclared',
        'carrier symmetric(3);\ncheck assoc late;\nop late = conj_quandle();\n',
        [
            "bad.mg:2:13: error: unknown operation 'late' (declare it first)",
        ],
    ),
    (
        'unchecked-warning',
        'carrier cyclic(3);\nop a = core_quandle();\nop b = core_quandle();\ncheck assoc a;\ncheck wobbly a;\n',
        [
            "bad.mg:3:4: warning: operation 'b' is never checked",
            "bad.mg:5:7: error: unknown check 'wobbly'",
        ],
    ),
    (
        'no-carrier',
        '# nothing declared\n',
        [
            'bad.mg:1:1: error: spec declares no carrier',
        ],
    ),
    (
        'inner-range',
        'carrier symmetric(3);\nop a = alexander_quandle(inner=9);\ncheck distrib_right a;\n',
        [
            'bad.mg:2:32: error: inner index 9 out of range for symmetric(3)',
        ],
    ),
    (
        'inner-range-pairs',
        'carrier vectors(2,2) x gl(2,2);\nop f = vxg_phi_op(inner=99);\ncheck assoc f;\n',
        [
            'bad.mg:2:25: error: inner index 99 out of range for gl(2,2)',
        ],
    ),
    (
        'carrier-guard',
        'carrier gl(3,5);\n',
        [
            'bad.mg:1:9: error: enumerating 3x3 matrices mod 5 needs 1953125 candidates, above the guard of 1000000',
        ],
    ),
    (
        'phi-power-not-bijective',
        'carrier cyclic(4);\nop a = alexander_quandle(power=2);\ncheck assoc a;\n',
        [
            'bad.mg:2:8: error: power(2) is not a bijection on cyclic(4)',
        ],
    ),
    (
        'phi-images-length',
        'carrier cyclic(3);\nop a = alexander_quandle(phi=[[0,1]]);\ncheck assoc a;\n',
        [
            'bad.mg:2:8: error: image list must be a permutation of 0..2',
        ],
    ),
    (
        'phi-images-not-homomorphism',
        'carrier cyclic(4);\nop a = alexander_quandle(phi=[[0,2,1,3]]);\ncheck assoc a;\n',
        [
            'bad.mg:2:8: error: explicit breaks the homomorphism law at (1, 1)',
        ],
    ),
    (
        'matrix-op-not-closed',
        'carrier gl(2,3);\nop a = matrix_op(s=1,t=0,m1=[[0,0],[0,0]],m2=[[1,0],[0,1]]);\ncheck assoc a;\n',
        [
            'bad.mg:2:8: error: operation not closed: ((0, 1), (1, 0)) * ((0, 1), (1, 0)) = ((0, 0), (0, 0)) is outside the carrier',
        ],
    ),
    (
        'skew-brace-not-group',
        'carrier cyclic(4);\nop a = core_quandle();\nop b = brace_trivial(part=dot);\ncheck skew_brace a b;\n',
        [
            "bad.mg:4:7: error: check skew_brace: operation 'a' is not a group (assoc)",
        ],
    ),
]


@pytest.mark.parametrize("spec, stderr", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_verify_diagnostics(spec, stderr, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MULTIGROUP_GUARD", raising=False)
    (tmp_path / "bad.mg").write_text(spec, encoding="utf-8")
    code = main(["verify", "bad.mg", "--no-timing"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == stderr
