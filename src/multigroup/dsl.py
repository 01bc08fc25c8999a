"""A small declaration language for finite algebraic systems.

Grammar (hand-rolled recursive descent, UTF-8 input, LF or CRLF line ends,
`#` comments to end of line):

    spec        := stmt* ;
    stmt        := carrierDecl | opDecl | checkDecl ;
    carrierDecl := "carrier" carrierExpr ";" ;
    carrierExpr := name "(" intList ")" | carrierExpr "x" carrierExpr ;
    opDecl      := "op" ident "=" ctorName "(" namedArgs? ")" ";" ;
    checkDecl   := "check" checkName identList ";" ;
    namedArgs   := ident "=" value ("," ident "=" value)* ;
    value       := int | matrixLit | ident ;
    matrixLit   := "[" row ("," row)* "]" ;
    row         := "[" int ("," int)* "]" ;

Identifiers are declared before use. parse_spec never raises for bad input;
it returns a draft whose diagnostics carry 1-based line/column positions
inside the offending token. Error diagnostics prevent compilation.
"""

from dataclasses import dataclass, field as dc_field

from . import axioms
from .carriers import (
    build_carrier_atom,
    direct_product,
    gl_group,
    make_automorphism,
    pair_carrier,
)
from .errors import NotAGroupError, SpecError
from .field import PrimeField, is_prime
from .matrix import Matrix, mat_det
from .optables import OpTable, SystemSpec
from .constructions import (
    MatrixOpParams,
    action_dimonoid,
    alexander_quandle,
    brace_ops,
    conj_quandle,
    core_quandle,
    gl_group_op,
    matrix_op,
    opposite_op,
    pair_dimonoid_on,
    vxg_conj_op,
    vxg_phi_op,
    z_parity_brace,
)

ERROR = "error"
WARNING = "warning"

CHECK_NAMES = (
    "assoc",
    "interchange",
    "idempotent",
    "divisibility_left",
    "divisibility_right",
    "distrib_left",
    "distrib_right",
    "group",
    "rack_left",
    "rack_right",
    "quandle_left",
    "quandle_right",
    "dimonoid",
    "skew_brace",
    "multiquandle",
    "nvalued_assoc",
)

# arity None means one-or-more operands
CHECK_ARITY = {
    "assoc": 1,
    "interchange": 2,
    "idempotent": 1,
    "divisibility_left": 1,
    "divisibility_right": 1,
    "distrib_left": 1,
    "distrib_right": 1,
    "group": 1,
    "rack_left": 1,
    "rack_right": 1,
    "quandle_left": 1,
    "quandle_right": 1,
    "dimonoid": 2,
    "skew_brace": 2,
    "multiquandle": 2,
    "nvalued_assoc": None,
}

CARRIER_NAMES = ("cyclic", "symmetric", "gl", "matrices", "vectors", "window")


@dataclass(frozen=True)
class SpecSource:
    text: str
    origin: str = "<string>"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str
    line: int
    column: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    column: int


def tokenize(text: str):
    tokens, diagnostics = [], []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in ";=(),[]":
            tokens.append(Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        diagnostics.append(
            ParseDiagnostic(ERROR, start_line, start_col, f"unexpected character {ch!r}")
        )
        i += 1
        col += 1
    tokens.append(Token("eof", "", line, col))
    return tokens, diagnostics


@dataclass(frozen=True)
class CarrierAtom:
    name: str
    args: tuple
    token: Token


@dataclass(frozen=True)
class ValueNode:
    kind: str  # int | matrix | ident
    value: object
    token: Token

    def render(self) -> str:
        if self.kind == "matrix":
            return "[" + ",".join("[" + ",".join(str(v) for v in row) + "]" for row in self.value) + "]"
        return str(self.value)


@dataclass(frozen=True)
class OpDecl:
    name: str
    token: Token
    ctor: str
    ctor_token: Token
    args: tuple  # of (name, ValueNode, name_token)


@dataclass(frozen=True)
class CheckDecl:
    name: str
    token: Token
    operands: tuple  # of (name, token)

    @property
    def operand_names(self):
        return tuple(name for name, _ in self.operands)

    def render(self) -> str:
        return f"check {self.name} {' '.join(self.operand_names)};"


@dataclass
class SpecDraft:
    source: SpecSource
    statements: list = dc_field(default_factory=list)  # ("carrier"|"op"|"check", node)
    diagnostics: list = dc_field(default_factory=list)

    @property
    def carrier_atoms(self):
        for kind, node in self.statements:
            if kind == "carrier":
                return node
        return None

    @property
    def ops(self):
        return [node for kind, node in self.statements if kind == "op"]

    @property
    def checks(self):
        return [node for kind, node in self.statements if kind == "check"]

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def ok(self):
        return not self.errors


class _ParseFailure(Exception):
    def __init__(self, diagnostic):
        self.diagnostic = diagnostic


class _Parser:
    def __init__(self, tokens, diagnostics):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, token: Token, message: str):
        raise _ParseFailure(ParseDiagnostic(ERROR, token.line, token.column, message))

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == ch:
            return self.advance()
        self.fail(tok, f"expected {ch!r}" + (f", got {tok.text!r}" if tok.text else " before end of input"))

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind == "ident":
            return self.advance()
        self.fail(tok, f"expected {what}" + (f", got {tok.text!r}" if tok.text else " before end of input"))

    def expect_int(self) -> Token:
        tok = self.peek()
        if tok.kind == "int":
            return self.advance()
        self.fail(tok, "expected an integer" + (f", got {tok.text!r}" if tok.text else ""))

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == ch

    def sync_to_semicolon(self):
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            self.advance()
            if tok.kind == "punct" and tok.text == ";":
                return

    # --- statement parsers -------------------------------------------------

    def parse_carrier_atom(self) -> CarrierAtom:
        name_tok = self.expect_ident("a carrier name")
        self.expect_punct("(")
        args = [int(self.expect_int().text)]
        while self.at_punct(","):
            self.advance()
            args.append(int(self.expect_int().text))
        self.expect_punct(")")
        return CarrierAtom(name_tok.text, tuple(args), name_tok)

    def parse_carrier_decl(self):
        atoms = [self.parse_carrier_atom()]
        while self.peek().kind == "ident" and self.peek().text == "x":
            self.advance()
            atoms.append(self.parse_carrier_atom())
        self.expect_punct(";")
        return tuple(atoms)

    def parse_matrix_literal(self) -> ValueNode:
        open_tok = self.expect_punct("[")
        rows = []
        while True:
            self.expect_punct("[")
            row = [int(self.expect_int().text)]
            while self.at_punct(","):
                self.advance()
                row.append(int(self.expect_int().text))
            self.expect_punct("]")
            rows.append(tuple(row))
            if self.at_punct(","):
                self.advance()
                continue
            break
        self.expect_punct("]")
        return ValueNode("matrix", tuple(rows), open_tok)

    def parse_value(self) -> ValueNode:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return ValueNode("int", int(tok.text), tok)
        if tok.kind == "ident":
            self.advance()
            return ValueNode("ident", tok.text, tok)
        if tok.kind == "punct" and tok.text == "[":
            return self.parse_matrix_literal()
        self.fail(tok, "expected an integer, a matrix literal, or an identifier")

    def parse_op_decl(self) -> OpDecl:
        name_tok = self.expect_ident("an operation name")
        self.expect_punct("=")
        ctor_tok = self.expect_ident("a construction name")
        self.expect_punct("(")
        args = []
        if not self.at_punct(")"):
            while True:
                key_tok = self.expect_ident("an argument name")
                self.expect_punct("=")
                args.append((key_tok.text, self.parse_value(), key_tok))
                if self.at_punct(","):
                    self.advance()
                    continue
                break
        self.expect_punct(")")
        self.expect_punct(";")
        return OpDecl(name_tok.text, name_tok, ctor_tok.text, ctor_tok, tuple(args))

    def parse_check_decl(self) -> CheckDecl:
        name_tok = self.expect_ident("a check name")
        operands = []
        while self.peek().kind == "ident":
            tok = self.advance()
            operands.append((tok.text, tok))
        self.expect_punct(";")
        return CheckDecl(name_tok.text, name_tok, tuple(operands))

    def parse(self, draft: SpecDraft):
        while self.peek().kind != "eof":
            tok = self.peek()
            try:
                if tok.kind == "ident" and tok.text == "carrier":
                    self.advance()
                    atoms = self.parse_carrier_decl()
                    if draft.carrier_atoms is not None:
                        draft.diagnostics.append(
                            ParseDiagnostic(ERROR, tok.line, tok.column, "carrier already declared")
                        )
                    else:
                        draft.statements.append(("carrier", atoms))
                elif tok.kind == "ident" and tok.text == "op":
                    self.advance()
                    draft.statements.append(("op", self.parse_op_decl()))
                elif tok.kind == "ident" and tok.text == "check":
                    self.advance()
                    draft.statements.append(("check", self.parse_check_decl()))
                else:
                    self.fail(tok, f"expected 'carrier', 'op', or 'check', got {tok.text!r}")
            except _ParseFailure as failure:
                draft.diagnostics.append(failure.diagnostic)
                self.sync_to_semicolon()


# --- static validation ------------------------------------------------------


def _shape_of_atoms(atoms, diag):
    """Static carrier descriptor: kind plus whatever sizes are known syntactically."""
    shapes = []
    for atom in atoms:
        name, args, tok = atom.name, atom.args, atom.token
        err = lambda msg: diag.append(ParseDiagnostic(ERROR, tok.line, tok.column, msg))
        if name == "cyclic":
            if len(args) != 1 or args[0] < 1:
                err("cyclic(n) needs one argument n >= 1")
                return None
            shapes.append({"kind": "cyclic-group", "order": args[0]})
        elif name == "symmetric":
            if len(args) != 1 or not 1 <= args[0] <= 5:
                err("symmetric(n) needs one argument with 1 <= n <= 5")
                return None
            shapes.append({"kind": "symmetric-group", "order": args[0]})
        elif name in ("gl", "matrices"):
            if len(args) != 2 or args[0] < 1:
                err(f"{name}(n, p) needs a dimension and a modulus")
                return None
            if not is_prime(args[1]):
                err(f"modulus {args[1]} is not prime")
                return None
            kind = "matrix-group" if name == "gl" else "matrix-set"
            shapes.append({"kind": kind, "dim": args[0], "p": args[1]})
        elif name == "vectors":
            if len(args) != 2 or args[0] < 1:
                err("vectors(n, p) needs a dimension and a modulus")
                return None
            if not is_prime(args[1]):
                err(f"modulus {args[1]} is not prime")
                return None
            shapes.append({"kind": "vectors", "dim": args[0], "p": args[1]})
        elif name == "window":
            if len(args) != 2 or args[0] > args[1]:
                err("window(lo, hi) needs lo <= hi")
                return None
            shapes.append({"kind": "integer-window"})
        else:
            err(f"unknown carrier {name!r} (known: {', '.join(CARRIER_NAMES)})")
            return None

    if len(shapes) == 1:
        shape = shapes[0]
        if shape["kind"] == "vectors":
            tok = atoms[0].token
            diag.append(ParseDiagnostic(
                ERROR, tok.line, tok.column, "vectors(n,p) must be crossed with gl(n,p)"
            ))
            return None
        return shape

    if any(s["kind"] == "vectors" for s in shapes):
        tok = atoms[0].token
        if len(shapes) != 2 or shapes[0]["kind"] != "vectors" or shapes[1]["kind"] != "matrix-group":
            diag.append(ParseDiagnostic(
                ERROR, tok.line, tok.column,
                "pair carriers are written vectors(n,p) x gl(n,p)",
            ))
            return None
        v, g = shapes
        if v["dim"] != g["dim"] or v["p"] != g["p"]:
            diag.append(ParseDiagnostic(
                ERROR, tok.line, tok.column,
                "vector space and matrix group must share dimension and modulus",
            ))
            return None
        return {"kind": "vector-group-pairs", "dim": v["dim"], "p": v["p"], "group": g}

    for shape, atom in zip(shapes, atoms):
        if shape["kind"] == "integer-window":
            tok = atom.token
            diag.append(ParseDiagnostic(
                ERROR, tok.line, tok.column, "window carriers cannot be crossed"
            ))
            return None
    return {"kind": "direct-product", "factors": shapes}


_GROUP_KINDS = ("cyclic-group", "symmetric-group", "matrix-group")


def _is_group_shape(shape):
    if shape["kind"] in _GROUP_KINDS:
        return True
    if shape["kind"] == "direct-product":
        return all(_is_group_shape(f) for f in shape["factors"])
    return False


def _is_monoid_shape(shape):
    if shape["kind"] == "matrix-set" or _is_group_shape(shape):
        return True
    if shape["kind"] == "direct-product":
        return all(_is_monoid_shape(f) for f in shape["factors"])
    return False


class _OpValidator:
    """Per-construction static checks; positions come from the declaration tokens."""

    def __init__(self, draft, shape):
        self.draft = draft
        self.shape = shape
        self.declared = []

    def error(self, token, message):
        self.draft.diagnostics.append(ParseDiagnostic(ERROR, token.line, token.column, message))

    def args_of(self, op: OpDecl) -> dict:
        seen = {}
        for name, value, tok in op.args:
            if name in seen:
                self.error(tok, f"duplicate argument {name!r}")
            seen[name] = value
        return seen

    def require_kind(self, op: OpDecl, kinds, what) -> bool:
        if self.shape is None:
            return False
        if self.shape["kind"] not in kinds:
            self.error(op.ctor_token, f"{op.ctor} needs {what}, carrier is {self.shape['kind']}")
            return False
        return True

    def int_arg(self, op, args, name, default=None):
        node = args.pop(name, None)
        if node is None:
            if default is None:
                self.error(op.ctor_token, f"{op.ctor} needs argument {name}=<int>")
                return None
            return default
        if node.kind != "int":
            self.error(node.token, f"argument {name} must be an integer")
            return None
        return node.value

    def matrix_arg(self, op, args, name):
        node = args.pop(name, None)
        if node is None:
            self.error(op.ctor_token, f"{op.ctor} needs argument {name}=<matrix>")
            return None
        if node.kind != "matrix":
            self.error(node.token, f"argument {name} must be a matrix literal")
            return None
        rows = node.value
        if any(len(r) != len(rows[0]) for r in rows):
            self.error(node.token, "matrix rows have unequal lengths")
            return None
        if self.shape and "dim" in self.shape:
            dim = self.shape["dim"]
            if len(rows) != dim or len(rows[0]) != dim:
                self.error(node.token, f"matrix must be {dim}x{dim} for this carrier")
                return None
        elif len(rows) != len(rows[0]):
            self.error(node.token, "matrix must be square")
            return None
        return node

    def keyword_arg(self, op, args, name, allowed):
        node = args.pop(name, None)
        if node is None:
            self.error(op.ctor_token, f"{op.ctor} needs argument {name}=<{'|'.join(allowed)}>")
            return None
        if node.kind != "ident" or node.value not in allowed:
            self.error(node.token, f"argument {name} must be one of: {', '.join(allowed)}")
            return None
        return node.value

    def op_ref_arg(self, op, args, name):
        node = args.pop(name, None)
        if node is None:
            self.error(op.ctor_token, f"{op.ctor} needs argument {name}=<declared op>")
            return None
        if node.kind != "ident":
            self.error(node.token, f"argument {name} must name a declared operation")
            return None
        if node.value not in self.declared:
            self.error(node.token, f"unknown operation {node.value!r} (declare it first)")
            return None
        return node.value

    def phi_args(self, op, args):
        """At most one of phi=identity, phi=[[...]], inner=<int>, power=<int>."""
        given = [k for k in ("phi", "inner", "power") if k in args]
        if len(given) > 1:
            self.error(op.ctor_token, "give at most one of phi=, inner=, power=")
            for k in given:
                args.pop(k)
            return None
        if not given:
            return ("identity",)
        key = given[0]
        node = args.pop(key)
        if key == "phi":
            if node.kind == "ident" and node.value == "identity":
                return ("identity",)
            if node.kind == "matrix":
                if len(node.value) != 1:
                    self.error(node.token, "phi image table must be a single row of indices")
                    return None
                return ("images", node.value[0])
            self.error(node.token, "phi must be `identity` or a one-row index table")
            return None
        if node.kind != "int":
            self.error(node.token, f"argument {key} must be an integer")
            return None
        return ("inner", node.value) if key == "inner" else ("power", node.value)

    def finish(self, op, args):
        for name, node in args.items():
            self.error(node.token, f"{op.ctor} does not take an argument named {name!r}")

    # --- one method per construction ---------------------------------------

    def validate(self, op: OpDecl):
        handler = getattr(self, f"v_{op.ctor}", None)
        if handler is None:
            self.error(op.ctor_token, f"unknown construction {op.ctor!r}")
            return
        handler(op)

    def v_matrix_op(self, op):
        args = self.args_of(op)
        if self.require_kind(op, ("matrix-set", "matrix-group"), "a matrix carrier"):
            self.int_arg(op, args, "s")
            self.int_arg(op, args, "t")
            self.matrix_arg(op, args, "m1")
            self.matrix_arg(op, args, "m2")
        self.finish(op, args)

    def v_gl_group_op(self, op):
        args = self.args_of(op)
        if self.require_kind(op, ("matrix-set", "matrix-group"), "a matrix carrier"):
            node = self.matrix_arg(op, args, "m")
            if node is not None and self.shape and "p" in self.shape:
                m = Matrix.from_rows(node.value, PrimeField(self.shape["p"]))
                if mat_det(m) == 0:
                    self.error(node.token, f"matrix constant is singular mod {self.shape['p']}")
        self.finish(op, args)

    def _group_ctor(self, op, handler):
        args = self.args_of(op)
        if self.shape is not None and not _is_group_shape(self.shape):
            self.error(op.ctor_token, f"{op.ctor} needs a group carrier")
        else:
            handler(op, args)
        self.finish(op, args)

    def v_conj_quandle(self, op):
        self._group_ctor(op, lambda o, a: self.int_arg(o, a, "m", default=1))

    def v_core_quandle(self, op):
        self._group_ctor(op, lambda o, a: None)

    def v_alexander_quandle(self, op):
        self._group_ctor(op, lambda o, a: self.phi_args(o, a))

    def v_vxg_phi_op(self, op):
        args = self.args_of(op)
        if self.require_kind(op, ("vector-group-pairs",), "a vectors(n,p) x gl(n,p) carrier"):
            self.phi_args(op, args)
        self.finish(op, args)

    def v_vxg_conj_op(self, op):
        args = self.args_of(op)
        if self.require_kind(op, ("vector-group-pairs",), "a vectors(n,p) x gl(n,p) carrier"):
            self.int_arg(op, args, "n")
        self.finish(op, args)

    def v_opposite(self, op):
        args = self.args_of(op)
        self.op_ref_arg(op, args, "of")
        self.finish(op, args)

    def v_pair_dimonoid(self, op):
        args = self.args_of(op)
        ok = self.shape is not None and self.shape["kind"] == "direct-product" \
            and len(self.shape["factors"]) == 2 \
            and self.shape["factors"][0] == self.shape["factors"][1] \
            and _is_monoid_shape(self.shape["factors"][0])
        if not ok:
            self.error(op.ctor_token, "pair_dimonoid needs a carrier M x M with M a monoid")
        else:
            self.keyword_arg(op, args, "part", ("dashv", "vdash"))
        self.finish(op, args)

    def v_action_dimonoid(self, op):
        args = self.args_of(op)
        if self.require_kind(op, ("vector-group-pairs",), "a vectors(n,p) x gl(n,p) carrier"):
            self.keyword_arg(op, args, "part", ("dashv", "vdash"))
        self.finish(op, args)

    def _brace(self, op):
        args = self.args_of(op)
        if self.shape is not None and not _is_group_shape(self.shape):
            self.error(op.ctor_token, f"{op.ctor} needs a group carrier")
        else:
            self.keyword_arg(op, args, "part", ("dot", "circ"))
        self.finish(op, args)

    def v_brace_trivial(self, op):
        self._brace(op)

    def v_brace_opposite(self, op):
        self._brace(op)

    def v_z_parity_brace(self, op):
        args = self.args_of(op)
        ok = self.shape is not None and self.shape["kind"] == "cyclic-group" \
            and self.shape["order"] % 2 == 0
        if not ok:
            self.error(op.ctor_token, "z_parity_brace needs a cyclic carrier of even order")
        else:
            self.keyword_arg(op, args, "part", ("plus", "circ"))
        self.finish(op, args)


def _validate(draft: SpecDraft):
    atoms = draft.carrier_atoms
    shape = _shape_of_atoms(atoms, draft.diagnostics) if atoms is not None else None
    validator = _OpValidator(draft, shape)
    used_ops = set()
    for kind, node in draft.statements:
        if kind == "op":
            if atoms is None:
                validator.error(node.token, "declare a carrier before any operations")
            if node.name in validator.declared:
                validator.error(node.token, f"operation {node.name!r} already declared")
                continue
            validator.validate(node)
            validator.declared.append(node.name)
        elif kind == "check":
            name = node.name
            if name not in CHECK_NAMES:
                validator.error(node.token, f"unknown check {name!r}")
                continue
            arity = CHECK_ARITY[name]
            if arity is None:
                if not node.operands:
                    validator.error(node.token, f"check {name} needs at least one operation")
            elif len(node.operands) != arity:
                validator.error(
                    node.token,
                    f"check {name} takes {arity} operation{'s' if arity != 1 else ''}, got {len(node.operands)}",
                )
            for op_name, tok in node.operands:
                if op_name not in validator.declared:
                    validator.error(tok, f"unknown operation {op_name!r} (declare it first)")
                used_ops.add(op_name)
    for op in draft.ops:
        if op.name not in used_ops:
            draft.diagnostics.append(ParseDiagnostic(
                WARNING, op.token.line, op.token.column,
                f"operation {op.name!r} is never checked",
            ))


def parse_spec(source) -> SpecDraft:
    """Parse and statically validate a spec document; never raises."""
    if not isinstance(source, SpecSource):
        source = SpecSource(text=source)
    tokens, diagnostics = tokenize(source.text)
    draft = SpecDraft(source=source, diagnostics=diagnostics)
    _Parser(tokens, draft.diagnostics).parse(draft)
    _validate(draft)
    return draft


# --- pretty printing ---------------------------------------------------------


def format_spec(draft: SpecDraft) -> str:
    """Canonical text for a draft; re-parsing yields an equivalent system."""
    lines = []
    for kind, node in draft.statements:
        if kind == "carrier":
            atoms = " x ".join(f"{a.name}({','.join(str(v) for v in a.args)})" for a in node)
            lines.append(f"carrier {atoms};")
        elif kind == "op":
            args = ", ".join(f"{name}={value.render()}" for name, value, _ in node.args)
            lines.append(f"op {node.name} = {node.ctor}({args});")
        else:
            lines.append(node.render())
    return "\n".join(lines) + ("\n" if lines else "")


# --- compilation --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompiledSpec:
    source: SpecSource
    carrier: object
    ops: dict
    checks: tuple
    system: SystemSpec


def _build_carrier(atoms):
    names = [a.name for a in atoms]
    if names[0] == "vectors":
        (vdim, p), (gn, gp) = atoms[0].args, atoms[1].args
        return pair_carrier(vdim, p, gl_group(gn, gp))
    carrier = build_carrier_atom(atoms[0].name, list(atoms[0].args))
    for atom in atoms[1:]:
        carrier = direct_product(carrier, build_carrier_atom(atom.name, list(atom.args)))
    return carrier


def _value_map(op: OpDecl) -> dict:
    return {name: node for name, node, _ in op.args}


def _phi_rule(args: dict):
    given = [k for k in ("phi", "inner", "power") if k in args]
    if not given:
        return "identity"
    key = given[0]
    node = args[key]
    if key == "phi":
        if node.kind == "ident":
            return "identity"
        return tuple(node.value[0])
    if key == "inner":
        return ("inner-index", node.value)
    return ("power", node.value)


def _make_phi(group, rule):
    if isinstance(rule, tuple) and rule and rule[0] == "inner-index":
        index = rule[1]
        if not 0 <= index < len(group):
            raise SpecError([ParseDiagnostic(ERROR, 1, 1, f"inner index {index} out of range for {group.label}")])
        return make_automorphism(group, ("inner", group.elements[index]))
    return make_automorphism(group, rule)


def _build_op(op: OpDecl, carrier, built: dict) -> OpTable:
    args = _value_map(op)
    ctor = op.ctor
    if ctor == "matrix_op":
        fld = carrier.field
        params = MatrixOpParams(
            s=args["s"].value,
            t=args["t"].value,
            m1=Matrix.from_rows(args["m1"].value, fld),
            m2=Matrix.from_rows(args["m2"].value, fld),
        )
        return matrix_op(params, carrier, label=op.name)
    if ctor == "gl_group_op":
        return gl_group_op(Matrix.from_rows(args["m"].value, carrier.field), carrier, label=op.name)
    if ctor == "conj_quandle":
        m = args["m"].value if "m" in args else 1
        return conj_quandle(carrier, m, label=op.name)
    if ctor == "core_quandle":
        return core_quandle(carrier, label=op.name)
    if ctor == "alexander_quandle":
        phi = _make_phi(carrier, _phi_rule(args))
        return alexander_quandle(carrier, phi, label=op.name)
    if ctor == "vxg_phi_op":
        phi = _make_phi(carrier.group, _phi_rule(args))
        return vxg_phi_op(carrier, phi, label=op.name)
    if ctor == "vxg_conj_op":
        return vxg_conj_op(carrier, args["n"].value, label=op.name)
    if ctor == "opposite":
        return opposite_op(built[args["of"].value], label=op.name)
    if ctor == "pair_dimonoid":
        dashv, vdash = pair_dimonoid_on(carrier)
        return (dashv if args["part"].value == "dashv" else vdash).relabel(op.name)
    if ctor == "action_dimonoid":
        dashv, vdash = action_dimonoid(carrier)
        return (dashv if args["part"].value == "dashv" else vdash).relabel(op.name)
    if ctor in ("brace_trivial", "brace_opposite"):
        dot, circ = brace_ops(carrier, "trivial" if ctor == "brace_trivial" else "opposite")
        return (dot if args["part"].value == "dot" else circ).relabel(op.name)
    if ctor == "z_parity_brace":
        plus, circ = z_parity_brace(carrier)
        return (plus if args["part"].value == "plus" else circ).relabel(op.name)
    raise SpecError([ParseDiagnostic(ERROR, op.ctor_token.line, op.ctor_token.column,
                                     f"unknown construction {ctor!r}")])


def compile_spec(draft: SpecDraft) -> CompiledSpec:
    """Instantiate carrier and tables; error diagnostics prevent compilation.

    Raises SpecError when the draft has error diagnostics. Construction-time
    failures (carrier guard, closure, singularity) propagate as their own
    exception types.
    """
    if not draft.ok:
        raise SpecError(draft.errors)
    atoms = draft.carrier_atoms
    if atoms is None:
        raise SpecError([ParseDiagnostic(ERROR, 1, 1, "spec declares no carrier")])
    carrier = _build_carrier(atoms)
    ops: dict = {}
    for op in draft.ops:
        ops[op.name] = _build_op(op, carrier, ops)
    system = SystemSpec(carrier=carrier, ops=ops)
    return CompiledSpec(
        source=draft.source,
        carrier=carrier,
        ops=ops,
        checks=tuple(draft.checks),
        system=system,
    )


def run_check(compiled: CompiledSpec, check: CheckDecl, jobs: int = 1):
    """Dispatch one declared check to the axiom engine.

    A check whose operands it cannot take raises a WorkbenchError; for
    skew_brace on a non-group that is a NotAGroupError naming the operand.
    """
    ops = [compiled.ops[name] for name in check.operand_names]
    name = check.name
    if name == "assoc":
        return axioms.check_associativity(ops[0], jobs=jobs)
    if name == "interchange":
        return axioms.check_interchange(ops[0], ops[1], jobs=jobs)
    if name == "idempotent":
        return axioms.check_idempotency(ops[0])
    if name in ("divisibility_left", "divisibility_right"):
        return axioms.check_divisibility(ops[0], name.rsplit("_", 1)[1], unique=True)
    if name in ("distrib_left", "distrib_right"):
        return axioms.check_self_distributivity(ops[0], name.rsplit("_", 1)[1], jobs=jobs)
    if name == "group":
        return axioms.check_group(ops[0], jobs=jobs)
    if name in ("rack_left", "rack_right", "quandle_left", "quandle_right"):
        kind, side = name.rsplit("_", 1)
        return axioms.check_rack_quandle(
            ops[0], side, require_idempotent=(kind == "quandle"), jobs=jobs
        )
    if name == "dimonoid":
        return axioms.check_dimonoid(ops[0], ops[1], jobs=jobs)
    if name == "skew_brace":
        try:
            return axioms.check_skew_brace(ops[0], ops[1], jobs=jobs)
        except NotAGroupError as err:
            operand = check.operand_names[0 if err.which == "dot" else 1]
            raise NotAGroupError(f"operation {operand!r}", err.report) from err
    if name == "multiquandle":
        return axioms.check_multiquandle_pair(ops[0], ops[1], jobs=jobs)
    if name == "nvalued_assoc":
        return axioms.check_nvalued_associativity(ops, jobs=jobs)
    raise ValueError(f"unknown check {name!r}")
