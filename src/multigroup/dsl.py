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
    intList     := int ("," int)* ;
    identList   := ident* ;
    ident       := (alpha | "_") (alnum | "_")* ;   alpha, alnum: as str.isalpha, str.isalnum
    int         := "-"? decimal+ ;   decimal: as str.isdecimal, so 0-9 or another script's digits

name, ctorName and checkName are idents naming a key of carriers.CARRIER_ATOMS,
CONSTRUCTIONS and CHECKS; `x` between carrier atoms is the cross keyword and
an ident elsewhere. Identifiers are declared before use. parse_spec never
raises for bad input; it returns a draft whose diagnostics carry 1-based
line/column positions inside the offending token. Error diagnostics prevent
compilation.

Validation builds the declared carrier once, through carriers.build_carrier,
and keeps it on the draft: the carrier rules and their messages live in
carriers.py only, and the op checks read the built Carrier. Each construction's
carrier need and its message live in constructions.py only, so a spec refuses
a carrier with the library's text. So do the rules on a matrix constant: a
matrix literal is built by constructions.matrix_constant, and what it raises
is reported at the literal. Only the literal's own rule, equal row lengths,
is checked here. parse_carrier_expr parses a carrierExpr alone, for
`multigroup enumerate` and group_carrier.
"""

from typing import Callable, NamedTuple

from . import axioms, constructions
from .axioms import LEFT, RIGHT
from .carriers import Carrier, build_carrier, make_automorphism
from .errors import NotAGroupError, SpecError, UnsupportedCarrierError, WorkbenchError, error_message
from .optables import _Frozen, job_count
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


class SpecSource(NamedTuple):
    text: str
    origin: str = "<string>"


class ParseDiagnostic(NamedTuple):
    severity: str
    line: int
    column: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class Token(NamedTuple):
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
        if ch == "#":  # a comment moves no column: the eof token of a last line sits at its '#'
            while i < n and text[i] != "\n":
                i += 1
            continue
        j, kind = i + 1, None  # text[i:j] is the token, or the one character skipped
        if ch.isalpha() or ch == "_":
            kind = "ident"
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif ch.isdecimal() or (ch == "-" and j < n and text[j].isdecimal()):
            kind = "int"
            while j < n and text[j].isdecimal():
                j += 1
        elif ch in ";=(),[]":
            kind = "punct"
        elif ch not in " \t\r":
            diagnostics.append(ParseDiagnostic(ERROR, line, col, f"unexpected character {ch!r}"))
        if kind is not None:
            tokens.append(Token(kind, text[i:j], line, col))
        col += j - i
        i = j
    tokens.append(Token("eof", "", line, col))
    return tokens, diagnostics


class CarrierAtom(NamedTuple):
    name: str
    args: tuple
    token: Token


class ValueNode(NamedTuple):
    kind: str  # int | matrix | ident
    value: object
    token: Token

    def render(self) -> str:
        if self.kind == "matrix":
            return "[" + ",".join("[" + ",".join(str(v) for v in row) + "]" for row in self.value) + "]"
        return str(self.value)


class OpDecl(NamedTuple):
    name: str
    token: Token
    ctor: str
    ctor_token: Token
    args: tuple  # of (name, ValueNode, name_token)


class CheckDecl(NamedTuple):
    name: str
    token: Token
    operands: tuple  # of (name, token)

    @property
    def operand_names(self):
        return tuple(name for name, _ in self.operands)

    def render(self) -> str:
        return f"check {self.name} {' '.join(self.operand_names)};"


class SpecDraft:
    """A parsed spec, filled in by the parser and then by validation."""

    def __init__(self, source: SpecSource, statements: list | None = None,
                 diagnostics: list | None = None, values: dict | None = None,
                 carrier: Carrier | None = None):
        self.source = source
        # ("carrier"|"op"|"check", node), or ("op-name", name token) for an op that failed to parse
        self.statements = [] if statements is None else statements
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.values = {} if values is None else values  # op name -> argument values resolved by validation
        self.carrier = carrier  # built by validation from a valid carrier declaration

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
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

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

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            self.fail(tok, "expected an integer" + (f", got {tok.text!r}" if tok.text else ""))
        return self.int_value(self.advance())

    def int_value(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            self.fail(tok, f"integer literal of {len(tok.text.lstrip('-'))} digits is too long")

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == ch

    def items(self, item: Callable, close: str, empty: bool = False) -> tuple:
        """item(), again after each comma, then the punctuation close; with empty, a bare close gives ()."""
        found = [] if empty and self.at_punct(close) else [item()]
        while self.at_punct(","):
            self.advance()
            found.append(item())
        self.expect_punct(close)
        return tuple(found)

    def sync_to_semicolon(self):
        while not (self.at_punct(";") or self.peek().kind == "eof"):
            self.advance()
        self.advance()  # past the ';'; at eof it stays put

    # --- statement parsers -------------------------------------------------

    def parse_carrier_atom(self) -> CarrierAtom:
        name_tok = self.expect_ident("a carrier name")
        self.expect_punct("(")
        return CarrierAtom(name_tok.text, self.items(self.expect_int, ")"), name_tok)

    def parse_carrier_expr(self):
        atoms = [self.parse_carrier_atom()]
        while self.peek().kind == "ident" and self.peek().text == "x":
            self.advance()
            atoms.append(self.parse_carrier_atom())
        return tuple(atoms)

    def parse_row(self) -> tuple:
        self.expect_punct("[")
        return self.items(self.expect_int, "]")

    def parse_matrix_literal(self) -> ValueNode:
        open_tok = self.expect_punct("[")
        return ValueNode("matrix", self.items(self.parse_row, "]"), open_tok)

    def parse_value(self) -> ValueNode:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return ValueNode("int", self.int_value(tok), tok)
        if tok.kind == "ident":
            self.advance()
            return ValueNode("ident", tok.text, tok)
        if tok.kind == "punct" and tok.text == "[":
            return self.parse_matrix_literal()
        self.fail(tok, "expected an integer, a matrix literal, or an identifier")

    def parse_arg(self) -> tuple:
        key_tok = self.expect_ident("an argument name")
        self.expect_punct("=")
        return key_tok.text, self.parse_value(), key_tok

    def parse_op_decl(self) -> OpDecl:
        name_tok = self.expect_ident("an operation name")
        self.expect_punct("=")
        ctor_tok = self.expect_ident("a construction name")
        self.expect_punct("(")
        args = self.items(self.parse_arg, ")", empty=True)
        self.expect_punct(";")
        return OpDecl(name_tok.text, name_tok, ctor_tok.text, ctor_tok, args)

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
                    atoms = self.parse_carrier_expr()
                    self.expect_punct(";")
                    if draft.carrier_atoms is not None:
                        draft.diagnostics.append(
                            ParseDiagnostic(ERROR, tok.line, tok.column, "carrier already declared")
                        )
                    else:
                        draft.statements.append(("carrier", atoms))
                elif tok.kind == "ident" and tok.text == "op":
                    self.advance()
                    name_tok = self.peek()
                    try:
                        draft.statements.append(("op", self.parse_op_decl()))
                    except _ParseFailure:
                        # the name parsed: keep it declared, so that checks
                        # naming it add no second diagnostic
                        if name_tok.kind == "ident":
                            draft.statements.append(("op-name", name_tok))
                        raise
                elif tok.kind == "ident" and tok.text == "check":
                    self.advance()
                    draft.statements.append(("check", self.parse_check_decl()))
                else:
                    self.fail(tok, f"expected 'carrier', 'op', or 'check', got {tok.text!r}")
            except _ParseFailure as failure:
                draft.diagnostics.append(failure.diagnostic)
                self.sync_to_semicolon()


# --- the check and construction tables ---------------------------------------
#
# Validation, compilation and run_check read these two tables. Runners and
# builders name the public axioms/constructions function inside a lambda, so
# it is looked up at call time and a wrapper put on that name sees every call.
# A construction's need is the CarrierNeed its builder checks; validation reports its text.
# A MATRIX or INVERTIBLE argument is built by constructions.matrix_constant, the
# function the matrix builders check their constants by, so its refusal has their text.
# The entry types are NamedTuples, as are the package's other value records:
# defining a dataclass execs generated source, which every `multigroup` start
# would pay.


class CheckSpec(NamedTuple):
    arity: int | None  # None means one or more operands
    run: Callable  # (op tables, jobs) -> report


CHECKS = {
    "assoc": CheckSpec(1, lambda ops, jobs: axioms.check_associativity(*ops, jobs=jobs)),
    "interchange": CheckSpec(2, lambda ops, jobs: axioms.check_interchange(*ops, jobs=jobs)),
    "idempotent": CheckSpec(1, lambda ops, jobs: axioms.check_idempotency(*ops)),
    "divisibility_left": CheckSpec(1, lambda ops, jobs: axioms.check_divisibility(*ops, LEFT, unique=True)),
    "divisibility_right": CheckSpec(1, lambda ops, jobs: axioms.check_divisibility(*ops, RIGHT, unique=True)),
    "distrib_left": CheckSpec(1, lambda ops, jobs: axioms.check_self_distributivity(*ops, LEFT, jobs=jobs)),
    "distrib_right": CheckSpec(1, lambda ops, jobs: axioms.check_self_distributivity(*ops, RIGHT, jobs=jobs)),
    "group": CheckSpec(1, lambda ops, jobs: axioms.check_group(*ops, jobs=jobs)),
    "rack_left": CheckSpec(1, lambda ops, jobs: axioms.check_rack_quandle(
        *ops, LEFT, require_idempotent=False, jobs=jobs)),
    "rack_right": CheckSpec(1, lambda ops, jobs: axioms.check_rack_quandle(
        *ops, RIGHT, require_idempotent=False, jobs=jobs)),
    "quandle_left": CheckSpec(1, lambda ops, jobs: axioms.check_rack_quandle(
        *ops, LEFT, require_idempotent=True, jobs=jobs)),
    "quandle_right": CheckSpec(1, lambda ops, jobs: axioms.check_rack_quandle(
        *ops, RIGHT, require_idempotent=True, jobs=jobs)),
    "dimonoid": CheckSpec(2, lambda ops, jobs: axioms.check_dimonoid(*ops, jobs=jobs)),
    "skew_brace": CheckSpec(2, lambda ops, jobs: axioms.check_skew_brace(*ops, jobs=jobs)),
    "multiquandle": CheckSpec(2, lambda ops, jobs: axioms.check_multiquandle_pair(*ops, jobs=jobs)),
    "nvalued_assoc": CheckSpec(None, lambda ops, jobs: axioms.check_nvalued_associativity(ops, jobs=jobs)),
}
CHECK_NAMES = tuple(CHECKS)


INT, MATRIX, INVERTIBLE, CHOICE, OP_REF, PHI = "int", "matrix", "invertible matrix", "choice", "op", "phi"
PHI_KEYS = ("phi", "inner", "power")


class Arg(NamedTuple):
    name: str
    kind: str  # INT, MATRIX or INVERTIBLE (by constructions.matrix_constant), CHOICE (part=), OP_REF or PHI
    default: int | None = None  # INT only; None makes the argument required

    @property
    def keys(self):
        """The argument names this one answers to: a PHI argument is one of phi=, inner=, power=."""
        return PHI_KEYS if self.kind == PHI else (self.name,)


class ConstructionSpec(NamedTuple):
    """One op construction.

    build(carrier, values) gets the argument values validation resolved, with
    op references replaced by their tables. An entry with parts takes
    part=<one of parts> and its build returns one table per part; compile
    builds it once for all of them.
    """

    need: constructions.CarrierNeed | None
    args: tuple  # of Arg
    build: Callable
    parts: tuple = ()

    @property
    def arguments(self):
        return self.args + ((Arg("part", CHOICE),) if self.parts else ())


CONSTRUCTIONS = {
    "matrix_op": ConstructionSpec(
        constructions.MATRIX_CARRIER, (Arg("s", INT), Arg("t", INT), Arg("m1", MATRIX), Arg("m2", MATRIX)),
        lambda carrier, v: matrix_op(MatrixOpParams(v["s"], v["t"], v["m1"], v["m2"]), carrier),
    ),
    "gl_group_op": ConstructionSpec(
        constructions.MATRIX_CARRIER, (Arg("m", INVERTIBLE),), lambda carrier, v: gl_group_op(v["m"], carrier),
    ),
    "conj_quandle": ConstructionSpec(
        constructions.GROUP_CARRIER, (Arg("m", INT, default=1),), lambda carrier, v: conj_quandle(carrier, v["m"]),
    ),
    "core_quandle": ConstructionSpec(constructions.GROUP_CARRIER, (), lambda carrier, v: core_quandle(carrier)),
    "alexander_quandle": ConstructionSpec(
        constructions.GROUP_CARRIER, (Arg("phi", PHI),),
        lambda carrier, v: alexander_quandle(carrier, make_automorphism(carrier, v["phi"])),
    ),
    "vxg_phi_op": ConstructionSpec(
        constructions.PAIR_CARRIER, (Arg("phi", PHI),),
        lambda carrier, v: vxg_phi_op(carrier, make_automorphism(carrier.group, v["phi"])),
    ),
    "vxg_conj_op": ConstructionSpec(
        constructions.PAIR_CARRIER, (Arg("n", INT),), lambda carrier, v: vxg_conj_op(carrier, v["n"]),
    ),
    "opposite": ConstructionSpec(None, (Arg("of", OP_REF),), lambda carrier, v: opposite_op(v["of"])),
    "pair_dimonoid": ConstructionSpec(
        constructions.MONOID_SQUARE, (), lambda carrier, v: pair_dimonoid_on(carrier), parts=("dashv", "vdash"),
    ),
    "action_dimonoid": ConstructionSpec(
        constructions.PAIR_CARRIER, (), lambda carrier, v: action_dimonoid(carrier), parts=("dashv", "vdash"),
    ),
    "brace_trivial": ConstructionSpec(
        constructions.GROUP_CARRIER, (), lambda carrier, v: brace_ops(carrier, "trivial"), parts=("dot", "circ"),
    ),
    "brace_opposite": ConstructionSpec(
        constructions.GROUP_CARRIER, (), lambda carrier, v: brace_ops(carrier, "opposite"), parts=("dot", "circ"),
    ),
    "z_parity_brace": ConstructionSpec(
        constructions.EVEN_CYCLIC, (), lambda carrier, v: z_parity_brace(carrier), parts=("plus", "circ"),
    ),
}


# --- static validation of ops and checks -------------------------------------


class _OpValidator:
    """Checks ops against CONSTRUCTIONS; positions come from the declaration tokens."""

    def __init__(self, draft):
        self.draft = draft
        self.carrier = draft.carrier
        self.declared = []

    def error(self, token, message):
        self.draft.diagnostics.append(ParseDiagnostic(ERROR, token.line, token.column, message))

    def validate(self, op: OpDecl):
        """Report what is wrong with op; returns its resolved argument values, or None.

        Unknown and duplicate argument names are reported whatever the carrier.
        The carrier need is checked only on a valid carrier; when it fails, no
        argument value is looked at.
        """
        spec = CONSTRUCTIONS.get(op.ctor)
        if spec is None:
            self.error(op.ctor_token, f"unknown construction {op.ctor!r}")
            return None
        nodes = {}
        for name, node, tok in op.args:
            if name in nodes:
                self.error(tok, f"duplicate argument {name!r}")
            nodes[name] = node
        values = None
        try:
            if spec.need is not None and self.carrier is not None:
                spec.need.require(self.carrier, op.ctor)
        except UnsupportedCarrierError as refused:
            self.error(op.ctor_token, str(refused))
        else:
            resolve = {INT: self.int_arg, MATRIX: self.matrix_arg, INVERTIBLE: self.matrix_arg,
                       CHOICE: self.choice_arg, OP_REF: self.op_arg, PHI: self.phi_arg}
            values = {arg.name: resolve[arg.kind](op, spec, nodes, arg) for arg in spec.arguments}
        known = {key for arg in spec.arguments for key in arg.keys}
        for name, node in nodes.items():
            if name not in known:
                self.error(node.token, f"{op.ctor} does not take an argument named {name!r}")
        return values

    # --- one method per argument kind; each returns the value or None --------

    def given(self, op, nodes, arg, kind, what, wrong):
        """The node given for arg if it is of kind; else None, reported as a missing
        name=<what> (unless arg has a default) or as `argument <name> <wrong>`."""
        node = nodes.get(arg.name)
        if node is None:
            if arg.default is None:
                self.error(op.ctor_token, f"{op.ctor} needs argument {arg.name}=<{what}>")
        elif node.kind != kind:
            self.error(node.token, f"argument {arg.name} {wrong}")
        else:
            return node
        return None

    def int_arg(self, op, spec, nodes, arg):
        node = self.given(op, nodes, arg, "int", "int", "must be an integer")
        if node is None:  # missing, so its default, or reported
            return arg.default if arg.name not in nodes else None
        return node.value

    def matrix_arg(self, op, spec, nodes, arg):
        node = self.given(op, nodes, arg, "matrix", "matrix", "must be a matrix literal")
        if node is None:
            return None
        rows = node.value
        if any(len(r) != len(rows[0]) for r in rows):
            self.error(node.token, "matrix rows have unequal lengths")
            return None
        if self.carrier is None:  # nothing to size it by; the carrier error stops compilation
            return None
        try:
            return constructions.matrix_constant(self.carrier, rows, invertible=arg.kind == INVERTIBLE)
        except WorkbenchError as refused:
            self.error(node.token, str(refused))
            return None

    def choice_arg(self, op, spec, nodes, arg):
        wrong = f"must be one of: {', '.join(spec.parts)}"
        node = self.given(op, nodes, arg, "ident", "|".join(spec.parts), wrong)
        if node is None:
            return None
        if node.value not in spec.parts:
            self.error(node.token, f"argument {arg.name} {wrong}")
            return None
        return node.value

    def op_arg(self, op, spec, nodes, arg):
        node = self.given(op, nodes, arg, "ident", "declared op", "must name a declared operation")
        if node is None:
            return None
        if node.value not in self.declared:
            self.error(node.token, f"unknown operation {node.value!r} (declare it first)")
            return None
        return node.value

    def phi_arg(self, op, spec, nodes, arg):
        """At most one of phi=identity, phi=[[...]], inner=<int>, power=<int>.

        The value is a make_automorphism rule: inner=<index> is range-checked
        against the group the op acts on and becomes ("inner", element).
        """
        given = [k for k in PHI_KEYS if k in nodes]
        if len(given) > 1:
            self.error(op.ctor_token, "give at most one of phi=, inner=, power=")
            return None
        if not given:
            return "identity"
        key = given[0]
        node = nodes[key]
        if key == "phi":
            if node.kind == "ident" and node.value == "identity":
                return "identity"
            if node.kind == "matrix":
                if len(node.value) != 1:
                    self.error(node.token, "phi image table must be a single row of indices")
                    return None
                return node.value[0]
            self.error(node.token, "phi must be `identity` or a one-row index table")
            return None
        if node.kind != "int":
            self.error(node.token, f"argument {key} must be an integer")
            return None
        if key == "power":
            return ("power", node.value)
        if self.carrier is None:
            return None
        group = self.carrier.group if self.carrier.group is not None else self.carrier
        if not 0 <= node.value < len(group):
            self.error(node.token, f"inner index {node.value} out of range for {group.label}")
            return None
        return ("inner", group.elements[node.value])


def _at(token: Token, build: Callable):
    """build(), with a WorkbenchError or MemoryError it raises re-raised as a SpecError at token."""
    try:
        return build()
    except (WorkbenchError, MemoryError) as err:
        raise SpecError([ParseDiagnostic(ERROR, token.line, token.column, error_message(err))]) from err


def _validate(draft: SpecDraft):
    atoms = draft.carrier_atoms
    if atoms is not None:
        try:
            draft.carrier = build_carrier([(atom.name, atom.args) for atom in atoms],
                                          lambda i, build: _at(atoms[i].token, build))
        except SpecError as err:
            draft.diagnostics.extend(err.diagnostics)
    validator = _OpValidator(draft)
    used_ops = set()
    for kind, node in draft.statements:
        if kind == "op-name":  # an op whose parse error is its one diagnostic
            validator.declared.append(node.text)
        elif kind == "op":
            if atoms is None:
                validator.error(node.token, "declare a carrier before any operations")
            if node.name in validator.declared:
                validator.error(node.token, f"operation {node.name!r} already declared")
                continue
            draft.values[node.name] = validator.validate(node)
            validator.declared.append(node.name)
        elif kind == "check":
            name = node.name
            if name not in CHECKS:
                validator.error(node.token, f"unknown check {name!r}")
                continue
            arity = CHECKS[name].arity
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
    _Parser(tokens).parse(draft)
    _validate(draft)
    return draft


def parse_carrier_expr(text: str) -> tuple:
    """The atoms of text read as one carrierExpr; raises SpecError on a syntax error."""
    tokens, diagnostics = tokenize(text)
    parser = _Parser(tokens)
    try:
        atoms = parser.parse_carrier_expr()
        if parser.peek().kind != "eof":
            parser.fail(parser.peek(), f"expected end of input, got {parser.peek().text!r}")
    except _ParseFailure as failure:
        diagnostics.append(failure.diagnostic)
    if diagnostics:
        raise SpecError(diagnostics)
    return atoms


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
        elif kind == "check":
            lines.append(node.render())
    return "\n".join(lines) + ("\n" if lines else "")


# --- compilation --------------------------------------------------------------


class CompiledSpec(_Frozen):
    """A spec's carrier, its op tables by name, and its checks in order."""

    def __init__(self, source: SpecSource, carrier: object, ops: dict, checks: tuple):
        vars(self).update(source=source, carrier=carrier, ops=ops, checks=checks)


def compile_spec(draft: SpecDraft) -> CompiledSpec:
    """Build the tables over the carrier validation built; error diagnostics prevent compilation.

    Raises SpecError when the draft has error diagnostics. A construction-time
    failure (closure, singularity, a phi that is no automorphism) is re-raised
    as a SpecError at the op's constructor. Ops that name parts of one
    multi-part construction with the same other arguments share one build.
    """
    if not draft.ok:
        raise SpecError(draft.errors)
    carrier = draft.carrier
    if carrier is None:
        raise SpecError([ParseDiagnostic(ERROR, 1, 1, "spec declares no carrier")])
    ops: dict = {}
    shared: dict = {}
    for op in draft.ops:
        spec, values = CONSTRUCTIONS[op.ctor], draft.values[op.name]
        if spec.parts:
            key = (op.ctor, tuple(item for item in values.items() if item[0] != "part"))
            if key not in shared:
                shared[key] = _at(op.ctor_token, lambda: spec.build(carrier, values))
            table = shared[key][spec.parts.index(values["part"])]
        else:
            refs = {arg.name: ops[values[arg.name]] for arg in spec.args if arg.kind == OP_REF}
            table = _at(op.ctor_token, lambda: spec.build(carrier, {**values, **refs}))
        ops[op.name] = table.relabel(op.name)
    return CompiledSpec(source=draft.source, carrier=carrier, ops=ops, checks=tuple(draft.checks))


def run_check(compiled: CompiledSpec, check: CheckDecl, jobs: int = 1):
    """Dispatch one declared check to the axiom engine.

    A check whose operands it cannot take raises a WorkbenchError; for
    skew_brace on a non-group that is a NotAGroupError naming the operand.
    A jobs below 1 raises JobsError, also for the checks that run on one.
    """
    ops = [compiled.ops[name] for name in check.operand_names]
    try:
        return CHECKS[check.name].run(ops, job_count(jobs))
    except NotAGroupError as err:  # raised by skew_brace, which names its tables dot and circ
        operand = check.operand_names[0 if err.which == "dot" else 1]
        raise NotAGroupError(f"operation {operand!r}", err.report) from err
