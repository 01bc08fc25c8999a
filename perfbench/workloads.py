"""The benchmark's workloads: the CLI calls each one makes, generated from a seed.

A workload is a fixed list of calls. Each verify call checks one generated
spec file; the seed picks construction parameters from small fixed pools and
nothing else, so carrier sizes, check lists and the pattern of pass and fail
verdicts are the same for every seed, and every spec any seed can produce has
a recorded expected output in expected.json.
"""

import random
from dataclasses import dataclass
from typing import Callable

# Spec files live here, relative to the checkout root; the path is part of
# the CLI's output ("origin"), so recording and timing must use the same one.
SPEC_DIR = ".perfbench_work/specs"

DEFAULT_SEED = 0
# A seed whose specs differ from the default seed's in every seeded call; a
# change tuned on the default seed is confirmed on this one.
HOLDOUT_SEED = 7

POOL_SIZE = 8


def _rows(rng, p):
    return [[rng.randrange(p) for _ in range(2)] for _ in range(2)]


def _invertible(rng, p):
    while True:
        m = _rows(rng, p)
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p:
            return m


def _matrix(m):
    return "[" + ",".join("[" + ",".join(str(v) for v in row) + "]" for row in m) + "]"


# Parameter pools. Seeded RNGs with string seeds give the same pools on every
# platform and Python version.
_pool_rng = random.Random("perfbench-pools")
CONJ_M = (1, 2, 3, 5, 7, 9, 11, 13)              # conj_quandle on gl(2,5), exponent 120
VXG_N = (1, 2, 3, 5, 7, 9, 11, 13)               # vxg_conj_op over gl(2,3), exponent 24
ALEX_INNER = (1, 7, 13, 29, 46, 62, 87, 119)     # non-identity elements of symmetric(5)
# Units k of Z_360 with gcd(k - 1, 360) = 2, 359 (the core quandle) among them:
# for all of them assoc and the second multiquandle identity fail on the same
# set of triples, so the failing scans allocate and compare exactly alike.
ALEX_POWER = (23, 59, 107, 143, 179, 239, 299, 359)
MATRIX_OP = tuple(
    (_pool_rng.randrange(5), _pool_rng.randrange(5), _rows(_pool_rng, 5), _rows(_pool_rng, 5))
    for _ in range(POOL_SIZE)
)
GL_M = tuple(_invertible(_pool_rng, 5) for _ in range(POOL_SIZE))
GL_PAIRS = tuple((_invertible(_pool_rng, 5), _invertible(_pool_rng, 5)) for _ in range(POOL_SIZE))


def _quandle_spec(carrier, ctor):
    return (
        f"carrier {carrier};\n"
        f"op q = {ctor};\n"
        "check idempotent q;\n"
        "check divisibility_right q;\n"
        "check divisibility_left q;\n"
    )


@dataclass(frozen=True)
class Template:
    """One verify call: its stable name, its parameter pool and the spec it renders."""

    name: str
    pool: tuple
    render: Callable


BUILD = (
    Template("build-conj", CONJ_M, lambda m: _quandle_spec("gl(2,5)", f"conj_quandle(m={m})")),
    Template("build-vxg", VXG_N,
             lambda n: _quandle_spec("vectors(2,3) x gl(2,3)", f"vxg_conj_op(n={n})")),
    Template("build-core", (None,),
             lambda _: _quandle_spec("symmetric(5) x cyclic(4)", "core_quandle()")),
    Template("build-alexander", ALEX_INNER,
             lambda i: _quandle_spec("symmetric(5)", f"alexander_quandle(inner={i})")),
    Template("build-pair", (None,), lambda _: (
        "carrier cyclic(20) x cyclic(20);\n"
        "op d = pair_dimonoid(part=dashv);\n"
        "op v = pair_dimonoid(part=vdash);\n"
        "check idempotent d;\n"
        "check divisibility_left d;\n"
        "check divisibility_right v;\n"
    )),
)

SCAN_PASS = (
    Template("pass-assoc", MATRIX_OP, lambda p: (
        "carrier matrices(2,5);\n"
        f"op m = matrix_op(s={p[0]}, t={p[1]}, m1={_matrix(p[2])}, m2={_matrix(p[3])});\n"
        "check assoc m;\n"
    )),
    Template("pass-group", GL_M, lambda g: (
        "carrier gl(2,5);\n"
        f"op g = gl_group_op(m={_matrix(g)});\n"
        "check group g;\n"
    )),
    Template("pass-interchange", GL_PAIRS, lambda gh: (
        "carrier gl(2,5);\n"
        f"op g = gl_group_op(m={_matrix(gh[0])});\n"
        f"op h = gl_group_op(m={_matrix(gh[1])});\n"
        "check interchange g h;\n"
    )),
)

# Every check fails with its witness in the first chunk: assoc and multiquandle
# at (0,0,1) for any unit k != 1, distrib_left at (1,0,0), and dimonoid at
# axiom 2 after axiom 1 passes in full.
SCAN_FAIL = (
    Template("fail-z360", ALEX_POWER, lambda k: (
        "carrier cyclic(360);\n"
        f"op q = alexander_quandle(power={k});\n"
        "op plus = z_parity_brace(part=plus);\n"
        "op circ = z_parity_brace(part=circ);\n"
        "check assoc q;\n"
        "check distrib_left plus;\n"
        "check dimonoid circ plus;\n"
        "check multiquandle q plus;\n"
    )),
)


@dataclass(frozen=True)
class Call:
    """One CLI call: a stable name, the spec it verifies (None for demo), its argv."""

    name: str
    spec: str | None
    argv: tuple


def _tail(jobs):
    return ("--no-timing", "--format", "json", "--jobs", str(jobs))


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    templates: tuple | None  # None for the demo workload, which takes no spec

    def calls(self, seed):
        """The calls for this seed; each seeded template draws one pool entry."""
        if self.templates is None:
            return [Call("demo-all", None, ("demo",) + _tail(self.jobs))]
        rng = random.Random(seed)
        return [self._call(t, t.render(rng.choice(t.pool)), self.jobs) for t in self.templates]

    def every_call(self):
        """Every call any seed can produce, at --jobs 1, for recording expected outputs."""
        if self.templates is None:
            return [Call("demo-all", None, ("demo",) + _tail(1))]
        return [self._call(t, t.render(p), 1) for t in self.templates for p in t.pool]

    @staticmethod
    def _call(template, spec, jobs):
        path = f"{SPEC_DIR}/{template.name}.spec"
        return Call(template.name, spec, ("verify", path) + _tail(jobs))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("build", 1, BUILD),
        Workload("scan-pass", 1, SCAN_PASS),
        Workload("scan-fail", 2, SCAN_FAIL),
        Workload("demo-all", 1, None),
    )
}
