"""The meaning of every law and search that the fast paths are held to, written once.

Plain Python over tables given as nested lists: t[x][y] is the index of
x * y, elements numbered in carrier order. It imports neither numpy nor the
package, so no oracle shares code with what it checks. A law maps a triple
to its two sides, (left, right), and holds where they are equal. A report is
(verdict, witness, reason, checked) as in AxiomReport, with index witnesses:
the first failing tuple in lexicographic order, and n^3 checked per triple
law, n^2 per pair law and n per element law. A staged check stops at its
first failing stage and sums `checked` over the stages it ran. CHECKS holds
every check of the spec language by name.
"""

import itertools
import operator


def bracket(A, B, C, D):
    """(x B y) A z = x C (y D z): assoc, interchange and dimonoid axioms 1-5."""
    return lambda x, y, z: (A[B[x][y]][z], C[x][D[y][z]])


def assoc(t):
    return bracket(t, t, t, t)


def interchange(ti, tj):
    """(x i y) j z = x i (y j z)."""
    return bracket(tj, ti, ti, tj)


def dimonoid_axioms(d, v):
    """Axioms 1-5 of dashv d and vdash v; axiom 3 is (x |- y) -| z = x |- (y -| z)."""
    return [bracket(d, d, d, d), bracket(d, d, d, v), bracket(d, v, v, d),
            bracket(v, d, v, v), bracket(v, v, v, v)]


def mixed_distrib(a, b):
    """(x a y) b z = (x b z) a (y b z); right self-distributivity when a is b."""
    return lambda x, y, z: (b[a[x][y]][z], a[b[x][z]][b[y][z]])


def left_distrib(t):
    """x t (y t z) = (x t y) t (x t z)."""
    return lambda x, y, z: (t[x][t[y][z]], t[t[x][y]][t[x][z]])


def brace_compatibility(d, c):
    """x c (y d z) = (x c y) d x^-1 d (x c z), with x^-1 read off the group table d."""
    inv = inverses(d, units(d)[0])
    return lambda x, y, z: (c[x][d[y][z]], d[d[c[x][y]][inv[x]]][c[x][z]])


def multiset_assoc(*tables):
    """(x y) z = x (y z) as multisets of the values over every pair of the tables."""
    return lambda x, y, z: (sorted(j[i[x][y]][z] for i in tables for j in tables),
                            sorted(i[x][j[y][z]] for i in tables for j in tables))


def first_failure(bad, elements, arity=3):
    """The first tuple of `arity` members of elements, in lexicographic order, where bad holds."""
    return next((w for w in itertools.product(elements, repeat=arity) if bad(*w)), None)


def law_failure(law, n):
    """The first triple of 0..n-1 at which the two sides of law differ, or None."""
    return first_failure(lambda *w: operator.ne(*law(*w)), range(n))


def plane(law, n, x):
    """(left, right) of law at first coordinate x, as nested lists over (y, z)."""
    sides = [[law(x, y, z) for z in range(n)] for y in range(n)]
    return [[s[0] for s in row] for row in sides], [[s[1] for s in row] for row in sides]


def outcome(hit, checked, reason=None):
    """The report of a check of `checked` tuples whose first failure is hit (None on a pass)."""
    return ("pass", None, None, checked) if hit is None else ("fail", hit, reason, checked)


def triple_law(law, n, reason=None):
    return outcome(law_failure(law, n), n**3, reason)


def staged(stages):
    """The report of lazy (label, report) stages up to the first failing one, as label or "label: reason"."""
    checked = 0
    for label, (verdict, witness, reason, count) in stages:
        checked += count
        if verdict == "fail":
            return ("fail", witness, label if reason is None else f"{label}: {reason}", checked)
    return ("pass", None, None, checked)


def report(n, laws):
    """The report of (reason, law) stages over every triple."""
    return staged((reason, triple_law(law, n)) for reason, law in laws)


def solution_counts(t):
    """(left, right): left[x][y] counts the u with x*u = y, right[x][y] the z with z*y = x."""
    n = len(t)
    left, right = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            left[x][t[x][y]] += 1
            right[t[x][y]][y] += 1
    return left, right


def divisibility(t, side, unique=True):
    """The report of one solution (or, without unique, some) for every (x, y) of the side's counts."""
    n = len(t)
    counts = solution_counts(t)[side == "right"]
    hit = first_failure(lambda x, y: counts[x][y] != 1 if unique else counts[x][y] == 0, range(n), 2)
    reason = None if hit is None else (
        "no-solution" if counts[hit[0]][hit[1]] == 0 else "exists-not-unique")
    return outcome(hit, n * n, reason)


def units(t, right=None):
    """The e with e t x = x = x right e for every x: with right = t (the default) its units."""
    right = t if right is None else right
    n = len(t)
    return [e for e in range(n) if all(t[e][x] == x and right[x][e] == x for x in range(n))]


def right_units(t):
    n = len(t)
    return [e for e in range(n) if all(t[x][e] == x for x in range(n))]


def inverses(t, e):
    """For each a, the first b with a t b = b t a = e, or None."""
    n = len(t)
    return [next((b for b in range(n) if t[a][b] == e and t[b][a] == e), None) for a in range(n)]


def closure(t, gens):
    members = set(gens)
    while True:
        more = {t[a][b] for a in members for b in members} - members
        if not more:
            return members
        members |= more


def endomorphism_failure(s, t):
    """The first (x, y) with t[s x][s y] != s(t[x][y]), or None."""
    return first_failure(lambda x, y: t[s[x]][s[y]] != s[t[x][y]], range(len(t)), 2)


def orbit_reps(perms, n):
    """The least element of every orbit of 0..n-1 under the group the permutations generate."""
    reps, seen = [], set()
    for x in range(n):
        if x in seen:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for s in perms:
                if s[y] not in orbit:
                    orbit.add(s[y])
                    frontier.append(s[y])
        seen |= orbit
        reps.append(x)
    return reps


# --- the checks of the spec language ------------------------------------------------


def idempotent(t):
    return outcome(first_failure(lambda x: t[x][x] != x, range(len(t)), 1), len(t))


def group(t):
    """assoc, then a two-sided unit (witness () when there is none), then an inverse of every element."""
    n = len(t)

    def stages():
        yield "assoc", triple_law(assoc(t), n)
        found = units(t)
        yield "no-unit", outcome(None if found else (), n)
        inv = inverses(t, found[0])
        yield "inverses", outcome(first_failure(lambda a: inv[a] is None, range(n), 1), n * n)

    return staged(stages())


def rack(t, side, quandle):
    """Idempotency (quandles only), unique divisibility and self-distributivity, on one side."""
    def stages():
        if quandle:
            yield "idempotent", idempotent(t)
        yield f"divisibility_{side}", divisibility(t, side)
        law = mixed_distrib(t, t) if side == "right" else left_distrib(t)
        yield f"distrib_{side}", triple_law(law, len(t))

    return staged(stages())


def skew_brace(d, c):
    """Compatibility of the groups d and c; ValueError when either is no group."""
    if "fail" in (group(d)[0], group(c)[0]):
        raise ValueError("skew_brace needs two groups")
    return triple_law(brace_compatibility(d, c), len(d), "compatibility")


CHECKS = {
    "assoc": lambda t: triple_law(assoc(t), len(t)),
    "interchange": lambda ti, tj: triple_law(interchange(ti, tj), len(ti)),
    "idempotent": idempotent,
    "divisibility_left": lambda t: divisibility(t, "left"),
    "divisibility_right": lambda t: divisibility(t, "right"),
    "distrib_left": lambda t: triple_law(left_distrib(t), len(t)),
    "distrib_right": lambda t: triple_law(mixed_distrib(t, t), len(t)),
    "group": group,
    "rack_left": lambda t: rack(t, "left", False),
    "rack_right": lambda t: rack(t, "right", False),
    "quandle_left": lambda t: rack(t, "left", True),
    "quandle_right": lambda t: rack(t, "right", True),
    "dimonoid": lambda d, v: report(len(d), [(f"axiom-{k}", law)
                                             for k, law in enumerate(dimonoid_axioms(d, v), 1)]),
    "skew_brace": skew_brace,
    "multiquandle": lambda a, b: report(len(a), [("mixed-distrib-ij", mixed_distrib(a, b)),
                                                 ("mixed-distrib-ji", mixed_distrib(b, a))]),
    "nvalued_assoc": lambda *ts: triple_law(multiset_assoc(*ts), len(ts[0])),
}
