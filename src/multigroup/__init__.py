"""Workbench for finite algebraic systems.

Build small carriers (matrices over prime fields, cyclic and symmetric
groups, vector/matrix pairs), construct binary operations on them, and verify
or refute axioms (associativity, interchange, rack/quandle laws, dimonoid
laws, skew brace compatibility) by exhaustive scan. Checks report the
lexicographically first counterexample, so results are reproducible.

The names below are exported lazily (PEP 562): `import multigroup` loads no
submodule and no numpy, and each name imports its submodule on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names it exports
_EXPORTS = {
    "axioms": (
        "LEFT", "RIGHT", "check_associativity", "check_dimonoid", "check_divisibility",
        "check_group", "check_idempotency", "check_interchange", "check_multiquandle_pair",
        "check_nvalued_associativity", "check_rack_quandle", "check_self_distributivity",
        "check_skew_brace", "find_bar_units", "find_inverses", "find_units", "nvalued_product",
        "op_product",
    ),
    "carriers": (
        "Carrier", "GroupAutomorphism", "cyclic_group", "direct_product", "gl_group",
        "group_carrier", "integer_window", "make_automorphism", "matrix_set", "matrix_subgroup",
        "pair_carrier", "symmetric_group",
    ),
    "constructions": (
        "MatrixOpParams", "ZParityWindow", "action_dimonoid", "alexander_quandle",
        "brace_opposite", "brace_ops", "brace_trivial", "conj_quandle", "core_quandle",
        "default_vector_action", "gl_group_op", "matrix_op", "opposite_op", "pair_dimonoid",
        "pair_dimonoid_on", "parity_circ", "vxg_conj_op", "vxg_phi_op", "z_parity_brace",
        "z_parity_window",
    ),
    "dsl": ("CompiledSpec", "SpecSource", "compile_spec", "format_spec", "parse_spec", "run_check"),
    "errors": ("WorkbenchError",),
    "field": ("PrimeField",),
    "matrix": ("Matrix", "mat_add_scaled", "mat_det", "mat_inv", "mat_mul", "mat_pow"),
    "optables": ("AxiomReport", "Multiset", "OpTable", "build_op_table"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
