"""Exact arithmetic in truncated formal pseudodifferential operator rings.

Skew Laurent series over Q(z) or a free graded differential ring, the
homographic SL(2, Q) action, weight-m lifting maps and their transfer
isomorphism, Rankin-Cohen star products, invariant-ring decompositions,
and exact verification suites for the underlying combinatorial identities.

Importing ``pdo`` loads none of its modules: each exported name loads its
module on first access (PEP 562), so a caller pays only for what it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("coeffs", "comm_coeff_b comm_coeff_c gamma_tuple gbinom lift_coeff omega rho"),
        ("errors", "PDOError"),
        ("graded", "GradedElem GradedRing GradedRingSpec Generator"),
        ("ratfunc", "QZ GMatrix RatFunc mobius_compose"),
        ("series", "EXACT PDSeries series_inverse series_mul series_sqrt split_even_odd"),
        ("action", "CocyclePair act_series act_x_inverse_generic act_y_power check_cocycles "
                   "coboundary_pair kappa_pair modular_pair slash"),
        ("lift", "WeightedFamily closed_pairs equivariance_residual negodd_nonexistence pi_k "
                 "psi psi_assemble psi_inverse psi_neg_via_xi"),
        ("rankin", "alpha_table alpha_weight0 rc_bracket star star_families star_via_brackets"),
        ("invariants", "decompose_even find_unit_generator g_closed g_forms is_invariant "
                       "rewrite_in_u u_power v_uniformizer weight0_derivation"),
        ("verify", "SUITES SuiteReport run_suite"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
