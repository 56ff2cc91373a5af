"""Exact arithmetic in truncated formal pseudodifferential operator rings.

Skew Laurent series over Q(z) or a free graded differential ring, the
homographic SL(2, Q) action, weight-m lifting maps and their transfer
isomorphism, Rankin-Cohen star products, invariant-ring decompositions,
and exact verification suites for the underlying combinatorial identities.
"""

from .coeffs import comm_coeff_b, comm_coeff_c, gamma_tuple, gbinom, lift_coeff, omega, rho
from .errors import PDOError
from .graded import GradedElem, GradedRing, GradedRingSpec, Generator
from .ratfunc import QZ, GMatrix, RatFunc, mobius_compose
from .series import EXACT, PDSeries, series_inverse, series_mul, series_sqrt, split_even_odd
from .action import (
    CocyclePair,
    act_series,
    act_x_inverse_generic,
    act_y_power,
    check_cocycles,
    coboundary_pair,
    kappa_pair,
    modular_pair,
    slash,
)
from .lift import (
    WeightedFamily,
    closed_pairs,
    equivariance_residual,
    negodd_nonexistence,
    pi_k,
    psi,
    psi_assemble,
    psi_inverse,
    psi_neg_via_xi,
)
from .rankin import alpha_table, alpha_weight0, rc_bracket, star, star_families, star_via_brackets
from .invariants import (
    decompose_even,
    find_unit_generator,
    g_closed,
    g_forms,
    is_invariant,
    rewrite_in_u,
    u_power,
    v_uniformizer,
    weight0_derivation,
)
from .verify import SUITES, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "EXACT", "QZ", "CocyclePair", "GMatrix", "GradedElem", "GradedRing",
    "GradedRingSpec", "Generator", "PDOError", "PDSeries",
    "RatFunc", "SUITES", "SuiteReport", "WeightedFamily",
    "act_series", "act_x_inverse_generic", "act_y_power", "alpha_table",
    "alpha_weight0", "check_cocycles", "closed_pairs", "coboundary_pair",
    "comm_coeff_b", "comm_coeff_c", "decompose_even", "equivariance_residual",
    "find_unit_generator", "g_closed", "g_forms", "gamma_tuple", "gbinom",
    "is_invariant", "kappa_pair", "lift_coeff", "mobius_compose",
    "modular_pair", "negodd_nonexistence", "omega", "pi_k", "psi",
    "psi_assemble", "psi_inverse", "psi_neg_via_xi", "rc_bracket",
    "rewrite_in_u", "rho", "run_suite", "series_inverse", "series_mul",
    "series_sqrt", "slash", "split_even_odd", "star", "star_families",
    "star_via_brackets", "u_power", "v_uniformizer", "weight0_derivation",
]
