"""Exact exterior calculus for pre-metric field theory verification.

All arithmetic is rational (optionally Gaussian rational), so every
identity check in this package is exact: a check passes only when the
residual form is identically zero, coefficient by coefficient.
"""

from .errors import (ConfigError, FormSyntaxError, MetricError,
                     StructuralError)
from .scalars import Polynomial, Scalar
from .forms import (Chart, Form, VectorField, basis_form, components_equal,
                    contract, coordinate_field, ext_d, lie_derivative,
                    pullback_linear, wedge)
from .hodge import MetricSpec, double_hodge_sign, hodge
from .formexpr import (parse_form, parse_polynomial, parse_vector_field,
                       poly_str, print_form)
from .randgen import random_form, random_polynomial, random_vector_field
from .report import SCHEMA_VERSION, CheckResult, Report, nonzero_witness
from .electrodynamics import (Axion, Custom, FieldConfig, LinearLocal,
                              MaxwellLorentz, SplitFields,
                              conservation_residual, currents, densities,
                              force_u, identity_suite, obstruction_phi_u,
                              recompose, sigma_u, split_3plus1)
from .reciprocity import (FieldPairZ, PairTensor, check_factorization,
                          pair_tensor, self_reciprocal_pair, star_z)
from .config import RunConfig, build_law, load_config, validate_config
from .suites import SUITE_RUNNERS, run_suites

__version__ = "1.0.0"

__all__ = [
    "Axion", "Chart", "CheckResult", "ConfigError", "Custom", "FieldConfig",
    "FieldPairZ", "Form", "FormSyntaxError", "LinearLocal", "MaxwellLorentz",
    "MetricError", "MetricSpec", "PairTensor", "Polynomial", "Report",
    "RunConfig", "SCHEMA_VERSION", "Scalar", "SplitFields", "StructuralError",
    "SUITE_RUNNERS", "VectorField", "basis_form", "build_law",
    "check_factorization", "components_equal", "conservation_residual",
    "contract", "coordinate_field", "currents", "densities",
    "double_hodge_sign", "ext_d", "force_u", "hodge", "identity_suite",
    "lie_derivative", "load_config", "nonzero_witness", "obstruction_phi_u",
    "pair_tensor", "parse_form", "parse_polynomial", "parse_vector_field",
    "poly_str", "print_form", "pullback_linear", "random_form",
    "random_polynomial", "random_vector_field", "recompose", "run_suites",
    "self_reciprocal_pair", "sigma_u", "split_3plus1", "star_z",
    "validate_config", "wedge",
]
