"""Toric ideals of monomial projections of Veronese varieties.

The package is organized bottom-up: monomials and parameterizing sets,
diagonal group actions and their invariants, fibers of the monomial map
with minimal generator counts, a binomial Buchberger engine, a term
order search that reads quadratic bases off the fibers, named families
with theorem-backed Koszul labels, and batch surveys with a command
line front end.
"""

from .monomials import (
    Monomial,
    MonomialSet,
    enumerate_degree,
    enumerate_support_bounded,
    format_omega,
    read_omega,
)
from .groups import (
    CyclicFactor,
    DiagonalGroup,
    block_group,
    canonical_weight_vectors,
    cyclic_group,
    h_vector_group,
    invariants_of_degree,
    parse_group,
    surface_quadraticity,
    triple_projections,
)
from .fibers import (
    GeneratorTable,
    h_polynomial,
    hilbert_values,
    is_2_normal,
    minimal_generator_table,
)
from .groebner import (
    Binomial,
    GroebnerBasis,
    TermOrder,
    buchberger,
    lift_omega,
    lift_order,
    parse_order,
    quadratic_basis,
    search_quadratic_order,
    toric_basis,
    toric_generators,
    verify_groebner,
)
from .families import (
    FamilySpec,
    TheoremVerdict,
    koszul_label,
    parse_family,
    run_scenario,
    scenario_names,
)
from .survey import (
    SurveyOptions,
    SurveyRow,
    build_survey_row,
    survey_groups,
)
from .errors import GuardExceeded, SpecParseError

__version__ = "0.1.0"
