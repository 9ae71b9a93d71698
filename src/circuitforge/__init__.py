"""circuitforge: factoring polynomials given as arithmetic circuits.

Hensel lifting of low-degree roots, generator-set circuits, full factor
extraction, NW-design hitting sets for identity testing, and
exponential-sum representations, with every identity checkable against an
exact dense-polynomial oracle at desk scale.
"""

from .circuit import (
    Circuit,
    CircuitBuilder,
    const_circuit,
    emit_circuit,
    input_circuit,
    is_formula,
    parse_circuit,
    substitute,
)
from .dense import (
    DensePoly,
    ExpansionBudget,
    divides,
    expand,
    hasse_derivative_dense,
    homog_component_dense,
    truncate_dense,
    univariate_roots,
)
from .designs import Design, nw_design
from .expsum import (
    ExpSumPoly,
    exp_sum_expand,
    factor_vnp,
    leaf_substitute,
    prod_compose,
    selector_R,
    sum_compose,
    valiant_step,
)
from .factoring import FactorResult, RootBundle, combine_roots, extract_factor, separating_shift
from .fields import PrimeField, Rationals, sample_grid, SIXTY_TWO_BIT_PRIME
from .lifting import LiftState, RootCertificate, build_A_recurrence, lift_root, lift_step
from .pit import ExplicitPoly, HittingSet, hybrid_locate, pit_hitset, pit_sz
from .transforms import (
    GeneratorSet,
    MonicForm,
    extract_y_coeffs,
    generator_set,
    hasse_derivative_circuit,
    homogenize,
    make_monic,
    translate,
    truncate_deg,
)

__version__ = "0.1.0"
