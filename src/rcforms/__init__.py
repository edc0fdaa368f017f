"""Exact bracket operators for Jacobi and degree-2 Siegel expansions."""

from .brackets import (
    BracketParams,
    BracketTerm,
    bracket_jacobi,
    bracket_jacobi_poly,
    bracket_rank_over_x,
    check_recursions,
    coeff_C,
    coeff_D,
    falling_factorial,
)
from .jets import (
    CrosscheckError,
    FormalJet,
    crosscheck_bracket,
    jet_mul,
    jet_odd_combine,
    jet_of_form,
    jet_scale_w,
    zeta_nu,
)
from .lattices import (
    E8,
    E8_E8,
    E8_INDEX1_VECTOR,
    LATTICES,
    bernoulli,
    eisenstein_q,
    enumerate_vectors,
    jacobi_theta,
    siegel_theta,
    standard_index_vector,
)
from .series import (
    CheckResult,
    EllipticSeries,
    InvariantError,
    JacobiSeries,
    check_disc_class_invariance,
    check_parity,
    d_z,
    form_witness,
    heat,
    heat_power,
    theta_q,
    theta_q_elliptic,
)
from .seriesio import (
    ParseError,
    export_series,
    import_series,
    parse_fraction_arg,
    read_series,
    write_series,
)
from .siegel import (
    ConsistencyReport,
    SiegelSeries,
    SymmetryError,
    bracket_siegel_direct,
    bracket_siegel_via_jacobi,
    check_siegel_consistency,
    delta_op,
    siegel_from_components,
)

__version__ = "0.1.0"
