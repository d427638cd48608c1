"""Exact cellular automata over groups, with near-ring and group-ring calculus."""

__version__ = "0.1.0"

from .groups import (  # noqa: F401
    FiniteGroup,
    FiniteSubset,
    FreeGroup,
    GroupElement,
    LexOrder,
    MagnusOrder,
    ZdGroup,
    ball,
    box_window,
    folner_box,
    parse_group_spec,
    subset_calculus,
    word_distance,
)
from .rings import (  # noqa: F401
    QQ,
    ExactMatrix,
    ExtensionField,
    PrimeField,
    TwistedPoly,
    field_from_spec,
    frobenius,
    matrix_rank_kernel,
    twisted_multiply,
)
from .group_ring import (  # noqa: F401
    GroupRingElement,
    TwistedGroupRingElement,
    gr_convolve,
    mat_transport,
    one_sided_inverse_audit,
)
from .near_ring import (  # noqa: F401
    ExponentVector,
    MonomialOrder,
    NearRingElement,
    classify_unit_pair,
    embed_group_ring,
    embed_twisted,
    exhaustive_search,
    exp_convolve,
    leading_term,
    polynomial_apply,
    shift,
    star,
)
from .ca import (  # noqa: F401
    CellularAutomaton,
    LinearRule,
    Pattern,
    PolynomialRule,
    TableRule,
    ca_from_group_ring,
    ca_from_polynomial,
    compose,
    equivariance_check,
    minimal_memory_set,
    polynomial_of,
)
from .linear_ca import (  # noqa: F401
    find_left_inverse,
    gamma_dim,
    goe_report,
    mdim_estimate,
    preinjectivity_check,
    surjectivity_check,
    window_matrix,
)
from .sofic import (  # noqa: F401
    BallPlan,
    LabeledGraph,
    ball_iso,
    cayley_quotient,
    certificate,
    graph_ca_rank_audit,
    greedy_pack,
    v_r_set,
)
from .expressions import format_element, parse_element  # noqa: F401
