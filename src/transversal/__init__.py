"""Distinct representatives and their classical relatives, with certificates.

One module per subject: set families and SDRs (core), bipartite matching
duality and flows (graphs), chain decompositions (posets), doubly
stochastic matrices and permanents (birkhoff), Latin and Youden squares
(latin), independence oracles (matroids), coset transversals (groups), and
the hypergraph generalisation (hypersdr).  ``transversal`` on the command
line fronts all of it with JSON files.
"""

from .birkhoff import (
    RationalMatrix,
    birkhoff_decompose,
    is_doubly_stochastic,
    permanent,
    regular_matching_bound,
    vdw_bound,
)
from .core import (
    ArrayFamily,
    SetFamily,
    array_sdr,
    count_sdrs,
    hall_check,
    partial_sdr,
)
from .errors import AlreadyCompleteError, ResourceLimitError, ValidationError
from .graphs import (
    BipartiteGraph,
    FlowNetwork,
    Graph,
    konig_cover,
    max_flow_min_cut,
    max_matching,
    menger_paths,
)
from .groups import (
    FiniteGroup,
    coset_family,
    coset_system,
    simultaneous_reps,
    subgroup_closure,
)
from .hypersdr import (
    Hypergraph,
    HypergraphFamily,
    ah_condition,
    find_hyper_sdr,
)
from .latin import (
    BlockDesign,
    LatinRectangle,
    complete,
    count_extensions,
    count_latin_squares,
    extend_row,
    latin_lower_bound,
    youden_from_design,
)
from .matroids import (
    MatroidOracle,
    make_matroid,
    rado_check,
    rank,
)
from .posets import (
    Poset,
    dilworth,
    is_perfect,
    mirsky,
)

__all__ = [name for name in dir() if not name.startswith("_")]
