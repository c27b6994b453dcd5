"""Grundy dominating sequences: checkers, exact solvers, the linear-time
chain-graph algorithm, gadget constructions, generators and sweeps."""

from .errors import (
    BudgetExceededError,
    DuplicateVertexError,
    FormatError,
    GrundyError,
    IllegalStepError,
    InputError,
    IsolatedVertexError,
    NotChainGraphError,
    SizeCapError,
    VerificationError,
)
from .graph import (
    Bipartition,
    Graph,
    bipartition,
    complement,
    format_graph,
    load_graph,
    parse_graph,
    save_graph,
)
from .hypergraph import (
    Hypergraph,
    format_hypergraph,
    is_edge_cover,
    is_legal_edge_sequence,
    is_legal_transversal_sequence,
    load_hypergraph,
    parse_hypergraph,
    save_hypergraph,
)
from .sequences import (
    VertexSequence,
    check_closed_neighborhood_sequence,
    check_subset_ordering,
    is_dominating_sequence,
    parse_sequence,
)
from .exact import (
    MAX_SEARCH_SIZE,
    SearchResult,
    grundy_cover_exact,
    grundy_domination_exact,
    grundy_number_exact,
    grundy_transversal_exact,
    independence_number_exact,
)
from .chain import (
    ChainStructure,
    grundy_chain,
    grundy_cochain,
    grundy_number_chain,
    independence_number_chain,
    recognize_chain,
)
from .reductions import (
    ReductionMap,
    format_roles,
    graph_to_cobipartite,
    hypergraph_to_bipartite,
)
from .generators import (
    ChainProfile,
    XorShift64Star,
    chain_from_profile,
    parse_profile,
    random_chain_profile,
    random_graph,
    random_hypergraph,
)

__version__ = "0.1.0"
