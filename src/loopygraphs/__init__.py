"""Loopy graphs: graphs allowing at most one self-loop per vertex and no
multiedges, where a loop adds two to its vertex's degree.

The package answers three questions about the set of all labeled loopy graphs
with a given degree sequence:

* connectivity: do double edge swaps alone turn any realization into any
  other? (``check_connectivity`` gives a verdict with a witness.)
* sampling: draw realizations uniformly, or weighted by loop count, with a
  swap-based Markov chain (``sample``, ``LoopyChain``).
* verification: brute-force small spaces and confirm the structural claims
  the fast paths rely on (``verify_sequence``, ``run_sweep``).
"""

from .degseq import (
    CONNECTED,
    DISCONNECTED,
    ConnectivityReport,
    NotLoopyGraphical,
    check_connectivity,
    detect_disconnected,
    is_graphical_with_loops,
    is_loopy_graphical,
    is_simple_graphical,
    max_degree_guarantees_connected,
    max_loop_count,
    parse_degree_sequences,
    realize_loopy_graph,
)
from .graph import (
    LoopyGraph,
    MultiedgeError,
    format_edge_list,
    is_in_clique_trap,
    is_in_cycle_trap,
    normalize_edge,
    parse_edge_list,
)
from .mcmc import (
    ChainConfig,
    ChainStats,
    ConfigError,
    DegenerateGraph,
    LoopyChain,
    UnknownGraph,
    chi_square_fit,
    default_burn_in,
    default_thinning,
    default_triangle_prob,
    prepare_chain,
    sample,
    sample_stream,
)
from .oracle import (
    DEFAULT_ENUM_BOUND,
    BoundExceeded,
    SwapGraph,
    UnknownNeighbor,
    build_swap_graph,
    components,
    enumerate_loopy_graphs,
    generate_sequences,
    run_sweep,
    stationary_distribution,
    to_dot,
    verify_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graph
    "LoopyGraph",
    "MultiedgeError",
    "is_in_clique_trap",
    "is_in_cycle_trap",
    "normalize_edge",
    "parse_edge_list",
    "format_edge_list",
    # degree sequences
    "CONNECTED",
    "DISCONNECTED",
    "ConnectivityReport",
    "NotLoopyGraphical",
    "is_simple_graphical",
    "is_graphical_with_loops",
    "is_loopy_graphical",
    "max_loop_count",
    "realize_loopy_graph",
    "max_degree_guarantees_connected",
    "detect_disconnected",
    "check_connectivity",
    "parse_degree_sequences",
    # sampling
    "ChainConfig",
    "ChainStats",
    "ConfigError",
    "DegenerateGraph",
    "UnknownGraph",
    "LoopyChain",
    "prepare_chain",
    "sample",
    "sample_stream",
    "chi_square_fit",
    "default_triangle_prob",
    "default_burn_in",
    "default_thinning",
    # oracle
    "BoundExceeded",
    "UnknownNeighbor",
    "DEFAULT_ENUM_BOUND",
    "SwapGraph",
    "enumerate_loopy_graphs",
    "build_swap_graph",
    "components",
    "stationary_distribution",
    "verify_sequence",
    "generate_sequences",
    "run_sweep",
    "to_dot",
]
