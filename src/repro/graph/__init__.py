"""Graph substrate: CSR storage, builders, generators, I/O."""

from .builder import GraphBuilder, from_edges
from .csr import CSRGraph
from .generators import (
    assign_log_weights,
    assign_uniform_weights,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    random_geometric,
    rmat,
    road_grid,
    star_graph,
)
from .io import (
    load_dimacs,
    load_edge_list,
    load_npz,
    save_dimacs,
    save_edge_list,
    save_npz,
)
from .mutations import Mutation, apply_mutations, parse_mutation_script
from .properties import INT_MAX

__all__ = [
    "CSRGraph",
    "GraphBuilder",
    "Mutation",
    "apply_mutations",
    "parse_mutation_script",
    "from_edges",
    "rmat",
    "road_grid",
    "erdos_renyi",
    "random_geometric",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "assign_uniform_weights",
    "assign_log_weights",
    "load_edge_list",
    "save_edge_list",
    "load_dimacs",
    "save_dimacs",
    "load_npz",
    "save_npz",
    "INT_MAX",
]
