"""Exact H-colouring tools for finite loopless multigraphs.

An H-colouring of a graph G maps each edge of G to an edge of a host H so
that adjacent edges stay distinct and the edge set at every vertex of G
equals the edge set at some vertex of H.  This package decides and
enumerates such colourings for fixed hosts, enumerates all splitted images
a guest admits up to isomorphism, and bundles the structural checks
(matchings, edge cuts, preimage classifications) used to verify the
accompanying theory at small scale.
"""

from .canonical import (
    automorphism_generators,
    automorphism_group_order,
    canonical_digest,
    canonical_form,
    is_isomorphic,
)
from .colouring import (
    AmbiguousHostError,
    Colouring,
    ColouringReport,
    ImageGraph,
    check_colouring,
    induced_vertex_map,
    preimage,
    splitted_image,
    unused_vertices,
)
from .graphio import (
    GraphFormatError,
    certificate_text,
    decode_graph6,
    decode_sparse6,
    encode_graph6,
    from_edge_list_text,
    ingest_graph6,
    parse_certificate,
    to_edge_list_text,
)
from .images import (
    AtlasEntry,
    ImageAtlas,
    enumerate_splitted_images,
    realize_image,
)
from .multigraph import Multigraph
from .oracles import image_subgraph, is_matching, naive_solve_all, spanning_regular_check
from .recipes import RECIPES, VerificationReport, run_corpus, run_recipe
from .solver import SolveResult, solve, tk2_colourable
from .structure import (
    chromatic_index,
    edge_colouring,
    enumerate_matchings,
    has_perfect_matching,
    has_two_disjoint_perfect_matchings,
    perfect_matchings,
)

__version__ = "0.1.0"
