"""Exact two-variable Kauffman (Dubrovnik) polynomial via trivalent graphs.

The package computes the regular-isotopy invariant P(A, B, a) of unoriented
links and the companion invariant of knotted rigid-edge trivalent graphs,
working symbolically in Z[A^±1, B^±1, a^±1, (A-B)^-1].  Three independent
computation routes (state sum over trivalent graphs, braid-algebra trace,
4-valent graphical calculus) cross-validate each other.
"""

from .ring import (Constants, DivisionFailure, LaurentPoly, QLaurent,
                   RingElem, constants, normalize, parse_ring_text,
                   qlaurent_text, ring_sum, specialize_soN, to_canonical_text)
from .maps import (InvalidMap, MapBuilder, NonPlanar, PlanarMap, Surgery,
                   canonical_signature)
from .diagrams import (BadEdge, BadIncidence, BraidWord, LinkDiagram,
                       OddVertexCount, ParseError, PlanarTrivalentGraph,
                       RangeError, REGraphDiagram, StateRecord, Tangle,
                       WideEdgeCrossing, braid_to_link, c_tangle,
                       close_tangle, connected_sum, disjoint_union,
                       identity_tangle, link_components, mirror,
                       parse_braid, parse_pd,
                       parse_regraph, resolve_state, smooth_crossing, stack,
                       states, switch_crossing, t_tangle, writhe)
from .skein import (EvalContext, InternalError, LocalConfig,
                    alternating_walk_reduce, apply_lollipop, apply_wide_digon,
                    default_context, evaluate, find_local_config, h_rotate,
                    reducible_configs, square_move)
from .invariants import (InvariantResult, MissingWrithe, MixedArity, bracket,
                         eval_braid, kauffman_state_sum, n2_closed_form,
                         normalized, regraph_invariant, rho_expand, so_n,
                         trace)
from .fourvalent import (OracleContext, OracleError, Planar4Graph, collapse,
                         evaluate4, kauffman_via_4valent)

__version__ = "0.1.0"
