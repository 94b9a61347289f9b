"""Name-keyed graph helpers, kept as references for the tests after
`equilibra` moved to the int view of each arena (`Arena.graph`) with
bitmask vertex sets: `_kernels.scc_of` (SCCs over hashable vertices),
`spe._strongly_connected` as it was on vertex names and a successor map,
and the `zerosum` wrappers `attractor`, `reachable_from` and
`positive_prob_attractor` with their helpers `_arrays` and `_owned`.
The function bodies are verbatim; only the imports are adapted."""

from equilibra import _kernels as K
from equilibra._kernels import csr, scc
from equilibra.games import GameError


def scc_of(vertices, edges):
    """SCCs of a digraph over hashable vertices: (component id per vertex
    as a dict, count).  Ids are those `scc` gives when vertex k of
    `vertices` is int k and the edges keep their order, so callers that
    pick witnesses by component id see a stable numbering."""
    vertices = list(vertices)
    index = {v: k for k, v in enumerate(vertices)}
    n = len(vertices)
    comp, ncomp = scc(n, *csr(n, [(index[u], index[v]) for u, v in edges]))
    return dict(zip(vertices, comp)), ncomp


def _strongly_connected(Cset, allowed):
    """Cset (non-empty) is strongly connected along `allowed` and every
    vertex in it keeps an edge inside it: one SCC with an inner edge."""
    inner = [(u, x) for u in Cset for x in allowed[u] if x in Cset]
    _, ncomp = scc_of(Cset, inner)
    return ncomp == 1 and bool(inner)


def _arrays(g, edge_subset):
    """The CSR arrays of the arena view g restricted to `edge_subset`, some
    of the arena's edges (none more often than there): g's own when that
    is all of them."""
    if edge_subset is None or len(edge_subset) == len(g.dst):
        return g.off, g.dst, g.poff, g.psrc
    index = g.index
    return g.restrict([(index[u], index[v]) for u, v in edge_subset])


def _owned(g, owner, labels):
    """The bitmask of g's vertices whose owner is in `labels`."""
    return g.mask(v for v in g.vertices if owner[v] in labels)


def attractor(arena, coalition, target, edge_subset=None):
    """Least set containing `target`, closed under coalition-can /
    others-must moves.  `coalition` is a set of player names; "chance" may
    be included to give chance vertices the existential role."""
    g = arena.graph
    res = K.attractor(g.n, *_arrays(g, edge_subset),
                      _owned(g, arena.owner, coalition), g.mask(target),
                      (1 << g.n) - 1)
    return g.unmask(res)


def reachable_from(arena, sources, edge_subset=None):
    g = arena.graph
    off, dst, _, _ = _arrays(g, edge_subset)
    return g.unmask(K.reachable(off, dst, g.mask(sources)))


def positive_prob_attractor(game, target, edge_subset=None):
    """Vertices from which every profile restricted to the edge set reaches
    `target` with positive probability (chance plays the existential role,
    every player the universal one)."""
    arena = game.arena
    if game.mode != "terminal":
        raise GameError("positive_prob_attractor needs terminal mode")
    live = {u for u, _ in (arena.edges if edge_subset is None
                           else edge_subset)}
    for v in arena.vertices:
        if not arena.is_terminal(v) and v not in live:
            raise GameError(f"edge set starves vertex {v}")
    return attractor(arena, {"chance"}, target, edge_subset)
