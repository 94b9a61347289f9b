"""Two-player zero-sum and one-player graph primitives.

Everything here works on an arena's int view, `arena.graph`, which an edge
subset only restricts (or on a raw digraph), and returns exact values.  The
parity solver (Zielonka) takes int ids with their successor and predecessor
CSR, such as the view's own arrays, and answers in bitmasks and id -> id
strategies.  The graph kernels (attractor, reachability, SCC) come from
`equilibra._kernels`.
"""

import itertools
import math
from fractions import Fraction

from . import _kernels as K
from .games import GameError, CHANCE


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


# ---------------------------------------------------------------------------
# qualitative reachability with randomness


def almost_sure_reach_game(arena, protagonists, adversaries, target,
                           edge_subset=None):
    """States from which the protagonist coalition forces reaching `target`
    with probability 1 against hostile adversaries; chance is random,
    unlisted players count as random too."""
    g = arena.graph
    index, goal = g.index, g.mask(target)
    edges = arena.edges if edge_subset is None else edge_subset
    # a target's own moves never matter, and `_value_one` needs none
    arrays = g.restrict([(index[u], index[v]) for u, v in edges
                         if not goal >> index[u] & 1])
    full = (1 << g.n) - 1
    return g.unmask(_value_one(
        g.n, arrays, full & ~_owned(g, arena.owner, adversaries),
        full & ~_owned(g, arena.owner, protagonists), goal))


def _value_one(n, arrays, reach_coal, spoil_coal, target):
    """Value-1 region, as a bitmask, of reaching the bitmask `target` on
    the CSR `arrays` over ids 0..n-1; `reach_coal` holds the protagonist
    and random vertices, `spoil_coal` the adversaries and random ones.  The
    targets must have no moves.

    The iterated attractor on a shrinking sub-game mask: vertices that
    cannot reach the targets with positive probability (`reach_coal`
    existential) are removed with their contamination attractor
    (`spoil_coal` existential) until none is left."""
    sub = (1 << n) - 1
    while True:
        pos = K.attractor(n, *arrays, reach_coal, target, sub)
        zero = sub & ~pos
        if not zero:
            return sub
        sub &= ~K.attractor(n, *arrays, spoil_coal, zero, sub)


# ---------------------------------------------------------------------------
# extreme adversarial values (simple stochastic games)


def extreme_threshold_sweep(g, owner, pay, is_pess, player, starts,
                            above=None):
    """The best extreme risk `player` can secure from each vertex in
    `starts` (any vertices, chance included) against hostile others: the
    least payoff in the support of the outcome when `is_pess`, else the
    greatest.  Returns start -> value.

    The graph is the `_kernels.IndexedGraph` g; `owner` maps each vertex
    to a player, CHANCE or TERMINAL, and every other owner (a player, or
    any other label) is hostile.  `pay` maps each terminal to the player's
    payoff; the terminals must have no moves.  Extreme measures depend on
    supports only, so no probabilities are read.  Decided by a threshold
    sweep over {0} + terminal payoffs on g, from the
    highest threshold down; each threshold is an almost-sure or
    positive-probability reachability game, and a start's value is the
    first threshold whose winning region holds it.

    With `above`, only the thresholds above it are swept and a start that
    wins none of them maps to `above`: each start gets max(value, above),
    which tells whether the value exceeds `above` without deciding the
    thresholds at or below it.  The least threshold is won everywhere, so
    the value is above `above` exactly when some swept threshold is won.
    """
    candidates = sorted({Fraction(0)} | set(pay.values()), reverse=True)
    floor = candidates[-1]
    if above is not None:
        candidates = [x for x in candidates if x > above]
        floor = above
        if not candidates:
            return {v: floor for v in starts}
    n, arrays = g.n, (g.off, g.dst, g.poff, g.psrc)
    full = (1 << n) - 1
    mine = _owned(g, owner, {player})
    # the player's vertices and the hostile ones, each with chance's
    ours, theirs = mine | _owned(g, owner, {CHANCE}), full & ~mine
    out = {}
    for x in candidates:
        good = g.mask(t for t, y in pay.items() if y >= x)
        bad = g.mask(t for t, y in pay.items() if y < x)
        if is_pess:
            if x > 0:
                wins = _value_one(n, arrays, ours, theirs, good)
            else:
                # P(bad) = 0: surely avoid bad, chance universal
                wins = full & ~K.attractor(n, *arrays, theirs, bad, full)
        else:
            if x > 0:
                wins = K.attractor(n, *arrays, ours, good, full)
            else:
                # some outcome >= x possible: adversaries would need to
                # force almost-sure absorption in bad terminals
                wins = full & ~_value_one(n, arrays, theirs, ours, bad)
        for v in starts:
            if v not in out and wins >> g.index[v] & 1:
                out[v] = x
        if len(out) == len(starts):
            break
    return {v: out.get(v, floor) for v in starts}


# ---------------------------------------------------------------------------
# cycles and mean payoffs


def simple_cycles(vertices, succ):
    """All simple cycles as canonical tuples (lex-least rotation), sorted;
    `succ(u)` lists u's successors among `vertices`.  A cycle is found
    once, from its least vertex s: a simple path from s through vertices
    above s whose last vertex steps back to s."""
    vs = sorted(vertices)
    adj = {u: succ(u) for u in vs}
    found = set()
    for s in vs:
        found.update(p for p in K.simple_paths(
            lambda u: [w for w in adj[u] if w > s], s) if s in adj[p[-1]])
    return sorted(found)


def cycle_mean(cycle, weight):
    edges = list(zip(cycle, cycle[1:])) + [(cycle[-1], cycle[0])]
    return Fraction(sum(weight(u, v) for u, v in edges), len(edges))


def karp_min_mean(n, edges):
    """Karp's algorithm: exact min cycle mean over a digraph given as
    (u, v, int weight) triples; returns None if acyclic.  Value only."""
    scale = math.lcm(*range(1, n + 1))
    comp, ncomp = K.scc(n, *K.csr(n, [(u, v) for u, v, _ in edges]))
    best = min((x for x in _scc_min_means(comp, ncomp, edges, scale)
                if x is not None), default=None)
    return None if best is None else Fraction(best, scale)


def _scc_min_means(comp, ncomp, edges, scale):
    """Karp's DP on each SCC: at index c, the least mean of a cycle inside
    SCC c times `scale` (an int, as every SCC size divides `scale`), or
    None.  `comp` gives each vertex's SCC id and `edges` are (u, v, int
    weight) triples.  d[k][v] is the least weight of a k-edge walk from
    the SCC's first vertex to v; the least mean is min over v of max over
    k < m of (d[m][v] - d[k][v]) / (m - k) on an m-vertex SCC."""
    local, size = [], [0] * ncomp
    for c in comp:
        local.append(size[c])
        size[c] += 1
    adj = [[[] for _ in range(m)] for m in size]
    for u, v, w in edges:
        if comp[u] == comp[v]:
            adj[comp[u]][local[u]].append((local[v], w))
    out = []
    for sub in adj:
        if not any(sub):
            out.append(None)
            continue
        m = len(sub)
        d = [[None] * m for _ in range(m + 1)]
        d[0][0] = 0
        for k in range(1, m + 1):
            row, prev = d[k], d[k - 1]
            for u in range(m):
                du = prev[u]
                if du is None:
                    continue
                for v, w in sub[u]:
                    cand = du + w
                    if row[v] is None or cand < row[v]:
                        row[v] = cand
        best = None
        for v in range(m):
            dm = d[m][v]
            if dm is None:
                continue
            # every v is reached by some walk of fewer than m edges
            worst = max((dm - d[k][v]) * (scale // (m - k))
                        for k in range(m) if d[k][v] is not None)
            if best is None or worst < best:
                best = worst
        out.append(best)
    return out


def karp_max_mean(n, edges):
    neg = karp_min_mean(n, [(u, v, -w) for u, v, w in edges])
    return None if neg is None else -neg


# ---------------------------------------------------------------------------
# parity solving (Zielonka, min-color convention)


def solve_parity(vertices, off, dst, poff, psrc, is_protag, color):
    """Zero-sum parity game on the ids `vertices` = range(n), with their
    successor CSR (off, dst) and predecessor CSR (poff, psrc): protagonist
    (side 0) wins a play iff the minimal color seen infinitely often is
    even.  Returns (win0, win1, strat0, strat1): the winning regions as
    bitmasks and positional witness strategies on them as id -> id maps.

    `is_protag` and `color` are read once per id.  Zielonka's recursion
    runs on int bitmasks, with `_kernels.attractor` for both of its
    attractors, which records the attractor strategies as vertices join
    (so they follow the order of `psrc`); a vertex of the least colour
    picks its least-id successor in the sub-game."""
    n = len(vertices)
    protag, by_colour = 0, {}
    for v in vertices:
        if is_protag(v):
            protag |= 1 << v
        z = color(v)
        by_colour[z] = by_colour.get(z, 0) | 1 << v
    full = (1 << n) - 1
    side = (protag, full & ~protag)
    graph = (n, off, dst, poff, psrc, by_colour, side)
    strat = {}
    wins = _zielonka(full, graph, strat)
    strats = [{v: x for v, x in strat.items() if (w & own) >> v & 1}
              for w, own in zip(wins, side)]
    return wins[0], wins[1], strats[0], strats[1]


def _zielonka(sub, graph, strat):
    """The winning bitmasks [w0, w1] of the sub-game on the bitmask `sub`
    of `graph` = (n, off, dst, poff, psrc, colours, side), `colours`
    mapping each colour to the bitmask of its vertices and `side` the two
    players' bitmasks.  Each winner's vertices have their witness move in
    `strat` (moves left there for vertices their owner loses are filtered
    out by `solve_parity`)."""
    if not sub:
        return [0, 0]
    n, off, dst, poff, psrc, colours, side = graph
    m = min(z for z, at_z in colours.items() if sub & at_z)
    target = sub & colours[m]
    sigma = m % 2
    moves = {}
    a = K.attractor(n, off, dst, poff, psrc, side[sigma], target, sub, moves)
    wins = _zielonka(sub & ~a, graph, strat)
    if not wins[1 - sigma]:
        strat.update(moves)
        for v in K.ids(target & side[sigma]):
            strat[v] = min(x for x in dst[off[v]:off[v + 1]] if sub >> x & 1)
        return [sub, 0] if sigma == 0 else [0, sub]
    # the opponent keeps its region and attracts B into it
    b = K.attractor(n, off, dst, poff, psrc, side[1 - sigma],
                    wins[1 - sigma], sub, strat)
    wins = _zielonka(sub & ~b, graph, strat)
    wins[1 - sigma] |= b
    return wins


# ---------------------------------------------------------------------------
# zero-sum mean-payoff values


def mp_values(game, player):
    """Adversarial mean-payoff value of every vertex for `player`.

    Positional determinacy on both sides: maximize over the player's
    positional strategies; the hostile rest then drives the play to the
    reachable cycle with least mean.  Per strategy, one Tarjan pass numbers
    each SCC after those it reaches, so one sweep in increasing SCC id
    gives each SCC the least of its Karp mean and its successors' values,
    never None as the arena has no dead end.  Reads `game.weights`.
    """
    arena = game.arena
    g = arena.graph
    n, off, dst, index = g.n, g.off, g.dst, g.index
    denom, weights = game.weights
    weight = weights[player]
    iedges = [(index[u], index[v], weight[u, v]) for u, v in arena.edges]
    scale = math.lcm(*range(1, n + 1))
    # a strategy picks one successor at each of the player's vertices
    # and leaves every other vertex's moves (-1) to the hostile rest
    choices = [dst[off[k]:off[k + 1]] if arena.owner[v] == player else [-1]
               for k, v in enumerate(g.vertices)]
    best = [None] * n
    for fixed in itertools.product(*choices):
        edges = [e for e in iedges if fixed[e[0]] < 0 or fixed[e[0]] == e[1]]
        comp, ncomp = K.scc(n, *K.csr(n, [(u, v) for u, v, _ in edges]))
        val = _scc_min_means(comp, ncomp, edges, scale)
        for cu, cv in sorted({(comp[u], comp[v]) for u, v, _ in edges}):
            if cu != cv and (val[cu] is None or val[cv] < val[cu]):
                val[cu] = val[cv]
        for v in range(n):
            x = val[comp[v]]
            if best[v] is None or x > best[v]:
                best[v] = x
    return {v: Fraction(best[k], scale * denom)
            for k, v in enumerate(arena.vertices)}
