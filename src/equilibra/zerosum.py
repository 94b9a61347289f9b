"""Two-player zero-sum and one-player graph primitives, with exact values.

The almost-sure loop (`_value_one`), the extreme-value sweep and the
parity solver (Zielonka) work on int ids with CSR arrays, such as an
arena's int view `arena.graph` or an edge subset's restriction of it, and
hold vertex sets as bitmasks; Zielonka's strategies are id -> id maps.
The graph kernels (attractor, reachability, SCC) come from
`equilibra._kernels`.
"""

import itertools
from fractions import Fraction
from operator import itemgetter

from . import _kernels as K
from .games import CHANCE


def _owned(g, owner, labels):
    """The bitmask of g's vertices whose owner is in `labels`."""
    return g.mask(v for v in g.vertices if owner[v] in labels)


# ---------------------------------------------------------------------------
# qualitative reachability with randomness


def _value_one(n, arrays, reach_coal, spoil_coal, target, sub):
    """Value-1 region, as a bitmask, of reaching the bitmask `target` in
    the sub-game on the bitmask `sub` of the CSR `arrays` over ids
    0..n-1, whose edges out of `sub` are no moves; `reach_coal` holds the
    protagonist and random vertices, `spoil_coal` the adversaries and
    random ones.  The targets must have no moves.

    The iterated attractor on a shrinking sub-game mask, from `sub`:
    vertices that cannot reach the targets with positive probability
    (`reach_coal` existential) are removed with their contamination
    attractor (`spoil_coal` existential) until none is left."""
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
                wins = _value_one(n, arrays, ours, theirs, good, full)
            else:
                # P(bad) = 0: surely avoid bad, chance universal
                wins = full & ~K.attractor(n, *arrays, theirs, bad, full)
        else:
            if x > 0:
                wins = K.attractor(n, *arrays, ours, good, full)
            else:
                # some outcome >= x possible: adversaries would need to
                # force almost-sure absorption in bad terminals
                wins = full & ~_value_one(n, arrays, theirs, ours, bad, full)
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
    (u, v, int weight) triples; returns None if acyclic.  Value only: the
    least of `_reachable_min_means` over every SCC.  The edges are sorted
    by source, so the weights line up with the CSR."""
    edges = sorted(edges, key=itemgetter(0))
    off, dst = K.csr(n, [(u, v) for u, v, _ in edges])
    _, val = _reachable_min_means(n, off, dst, [w for _, _, w in edges])
    best = None
    for x in val:
        if x is not None and (best is None or x[0] * best[1] < best[0] * x[1]):
            best = x
    return None if best is None else Fraction(*best)


def _reachable_min_means(n, off, dst, wt):
    """The least mean of a cycle reachable from each SCC of the CSR graph
    (off, dst) over ids 0..n-1 with int weights `wt` aligned with `dst`.
    Returns (comp, val): `_kernels.scc`'s component id per vertex, and at
    each SCC id the least mean as an exact (num, den) pair with den > 0,
    or None when no cycle is reachable.  Pairs compare by
    cross-multiplication.

    Tarjan numbers each SCC after those it reaches, so in increasing id
    every exit's value is final when read.  Each SCC's arcs are collected
    once, into its exits and its inner arcs.  A single vertex's own mean is
    its least self-loop weight, with no DP; a larger SCC's is `_karp_mean`.
    """
    comp, ncomp = K.scc(n, off, dst)
    members = [[] for _ in range(ncomp)]
    local = [0] * n
    for v in range(n):
        nodes = members[comp[v]]
        local[v] = len(nodes)
        nodes.append(v)
    val = [None] * ncomp
    for c, nodes in enumerate(members):
        best = None
        if len(nodes) == 1:
            # the least of its self-loops' weights and its exits' values
            u = nodes[0]
            for k in range(off[u], off[u + 1]):
                t = dst[k]
                x = (wt[k], 1) if t == u else val[comp[t]]
                if x is not None and (best is None
                                      or x[0] * best[1] < best[0] * x[1]):
                    best = x
            val[c] = best
            continue
        adj = [[] for _ in nodes]
        for i, u in enumerate(nodes):
            for k in range(off[u], off[u + 1]):
                t = dst[k]
                if comp[t] == c:
                    adj[i].append((local[t], wt[k]))
                else:
                    x = val[comp[t]]
                    if x is not None and (best is None
                                          or x[0] * best[1] < best[0] * x[1]):
                        best = x
        x = _karp_mean(adj)
        if best is None or x[0] * best[1] < best[0] * x[1]:
            best = x
        val[c] = best
    return comp, val


def _karp_mean(adj):
    """Karp's DP on a strongly connected graph of m >= 2 vertices, given as
    (target, int weight) lists: its least cycle mean as a (num, den) pair.
    d[k][v] is the least weight of a k-edge walk from vertex 0 to v, and
    the least mean is min over v of max over k < m of (d[m][v] - d[k][v])
    / (m - k)."""
    m = len(adj)
    d = [[None] * m for _ in range(m + 1)]
    d[0][0] = 0
    for k in range(1, m + 1):
        row, prev = d[k], d[k - 1]
        for u in range(m):
            du = prev[u]
            if du is None:
                continue
            for v, w in adj[u]:
                cand = du + w
                if row[v] is None or cand < row[v]:
                    row[v] = cand
    best = None
    for v in range(m):
        dm = d[m][v]
        if dm is None:
            continue
        # every v is reached by some walk of fewer than m edges
        worst = None
        for k in range(m):
            dk = d[k][v]
            if dk is not None and (worst is None or (dm - dk) * worst[1]
                                   > worst[0] * (m - k)):
                worst = (dm - dk, m - k)
        if best is None or worst[0] * best[1] < best[0] * worst[1]:
            best = worst
    return best


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

    Mean-payoff games are positionally determined (Ehrenfeucht and
    Mycielski 1979), so max-min equals min-max at every vertex, and either
    side's positional strategies may be enumerated: the side with fewer,
    counted as the product of out-degrees over its vertices, and the
    player's own side on a tie.  Fixing the player's strategy, the hostile
    rest drives the play to the reachable cycle of least mean, and each
    vertex takes the max over strategies.  Fixing the others' joint
    strategy, the player alone reaches the cycle of greatest mean, and each
    vertex takes the min over strategies: on negated weights this is the
    same least-mean pass and the same max, negated at the end.

    Each vertex's moves (target id, signed int weight) are read once from
    `arena.graph` and `game.weights`; each strategy's CSR is filled from
    them and gets one `_reachable_min_means` pass (never None: the arena
    has no dead end).  The Fractions are built only at the end.
    """
    arena = game.arena
    g = arena.graph
    n, off, dst, verts = g.n, g.off, g.dst, g.vertices
    denom, weights = game.weights
    weight = weights[player]
    mine = [arena.owner[v] == player for v in verts]
    ours = theirs = 1
    for k in range(n):
        if mine[k]:
            ours *= off[k + 1] - off[k]
        else:
            theirs *= off[k + 1] - off[k]
    swap = theirs < ours
    sign = -1 if swap else 1
    moves = [[(t, sign * weight[v, verts[t]]) for t in dst[off[k]:off[k + 1]]]
             for k, v in enumerate(verts)]
    # the enumerated side picks one move at each of its vertices, the
    # other side keeps all of its moves
    choices = [[[mv] for mv in ms] if mine[k] != swap else [ms]
               for k, ms in enumerate(moves)]
    best = [None] * n
    for fixed in itertools.product(*choices):
        soff, sdst, swt = [0], [], []
        for ms in fixed:
            for t, w in ms:
                sdst.append(t)
                swt.append(w)
            soff.append(len(sdst))
        comp, val = _reachable_min_means(n, soff, sdst, swt)
        for v in range(n):
            x, b = val[comp[v]], best[v]
            if b is None or x[0] * b[1] > b[0] * x[1]:
                best[v] = x
    return {v: Fraction(sign * num, den * denom)
            for v, (num, den) in zip(verts, best)}
