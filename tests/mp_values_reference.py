# `zerosum.mp_values` as it was before it ran one SCC pass per strategy,
# with the two helpers it called, kept verbatim as the reference the
# one-pass version must agree with exactly (tests/test_zerosum.py):
# per positional strategy, `_min_reachable_cycle_means` split the graph
# into SCCs, ran `karp_min_mean` (which split each component again) on
# every component and closed reachability with a fixpoint loop.  The
# positional-strategy enumeration itself is also the oracle for any
# replacement of `mp_values` that does not enumerate strategies.  This
# `karp_min_mean` still takes rational weights; `on_fractions` hands such
# weights to the package's Karp, which takes ints only.

import itertools
import math
from fractions import Fraction

from equilibra import _kernels as K


def on_fractions(karp, n, edges):
    """`karp` (`zerosum.karp_min_mean` or `karp_max_mean`, which take int
    weights) on (u, v, weight) edges with rational weights: each weight
    times d, the lcm of their denominators, and the mean over d."""
    d = math.lcm(*(w.denominator for _, _, w in edges))
    val = karp(n, [(u, v, w.numerator * (d // w.denominator))
                   for u, v, w in edges])
    return None if val is None else val / d


def karp_min_mean(n, edges):
    """Karp's algorithm: exact min cycle mean over a digraph given as
    (u, v, weight) triples; returns None if acyclic.  Value only.
    Weights (ints or Fractions) are scaled to integers once, the DP and
    the comparisons run on ints."""
    if not edges:
        return None
    denom = math.lcm(*[w.denominator for _, _, w in edges])
    iedges = [(u, v, w.numerator * (denom // w.denominator))
              for u, v, w in edges]
    comp, ncomp = K.scc_of(range(n), [(u, v) for u, v, _ in iedges])
    members = [[] for _ in range(ncomp)]
    for v in range(n):
        members[comp[v]].append(v)
    inner = [[] for _ in range(ncomp)]
    for u, v, w in iedges:
        if comp[u] == comp[v]:
            inner[comp[u]].append((u, v, w))
    best = None
    for nodes, sub in zip(members, inner):
        if not sub:
            continue
        ren = {v: i for i, v in enumerate(nodes)}
        m = len(nodes)
        d = [[None] * m for _ in range(m + 1)]
        d[0][0] = 0
        adj = [[] for _ in range(m)]
        for u, v, w in sub:
            adj[ren[u]].append((ren[v], w))
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
        for v in range(m):
            dm = d[m][v]
            if dm is None:
                continue
            worst = None  # max over k of (d_m - d_k)/(m - k), as a pair
            for k in range(m):
                dk = d[k][v]
                if dk is None:
                    continue
                num, den = dm - dk, m - k
                if worst is None or num * worst[1] > worst[0] * den:
                    worst = (num, den)
            if worst is not None and (
                    best is None or worst[0] * best[1] < best[0] * worst[1]):
                best = worst
    return None if best is None else Fraction(best[0], best[1] * denom)


def mp_values(game, player):
    """Adversarial mean-payoff value of every vertex for `player`.

    Positional determinacy on both sides: maximize over the player's
    positional strategies; the hostile rest then drives the play to the
    reachable cycle with least mean.
    """
    arena = game.arena
    mine = [v for v in arena.vertices if arena.owner[v] == player]
    choice_lists = [sorted(arena.succ(v)) for v in mine]

    def weight(u, v):
        return game.payoff.reward(player, u, v)

    best = {v: None for v in arena.vertices}
    for combo in itertools.product(*choice_lists):
        fixed = dict(zip(mine, combo))
        edges = [(u, v) for (u, v) in arena.edges
                 if u not in fixed or fixed[u] == v]
        vals = _min_reachable_cycle_means(arena.vertices, edges, weight)
        for v in arena.vertices:
            if best[v] is None or vals[v] > best[v]:
                best[v] = vals[v]
    return best


def _min_reachable_cycle_means(vertices, edges, weight):
    """For each vertex: min mean over cycles reachable from it (graph has a
    cycle from everywhere by the no-deadend invariant)."""
    comp, ncomp = K.scc_of(vertices, edges)
    local = {}
    size = [0] * ncomp
    for v in vertices:
        local[v] = size[comp[v]]
        size[comp[v]] += 1
    inner = [[] for _ in range(ncomp)]
    for (u, v) in edges:
        if comp[u] == comp[v]:
            inner[comp[u]].append((local[u], local[v], weight(u, v)))
    best = [karp_min_mean(size[c], sub) if sub else None
            for c, sub in enumerate(inner)]
    changed = True
    while changed:
        changed = False
        for (u, v) in edges:
            cu, cv = comp[u], comp[v]
            if cu == cv:
                continue
            if best[cv] is not None and (best[cu] is None
                                         or best[cv] < best[cu]):
                best[cu] = best[cv]
                changed = True
    return {v: best[comp[v]] for v in vertices}
