"""Two-player zero-sum and one-player graph primitives.

Everything here works on an indexed view of an arena (or on a raw digraph)
and returns exact values.  The graph kernels (attractor, reachability, SCC)
come from `equilibra._kernels`.
"""

from fractions import Fraction

from . import _kernels as K
from .games import GameError, canonical_cycle


def arena_graph(arena, edge_subset=None):
    edges = arena.edges if edge_subset is None else sorted(edge_subset)
    return K.IndexedGraph(arena.vertices, edges)


def attractor(arena, coalition, target, edge_subset=None):
    """Least set containing `target`, closed under coalition-can /
    others-must moves.  `coalition` is a set of player names; "chance" may
    be included to give chance vertices the existential role."""
    g = arena_graph(arena, edge_subset)
    coal = g.mask([v for v in arena.vertices if arena.owner[v] in coalition])
    tgt = g.mask(target)
    res = K.attractor(g.n, g.off, g.dst, g.poff, g.psrc, coal, tgt)
    return g.unmask(res)


def reachable_from(arena, sources, edge_subset=None):
    g = arena_graph(arena, edge_subset)
    res = K.reachable(g.n, g.off, g.dst, g.mask(sources))
    return g.unmask(res)


def positive_prob_attractor(game, target, edge_subset=None):
    """Vertices from which every profile restricted to the edge set reaches
    `target` with positive probability (chance plays the existential role,
    every player the universal one)."""
    arena = game.arena
    if game.mode != "terminal":
        raise GameError("positive_prob_attractor needs terminal mode")
    edges = arena.edges if edge_subset is None else sorted(edge_subset)
    live = set()
    for u, v in edges:
        live.add(u)
    for v in arena.vertices:
        if not arena.is_terminal(v) and v not in live:
            raise GameError(f"edge set starves vertex {v}")
    return attractor(arena, {"chance"}, target, edges)


# ---------------------------------------------------------------------------
# qualitative reachability with randomness


def almost_sure_reach_mdp(arena, protagonist, target, edge_subset=None):
    """States from which `protagonist` has a strategy reaching `target`
    almost surely when every other vertex (players and chance alike)
    randomizes over its enabled edges."""
    return _almost_sure(arena, {protagonist}, set(), target, edge_subset)


def almost_sure_reach_game(arena, protagonists, adversaries, target,
                           edge_subset=None):
    """States from which the protagonist coalition forces reaching `target`
    with probability 1 against hostile adversaries; chance is random,
    unlisted players count as random too."""
    return _almost_sure(arena, set(protagonists), set(adversaries), target,
                        edge_subset)


def _almost_sure(arena, protags, adversaries, target, edge_subset):
    """Value-1 region: remove positive-reach-failures together with their
    contamination attractor until stable.  Protagonist and random vertices
    act existentially for positive reach; adversaries universally.  For
    contamination the roles flip."""
    edges = list(arena.edges if edge_subset is None else sorted(edge_subset))
    target = set(target)
    alive = set(arena.vertices) - target
    while True:
        nodes = sorted(alive | target)
        sub = [(u, v) for u, v in edges if u in alive and
               (v in alive or v in target)]
        g = K.IndexedGraph(nodes, sub)
        coal = g.mask([v for v in nodes if arena.owner[v] not in adversaries])
        pos = g.unmask(K.attractor(g.n, g.off, g.dst, g.poff, g.psrc,
                                   coal, g.mask(target)))
        zero = alive - pos
        if not zero:
            return alive | target
        coal2 = g.mask([v for v in nodes if arena.owner[v] not in protags])
        bad = g.unmask(K.attractor(g.n, g.off, g.dst, g.poff, g.psrc,
                                   coal2, g.mask(zero)))
        alive -= bad
        if not alive:
            return set(target)


# ---------------------------------------------------------------------------
# extreme adversarial values (simple stochastic games)


def extreme_adversarial_value(game, partition, v, edge_subset=None):
    """inf over hostile profiles of sup over i's strategies of the extreme
    risk measure of i's payoff, where i controls v.

    Decided by a threshold sweep over {0} + terminal payoffs; each
    threshold is an almost-sure or positive-probability reachability game.
    """
    arena = game.arena
    if game.mode != "terminal":
        raise GameError("extreme values need terminal mode")
    if arena.is_chance(v) or arena.is_terminal(v):
        raise GameError(f"{v} is chance or terminal")
    player = arena.owner[v]
    pess, opt = partition
    is_pess = player in pess
    terms = game.terminals()
    candidates = sorted({Fraction(0)} |
                        {game.payoff.terminal_payoffs[t][player]
                         for t in terms}, reverse=True)
    others = [p for p in game.players if p != player]
    for x in candidates:
        good = {t for t in terms if game.payoff.terminal_payoffs[t][player] >= x}
        bad = {t for t in terms if game.payoff.terminal_payoffs[t][player] < x}
        if is_pess:
            if x > 0:
                ok = v in almost_sure_reach_game(arena, {player}, set(others),
                                                 good, edge_subset)
            else:
                # P(bad) = 0: surely avoid bad, chance universal
                reach_bad = attractor(arena, set(others) | {"chance"}, bad,
                                      edge_subset)
                ok = v not in reach_bad
        else:
            if x > 0:
                ok = v in attractor(arena, {player, "chance"}, good,
                                    edge_subset)
            else:
                # some outcome >= x possible: adversaries would need to
                # force almost-sure absorption in bad terminals
                forced = almost_sure_reach_game(arena, set(others), {player},
                                                bad, edge_subset)
                ok = v not in forced
        if ok:
            return x
    return candidates[-1]


# ---------------------------------------------------------------------------
# cycles and mean payoffs


def simple_cycles(vertices, succ):
    """All simple cycles as canonical tuples (lex-least rotation)."""
    vs = sorted(vertices)
    found = set()

    def dfs(start, path, onpath):
        u = path[-1]
        for w in sorted(succ(u)):
            if w == start:
                found.add(canonical_cycle(path))
            elif w not in onpath and w > start:
                onpath.add(w)
                path.append(w)
                dfs(start, path, onpath)
                path.pop()
                onpath.remove(w)

    for s in vs:
        dfs(s, [s], {s})
    return sorted(found)


def cycle_mean(cycle, weight):
    edges = list(zip(cycle, cycle[1:])) + [(cycle[-1], cycle[0])]
    return Fraction(sum(weight(u, v) for u, v in edges), len(edges))


def min_mean_cycle(arena, weight, restrict=None):
    """Minimum mean over reachable simple cycles, with the lexicographically
    least canonical witness among minimizers.  Exhaustive at desk scale."""
    verts = set(restrict) if restrict is not None else set(arena.vertices)
    if arena.init is not None and restrict is None:
        reach = reachable_from(arena, [arena.init])
        verts &= reach

    def succ(u):
        return [w for w in arena.succ(u) if w in verts]

    cycles = simple_cycles(verts, succ)
    if not cycles:
        raise GameError("graph is acyclic")
    best = None
    for cyc in cycles:
        m = cycle_mean(cyc, weight)
        key = (m, cyc)
        if best is None or key < best:
            best = key
    return best[0], list(best[1])


def karp_min_mean(n, edges):
    """Karp's algorithm: exact min cycle mean over a digraph given as
    (u, v, weight) triples; returns None if acyclic.  Value only.
    Weights are scaled to integers once, the DP runs on ints."""
    if not edges:
        return None
    denom = 1
    for _, _, w in edges:
        w = Fraction(w)
        denom = denom * w.denominator // _gcd(denom, w.denominator)
    iedges = [(u, v, int(Fraction(w) * denom)) for u, v, w in edges]
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
            if worst is not None:
                val = Fraction(worst[0], worst[1] * denom)
                if best is None or val < best:
                    best = val
    return best


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def karp_max_mean(n, edges):
    neg = karp_min_mean(n, [(u, v, -w) for u, v, w in edges])
    return None if neg is None else -neg


# ---------------------------------------------------------------------------
# parity solving (Zielonka, min-color convention)


def solve_parity(vertices, succ_map, is_protag, color):
    """Zero-sum parity game: protagonist (side 0) wins a play iff the
    minimal color seen infinitely often is even.  Returns (win0, win1,
    strat0, strat1) with positional witness strategies on each region."""
    pred_map = {v: [] for v in vertices}
    for u in vertices:
        for w in succ_map[u]:
            pred_map[w].append(u)

    def side(v):
        return 0 if is_protag(v) else 1

    def attr(sub, sigma, target):
        inset = set(target)
        strat = {}
        count = {v: sum(1 for w in succ_map[v] if w in sub) for v in sub}
        queue = sorted(target)
        while queue:
            w = queue.pop()
            for u in pred_map[w]:
                if u not in sub or u in inset:
                    continue
                if side(u) == sigma:
                    strat[u] = min(x for x in succ_map[u] if x in inset)
                    inset.add(u)
                    queue.append(u)
                else:
                    count[u] -= 1
                    if count[u] <= 0:
                        inset.add(u)
                        queue.append(u)
        return inset, strat

    def rec(sub):
        if not sub:
            return set(), set(), {}, {}
        m = min(color(v) for v in sub)
        sigma = 0 if m % 2 == 0 else 1
        target = {v for v in sub if color(v) == m}
        a, astrat = attr(sub, sigma, target)
        w0, w1, s0, s1 = rec(sub - a)
        wop = w1 if sigma == 0 else w0
        if not wop:
            strat = dict(s0 if sigma == 0 else s1)
            strat.update(astrat)
            for v in sorted(target):
                if side(v) == sigma and v not in strat:
                    strat[v] = min(w for w in succ_map[v] if w in sub)
            if sigma == 0:
                return set(sub), set(), strat, {}
            return set(), set(sub), {}, strat
        sop = s1 if sigma == 0 else s0
        b, bstrat = attr(sub, 1 - sigma, wop)
        w0b, w1b, s0b, s1b = rec(sub - b)
        # the opponent keeps W_op via its sub-strategy, attracts B into it
        strat_op = dict(sop)
        strat_op.update(bstrat)
        if sigma == 0:
            strat_op.update(s1b)
            return w0b, w1b | b, s0b, strat_op
        strat_op.update(s0b)
        return w0b | b, w1b, strat_op, s1b

    return rec(set(vertices))


def parity_region(arena, colors, coalition):
    """Exact winning region for a coalition maximizing a parity condition,
    plus a positional witness strategy on it.  No chance vertices."""
    for v in arena.vertices:
        if arena.is_chance(v) or arena.is_terminal(v):
            raise GameError("parity_region needs a chance-free arena")
    succ_map = {v: list(arena.succ(v)) for v in arena.vertices}
    w0, w1, s0, s1 = solve_parity(arena.vertices, succ_map,
                                  lambda v: arena.owner[v] in coalition,
                                  lambda v: colors[v])
    return w0, s0


def parity_value(game, player):
    """Adversarial value of every vertex for `player` in a parity game:
    1 on the winning region of {player} versus the rest, else 0."""
    colors = {v: game.payoff.color(player, v) for v in game.arena.vertices}
    w0, _ = parity_region(game.arena, colors, {player})
    return {v: (Fraction(1) if v in w0 else Fraction(0))
            for v in game.arena.vertices}


# ---------------------------------------------------------------------------
# zero-sum mean-payoff values


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
    for combo in _product(choice_lists):
        fixed = dict(zip(mine, combo))
        edges = [(u, v) for (u, v) in arena.edges
                 if u not in fixed or fixed[u] == v]
        vals = _min_reachable_cycle_means(arena.vertices, edges, weight)
        for v in arena.vertices:
            if best[v] is None or vals[v] > best[v]:
                best[v] = vals[v]
    return best


def _product(lists):
    if not lists:
        yield ()
        return
    for head in lists[0]:
        for tail in _product(lists[1:]):
            yield (head,) + tail


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
