# The two lambda-consistent-play searches for parity that the colour-tuple
# SCC search in equilibra.negotiation (`parity_components`) replaced, kept
# verbatim as the references it must agree with exactly
# (tests/test_negotiation_parity.py):
# - the feasible-region fixpoint that tried every vertex subset of every
#   SCC, for every vertex of S, in every round (exponential in the graph);
# - the consistent-play search of equilibra.nash with its per-colour-tuple
#   witness search, which must return the same lasso;
# - the three passes that built and solved the concrete parity negotiation
#   game (`_build_game1_arena`, `_rabin_pairs_game1`, `_solve_game1` over
#   tuple states and tuple product nodes), which the one walk of
#   `negotiation._solve_game1` over int ids must agree with exactly, with
#   `_constr_players`, the players a visit activates, that their tuple
#   states carry (`negotiation._concrete_game1` keeps it as a bitmask).

import itertools
from fractions import Fraction

from equilibra.games import Lasso
from equilibra.negotiation import _parity_constraint
from equilibra.nash import _cycle_through
from zielonka_reference import solve_parity_on_names
from named_graph_reference import _strongly_connected, reachable_from, scc_of


def _constr_players(game, lam, v):
    """Players whose requirement a visit to v activates (parity)."""
    if _parity_constraint(lam, v) == 1:
        return frozenset([game.arena.owner[v]])
    return frozenset()


def parity_feasible_region(game, lam, i):
    """Greatest set S of vertices admitting a lambda-consistent play whose
    deviation options for player i all stay inside S.  Outside S the
    negotiation value is +inf (no lambda-rational profile exists)."""
    arena = game.arena
    S = set(arena.vertices)
    while True:
        newS = {v for v in S if _exists_consistent_play(game, lam, i, v, S)}
        if newS == S:
            return S
        S = newS


def _exists_consistent_play(game, lam, i, v0, S):
    arena = game.arena
    allowed = {}
    for u in arena.vertices:
        outs = []
        for x in arena.succ(u):
            if arena.owner[u] == i:
                others = [w for w in arena.succ(u) if w != x]
                if any(w not in S for w in others):
                    continue
            outs.append(x)
        allowed[u] = outs

    verts = sorted(arena.vertices)
    comp, _ = scc_of(verts, [(u, x) for u in verts for x in allowed[u]])
    by_comp = {}
    for u in verts:
        by_comp.setdefault(comp[u], []).append(u)
    for members in by_comp.values():
        mset = set(members)
        for size in range(1, len(members) + 1):
            for C in itertools.combinations(sorted(mset), size):
                Cset = set(C)
                if not _strongly_connected(Cset, allowed):
                    continue
                if _consistent_cycle_reaches(game, lam, v0, Cset, allowed):
                    return True
    return False


def _consistent_cycle_reaches(game, lam, v0, Cset, allowed):
    arena = game.arena
    forbidden = set()
    for u in arena.vertices:
        con = _parity_constraint(lam, u)
        if con == -1:
            forbidden.add(u)
        elif con == 1:
            owner = arena.owner[u]
            mincol = min(game.payoff.color(owner, c) for c in Cset)
            if mincol % 2 == 1:
                forbidden.add(u)
    if Cset & forbidden or v0 in forbidden:
        return False
    seen = {v0}
    stack = [v0]
    while stack:
        u = stack.pop()
        if u in Cset:
            return True
        for x in allowed[u]:
            if x not in seen and x not in forbidden:
                seen.add(x)
                stack.append(x)
    return False


def search_consistent_parity(game, lam, query):
    """A lambda-consistent play within thresholds, exact: enumerate payoff
    bit-vectors and per-player minimal infinite colors, then search a
    strongly connected witness set.  Returns a Lasso or None."""
    arena = game.arena
    players = list(game.players)
    v0 = arena.init
    colors = {p: sorted({game.payoff.color(p, v) for v in arena.vertices})
              for p in players}
    for bits in itertools.product((Fraction(1), Fraction(0)),
                                  repeat=len(players)):
        bvec = dict(zip(players, bits))
        if not query.admits(bvec):
            continue
        forbidden = set()
        ok = True
        for v in arena.vertices:
            if bvec[arena.owner[v]] < lam[v]:
                forbidden.add(v)
        if v0 in forbidden:
            continue
        zchoices = []
        for p in players:
            want_even = bvec[p] == 1
            zchoices.append([z for z in colors[p]
                             if (z % 2 == 0) == want_even])
        for zbar in itertools.product(*zchoices):
            ztup = dict(zip(players, zbar))
            lasso = _parity_witness(game, forbidden, ztup)
            if lasso is not None:
                return lasso
    return None


def _parity_witness(game, forbidden, ztup):
    arena = game.arena
    keep = [v for v in arena.vertices if v not in forbidden
            and all(game.payoff.color(p, v) >= z for p, z in ztup.items())]
    keepset = set(keep)
    succ = {u: [w for w in arena.succ(u) if w in keepset] for u in keep}
    comp, _ = scc_of(keep, [(u, w) for u in keep for w in succ[u]])
    members = {}
    for u in keep:
        members.setdefault(comp[u], []).append(u)
    outside = set(arena.vertices) - set(forbidden)
    reach = reachable_from(arena, [arena.init],
                           [(u, w) for (u, w) in arena.edges
                            if u in outside and w in outside]) \
        if arena.init not in forbidden else set()
    for c in sorted(members):
        K = members[c]
        kset = set(K)
        inner = {u: [w for w in succ[u] if w in kset] for u in K}
        if len(K) == 1 and K[0] not in inner[K[0]]:
            continue
        witnesses = []
        good = True
        for p, z in ztup.items():
            cands = [u for u in K if game.payoff.color(p, u) == z]
            if not cands:
                good = False
                break
            witnesses.append(min(cands))
        if not good:
            continue
        if not any(u in reach for u in K):
            continue
        cycle = _cycle_through(K, inner, witnesses)
        if cycle is None:
            continue
        entry = cycle[0]
        prefix = _bfs_path(arena, arena.init, entry,
                           lambda v: v not in forbidden)
        if prefix is None:
            continue
        return Lasso(prefix[:-1], cycle)
    return None


# the early-exit path search equilibra.nash ran per component before it
# kept one breadth-first tree per payoff vector
def _bfs_path(arena, src, dst, allow):
    succ = {u: [w for w in arena.succ(u) if allow(w)]
            for u in arena.vertices if allow(u)}
    if not allow(src):
        return None
    return _bfs_path_graph(succ, src, dst)


def _bfs_path_graph(succ, src, dst):
    if src == dst:
        return [src]
    prev = {src: None}
    queue = [src]
    while queue:
        u = queue.pop(0)
        for w in sorted(succ[u]):
            if w not in prev:
                prev[w] = u
                if w == dst:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                queue.append(w)
    return None


# the concrete negotiation game, its Rabin pairs and their index-appearance-
# record product, each built in its own pass
def _build_game1_arena(game, lam, i, S):
    """Pi-compressed concrete negotiation arena restricted to the feasible
    region, with deviation marker states.

    States: ('P', v, M) Prover proposes; ('C', v, x, M) Challenger reacts
    to the proposed edge v->x; ('D', w) marks a deviation to w.
    """
    arena = game.arena
    states = {}
    edges = []
    todo = []

    def pstate(v):
        return ("P", v, _constr_players(game, lam, v))

    def add(s):
        if s not in states:
            states[s] = len(states)
            todo.append(s)

    roots = {}
    for v in sorted(S):
        s = pstate(v)
        roots[v] = s
        add(s)
    while todo:
        s = todo.pop()
        kind = s[0]
        if kind == "P":
            _, v, M = s
            outs = [x for x in sorted(arena.succ(v)) if x in S]
            # feasible-region fixpoint: witnesses stay inside S, and the
            # constrained player's vertices keep all successors inside
            assert outs, f"feasible region starves {v}"
            if arena.owner[v] == i:
                assert len(outs) == len(arena.succ(v)),                     f"deviation target of {v} escapes the feasible region"
            for x in outs:
                t = ("C", v, x, M)
                add(t)
                edges.append((s, t))
        elif kind == "C":
            _, v, x, M = s
            t = ("P", x, M | _constr_players(game, lam, x))
            add(t)
            edges.append((s, t))
            if arena.owner[v] == i:
                for w in sorted(arena.succ(v)):
                    if w == x:
                        continue
                    d = ("D", w)
                    add(d)
                    edges.append((s, d))
        else:
            _, w = s
            t = ("P", w, _constr_players(game, lam, w))
            add(t)
            edges.append((s, t))
    return states, edges, roots


def _rabin_pairs_game1(game, lam, i, states):
    """Challenger's objective as Rabin pairs over the concrete states:
    either player i wins the projection, or deviations stop and some
    activated requirement is violated in the limit."""
    arena = game.arena
    players = game.players
    colors_of = {}
    for s in states:
        if s[0] == "P":
            v = s[1]
            colors_of[s] = {p: game.payoff.color(p, v) for p in players}
    all_colors = {p: sorted({cm[p] for cm in colors_of.values()})
                  for p in players}
    pairs = []
    for e in all_colors.get(i, []):
        if e % 2 != 0:
            continue
        E = {s for s, cm in colors_of.items() if cm[i] < e}
        F = {s for s, cm in colors_of.items() if cm[i] == e}
        if F:
            pairs.append((E, F))
    for j in players:
        for o in all_colors.get(j, []):
            if o % 2 != 1:
                continue
            E = set()
            F = set()
            for s in states:
                if s[0] == "D":
                    E.add(s)
                elif s[0] == "P":
                    if j not in s[2]:
                        E.add(s)
                    elif colors_of[s][j] < o:
                        E.add(s)
                    elif colors_of[s][j] == o:
                        F.add(s)
                else:
                    if j not in s[3]:
                        E.add(s)
            if F:
                pairs.append((E, F))
    return pairs


def _solve_game1(game, lam, i, S):
    """Challenger-winning Prover roots of the concrete game (threshold 1),
    via index-appearance-record reduction to parity + Zielonka."""
    if not S:
        return set()
    states, edges, roots = _build_game1_arena(game, lam, i, S)
    pairs = _rabin_pairs_game1(game, lam, i, states)
    k = len(pairs)
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    hitsE = {s: tuple(j for j, (E, F) in enumerate(pairs) if s in E)
             for s in states}
    hitsF = {s: tuple(j for j, (E, F) in enumerate(pairs) if s in F)
             for s in states}
    init_rec = tuple(range(k))

    def update(rec, s):
        hits = set(hitsE[s])
        front = [j for j in rec if j in hits]
        back = [j for j in rec if j not in hits]
        return tuple(front + back)

    def priority(rec, s):
        # 1-based positions in the record before the update; max-parity
        # convention, flipped to min-parity at the end
        pos = {j: q + 1 for q, j in enumerate(rec)}
        maxE = max((pos[j] for j in hitsE[s]), default=0)
        maxF = max((pos[j] for j in hitsF[s]), default=0)
        raw = 2 * maxE + 1 if maxE >= maxF else 2 * maxF
        return (2 * k + 2) - raw

    prod_succ = {}
    seeds = [(roots[v], init_rec) for v in sorted(roots)]
    work = list(seeds)
    seen = set(seeds)
    while work:
        node = work.pop()
        s, rec = node
        rec2 = update(rec, s)
        outs = []
        for t in succ.get(s, []):
            nxt = (t, rec2)
            outs.append(nxt)
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
        prod_succ[node] = outs

    def is_challenger(node):
        return node[0][0] != "P"

    def color(node):
        return priority(node[1], node[0])

    w0, w1, _, _ = solve_parity_on_names(list(seen), prod_succ,
                                         is_challenger, color)
    winners = set()
    for v, root in roots.items():
        if (root, init_rec) in w0:
            winners.add(v)
    return winners
