# The two lambda-consistent-play searches for parity that the colour-tuple
# SCC search in equilibra.negotiation (`parity_components`) replaced, kept
# verbatim as the references it must agree with exactly
# (tests/test_negotiation_parity.py):
# - the feasible-region fixpoint that tried every vertex subset of every
#   SCC, for every vertex of S, in every round (exponential in the graph);
# - the consistent-play search of equilibra.nash with its per-colour-tuple
#   witness search, which must return the same lasso.

import itertools
from fractions import Fraction

from equilibra.games import Lasso
from equilibra import zerosum as zs
from equilibra._kernels import scc_of
from equilibra.negotiation import _parity_constraint, _strongly_connected
from equilibra.nash import _cycle_through


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
    reach = zs.reachable_from(arena, [arena.init],
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
