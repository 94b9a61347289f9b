# The per-requirement proposal pool that equilibra.negotiation._MpContext.pool
# replaced, kept verbatim as the reference its filter over the per-game pool
# skeletons must agree with exactly: same families in the same order, with the
# same cores and payoffs, and the same branch-and-bound values and
# assignments (tests/test_negotiation_mp.py).  Around the loop, the
# structure it read is kept too: simple histories per call, cycle rotations
# and core cycles from their own `simple_cycles` runs, deviation arcs as
# sorted lists of Fraction-weighted tuples, the `Family.key` dedupe and the
# search's leaf memo; cores from the test of every vertex subset; cycle
# means summed in Fractions; the leaf evaluation, an exact Karp on the
# dummy-node expansion at every leaf, with the greedy assignment that reads
# it; and the LP, `lex_min_vertex` on every core and floors, which the
# closed form of `_MpStructure.lp` replaced.  Connectors are the package's.
# The simple histories come from `_simple_paths_from` in
# tests/path_walk_reference.py, the recursive enumerator the package's
# `_kernels.simple_paths` replaced.

import functools
import itertools
from fractions import Fraction

from equilibra import zerosum as zs
from equilibra._kernels import scc_of
from equilibra.negotiation import Family, _MpStructure
from equilibra.rationals import NINF, PINF
from equilibra.simplex import OPTIMAL, lex_min_vertex
from equilibra.spe import _strongly_connected
from mp_values_reference import on_fractions
from path_walk_reference import _simple_paths_from


def family_key(fam):
    return (fam.h, fam.c, tuple(sorted(fam.W)),
            tuple(sorted(fam.xbar.items())))


def _sc_subsets(arena):
    """Nonempty vertex sets strongly connected with at least one edge."""
    subs = []
    verts = sorted(arena.vertices)
    succ = {u: arena.succ(u) for u in verts}
    for size in range(1, len(verts) + 1):
        for C in itertools.combinations(verts, size):
            Cset = set(C)
            if _strongly_connected(Cset, succ):
                subs.append(frozenset(Cset))
    return subs


def _all_cycle_seqs(arena):
    """All simple cycles, every rotation (the rotation fixes the entry)."""
    seqs = []
    for cyc in zs.simple_cycles(arena.vertices, arena.succ):
        for k in range(len(cyc)):
            seqs.append(tuple(cyc[k:] + cyc[:k]))
    return seqs


class ReferenceStructure(_MpStructure):

    def __init__(self, game):
        super().__init__(game)
        self.payoff = game.payoff
        self._paths = {}

    @functools.cached_property
    def cycles(self):
        return _all_cycle_seqs(self.arena)

    @functools.cached_property
    def sc_subsets(self):
        return _sc_subsets(self.arena)

    def mp_of(self, cyc, player):
        key = (cyc, player)
        m = self._means.get(key)
        if m is None:
            m = self._means[key] = zs.cycle_mean(
                cyc, lambda u, v: self.payoff.reward(player, u, v))
        return m

    @functools.cached_property
    def scyc(self):
        """Inner simple cycles of every strongly connected core."""
        arena = self.arena
        return {W0: zs.simple_cycles(
                    W0, lambda u: [w for w in arena.succ(u) if w in W0])
                for W0 in self.sc_subsets}

    def lp(self, i, W0, floors):
        """Lex-least LP vertex over W0's cycle combinations meeting the
        per-player `floors` (sorted (player, floor) pairs), i's payoff
        first: xbar, or None when infeasible."""
        key = (i, W0, floors)
        if key in self._lp_cache:
            return self._lp_cache[key]
        cycles = self.scyc[W0]
        players = self.arena.players
        a_eq = [[Fraction(1)] * len(cycles)]
        b_eq = [Fraction(1)]
        a_ge = []
        b_ge = []
        for j, f in floors:
            a_ge.append([self.mp_of(c, j) for c in cycles])
            b_ge.append(f)
        objectives = [[self.mp_of(c, i) for c in cycles]]
        for j in players:
            if j != i:
                objectives.append([self.mp_of(c, j) for c in cycles])
        status, alpha = lex_min_vertex(objectives, a_eq, b_eq, a_ge, b_ge)
        if status != OPTIMAL:
            res = None
        else:
            res = {j: sum(a * self.mp_of(c, j)
                          for a, c in zip(alpha, cycles))
                   for j in players}
        self._lp_cache[key] = res
        return res

    def paths_from(self, u):
        out = self._paths.get(u)
        if out is None:
            out = self._paths[u] = _simple_paths_from(
                self.arena, u, len(self.arena.vertices))
        return out

    def pre_arcs(self, i, h, c):
        """Deviation options of i before the punishing cycle: (target,
        weight of the projected segment for i, segment edge count)."""
        key = (i, h, c)
        out = self._pre.get(key)
        if out is not None:
            return out
        arena = self.arena
        r = self.payoff.reward
        arcs = set()
        walk = h + c
        wsum = Fraction(0)
        for k, z in enumerate(walk):
            if k > 0:
                wsum += r(i, walk[k - 1], z)
            if arena.owner[z] != i:
                continue
            for w in sorted(arena.succ(z)):
                arcs.add((w, wsum + r(i, z, w), k + 1))
        out = self._pre[key] = sorted(arcs)
        return out

    def post_arcs(self, i, c, W):
        """Deviation options of i after the punishing cycle: (target, mean
        of the pumped cycle for i)."""
        key = (i, c, W)
        out = self._post.get(key)
        if out is not None:
            return out
        arena = self.arena
        m = self.mp_of(c, i)
        arcs = set()
        for z in sorted(W):
            if arena.owner[z] != i:
                continue
            for w in sorted(arena.succ(z)):
                arcs.add((w, m))
        out = self._post[key] = sorted(arcs)
        return out


class ReferenceContext:
    """A negotiation view on its own `ReferenceStructure` of the game, with
    its own pools and least acceptances (Fractions, not order keys)."""

    def __init__(self, game, lam, i):
        self.i = i
        self.arena = game.arena
        self.lam = dict(lam)
        self.shared = ReferenceStructure(game)
        self._pools = {}
        self._min_accept = {}

    def min_accept(self, u):
        """The least acceptance of u's pool (+inf when it is empty)."""
        if u not in self._min_accept:
            self.pool(u)
        return self._min_accept[u]

    def val_lb(self, u):
        """Adversarial value: a lower bound on the negotiation value at u
        for every requirement."""
        return self.shared.values(self.i)[u]

    def pool(self, u):
        """Candidate families proposable at u, dominance-pruned and sorted
        by (acceptance for i, h, c, W)."""
        if u in self._pools:
            return self._pools[u]
        arena = self.arena
        shared = self.shared
        lam = self.lam
        blocked = {x for x in arena.vertices if lam[x] == PINF}
        cands = {}
        for h in shared.paths_from(u):
            if blocked.intersection(h):
                continue
            last = h[-1]
            for c in shared.cycles:
                if c[0] not in arena.succ(last):
                    continue
                if blocked.intersection(c):
                    continue
                for W0 in shared.sc_subsets:
                    if blocked.intersection(W0):
                        continue
                    for q in shared.connectors(c[-1], W0):
                        if blocked.intersection(q):
                            continue
                        W = W0 | set(q)
                        floors = {}
                        for x in set(h) | set(c) | W:
                            if lam[x] == NINF:
                                continue
                            j = arena.owner[x]
                            f = floors.get(j)
                            if f is None or lam[x] > f:
                                floors[j] = lam[x]
                        res = shared.lp(self.i, W0,
                                        tuple(sorted(floors.items())))
                        if res is None:
                            continue
                        fam = Family(h, c, W, W0, res)
                        # the LP floors used max over h,c,W per owner, which
                        # is exactly family consistency
                        key = family_key(fam)
                        if key not in cands:
                            cands[key] = fam
        pool = sorted(cands.values(),
                      key=lambda f: (f.xbar[self.i], f.h, f.c,
                                     tuple(sorted(f.W))))
        pool = self._prune_dominated(pool)
        self._min_accept[u] = (pool[0].xbar[self.i] if pool else PINF)
        self._pools[u] = pool
        return pool

    def targets(self, fam):
        t = {w for (w, _, _) in self.pre_arcs(fam)}
        t |= {w for (w, _) in self.post_arcs(fam)}
        return t

    def pre_arcs(self, fam):
        return self.shared.pre_arcs(self.i, fam.h, fam.c)

    def post_arcs(self, fam):
        return self.shared.post_arcs(self.i, fam.c, fam.W)

    def _prune_dominated(self, pool):
        kept = []
        sigs = []
        seen_sigs = set()
        for fam in pool:
            pre = frozenset(self.pre_arcs(fam))
            post = frozenset(self.post_arcs(fam))
            x = fam.xbar[self.i]
            key = (x, pre, post)
            if key in seen_sigs:
                continue
            dominated = False
            for (x2, pre2, post2) in sigs:
                if x2 <= x and pre2 <= pre and post2 <= post:
                    dominated = True
                    break
            if not dominated:
                kept.append(fam)
                sigs.append(key)
                seen_sigs.add(key)
        return kept


def _assignment_value(ctx, root, assignment, cheap=False):
    """Challenger's exact best value against a (possibly partial) Prover
    map: best reachable acceptance, best deviation cycle without
    post-cycle deviations (exact mean), best min-pumped cycle.  Unassigned
    reachable vertices contribute their pool's least acceptance, which
    lower-bounds every completion.  cheap=True skips the cycle analysis
    (still a lower bound)."""
    reach = {root}
    stack = [root]
    arcs = []
    accepts = []
    while stack:
        u = stack.pop()
        fam = assignment.get(u)
        if fam is None:
            accepts.append(ctx.min_accept(u))
            continue
        accepts.append(fam.xbar[ctx.i])
        for (w, wt, ln) in ctx.pre_arcs(fam):
            arcs.append(("pre", u, w, wt, ln))
            if w not in reach:
                reach.add(w)
                stack.append(w)
        for (w, m) in ctx.post_arcs(fam):
            arcs.append(("post", u, w, m))
            if w not in reach:
                reach.add(w)
                stack.append(w)
    if not accepts:
        return NINF, frozenset(reach)
    best = max(accepts)
    if cheap:
        return best, frozenset(reach)
    # (b): cycles using only pre-deviation arcs; expand to unit edges
    nodes = {u: k for k, u in enumerate(sorted(reach))}
    unit = []
    extra = len(nodes)
    for a in arcs:
        if a[0] != "pre":
            continue
        _, u, w, wt, ln = a
        prev = nodes[u]
        for step in range(ln - 1):
            unit.append((prev, extra, 0))
            prev = extra
            extra += 1
        unit.append((prev, nodes[w], wt))
    val = on_fractions(zs.karp_max_mean, extra, unit)
    if val is not None and val > best:
        best = val
    # (c): cycles through post arcs, value = min pumped mean on the cycle
    post_means = sorted({a[3] for a in arcs if a[0] == "post"}, reverse=True)
    for m in post_means:
        if m <= best:
            break
        edges = set()
        posts = []
        for a in arcs:
            if a[0] == "pre":
                edges.add((nodes[a[1]], nodes[a[2]]))
            elif a[3] >= m:
                edges.add((nodes[a[1]], nodes[a[2]]))
                posts.append((nodes[a[1]], nodes[a[2]]))
        comp, _ = scc_of(range(len(nodes)), sorted(edges))
        for (pu, pw) in posts:
            if comp[pu] == comp[pw]:
                if m > best:
                    best = m
                break
    return best, frozenset(reach)


def _greedy_assignment(ctx, root):
    """Close the deviation reachability with each vertex's least-acceptance
    family; gives an achievable initial bound (or None on an empty pool)."""
    assignment = {}
    while True:
        _, reach = _assignment_value(ctx, root, assignment, cheap=True)
        pending = [u for u in sorted(reach) if u not in assignment]
        if not pending:
            return assignment
        for u in pending:
            pool = ctx.pool(u)
            if not pool:
                return None
            assignment[u] = pool[0]


def mp_value_at(ctx, root, stop_at=None):
    """Value of the reduced negotiation game at `root`: min over stationary
    Prover strategies of the Challenger best response, by branch and bound
    over per-vertex proposal pools.  With `stop_at` the search
    short-circuits on the first strategy at or below that bound and
    returns it (witness extraction)."""
    best_holder = [PINF]
    best_assign = [None]
    memo = {}
    lb = ctx.min_accept(root)
    vlb = ctx.val_lb(root)
    if vlb > lb:
        lb = vlb

    greedy = _greedy_assignment(ctx, root)
    if greedy is not None:
        val, _ = _assignment_value(ctx, root, greedy)
        best_holder[0] = val
        best_assign[0] = dict(greedy)
        if stop_at is not None and val <= stop_at:
            return val, greedy

    def value_of(assignment):
        key = frozenset((u, family_key(f)) for u, f in assignment.items())
        if key in memo:
            return memo[key]
        res = _assignment_value(ctx, root, assignment)
        memo[key] = res
        return res

    def bound():
        if stop_at is None:
            return best_holder[0]
        return min(best_holder[0], stop_at + 1)

    def rec(assignment, needed):
        # cheap bound (accepts + length-2 deviation cycles) prunes most
        # branches; the exact cycle analysis runs at leaves only
        cheap_val, reach = _assignment_value(ctx, root, assignment,
                                             cheap=True)
        if stop_at is None:
            if cheap_val >= best_holder[0]:
                return False
        elif cheap_val > stop_at:
            return False
        pending = sorted((u for u in (needed & reach)
                          if u not in assignment),
                         key=lambda u: (len(ctx.pool(u)), u))
        if not pending:
            val, _ = value_of(assignment)
            if stop_at is None and val >= best_holder[0]:
                return False
            if stop_at is not None and val > stop_at:
                return False
            if val < best_holder[0]:
                best_holder[0] = val
                best_assign[0] = dict(assignment)
            return (stop_at is not None and val <= stop_at) \
                or best_holder[0] <= lb
        u = pending[0]
        for fam in ctx.pool(u):
            if fam.xbar[ctx.i] >= bound():
                break
            assignment[u] = fam
            if rec(assignment, needed | ctx.targets(fam)):
                del assignment[u]
                return True
            del assignment[u]
        return False

    if stop_at is not None and best_holder[0] <= stop_at:
        return best_holder[0], best_assign[0]
    if best_holder[0] > lb:
        rec({}, {root})
    return best_holder[0], best_assign[0]
