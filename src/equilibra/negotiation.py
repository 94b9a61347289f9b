"""Requirements, lambda-consistency, and the negotiation function.

The negotiation function maps a requirement (vertex -> extended rational,
the payoff the controller demands from there) to the best payoff each
controller can be forced down to by opponents who respect the requirement.
Parity and mean-payoff instantiations are provided; their (eps-)fixed
points characterize (eps-)SPE outcomes.
"""

import functools
import itertools
import json
import weakref
from fractions import Fraction

from .rationals import PINF, NINF, format_ext, parse_ext
from .games import GameError, Lasso, eval_lasso, canonical_cycle
from . import zerosum as zs
from ._kernels import reach, scc_of
from .simplex import lex_min_vertex, OPTIMAL


# ---------------------------------------------------------------------------
# requirements


def vacuous_requirement(game):
    """The requirement constantly -inf; every play is consistent with it."""
    return {v: NINF for v in game.arena.vertices}


def requirement_to_json(lam):
    return {v: format_ext(x) for v, x in sorted(lam.items())}


def requirement_from_json(doc):
    return {v: parse_ext(x) for v, x in doc.items()}


def suffix_lassos(lasso):
    """The finitely many suffix classes of a lasso: one per prefix position
    and one per cycle position; yields (start_vertex, suffix_lasso)."""
    pre = list(lasso.prefix)
    cyc = list(lasso.cycle)
    for k in range(len(pre)):
        yield pre[k], Lasso(pre[k:], cyc)
    for k in range(len(cyc)):
        rot = cyc[k:] + cyc[:k]
        yield rot[0], Lasso([], rot)


def is_lambda_consistent(game, lam, lasso):
    """True iff every suffix grants the controller of its first vertex at
    least the requirement there."""
    lasso.validate(game.arena)
    for v, suff in suffix_lassos(lasso):
        owner = game.arena.owner[v]
        if owner in (None, "chance", "terminal"):
            continue
        if eval_lasso(game, suff, owner) < lam[v]:
            return False
    return True


def is_boolean_requirement(game, lam):
    for v in game.arena.vertices:
        x = lam[v]
        if x in (NINF, PINF):
            continue
        if x == 0 or x == 1:
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# parity negotiation


def _parity_constraint(lam, v):
    """-1: never satisfiable, 1: controller must win, 0: free."""
    x = lam[v]
    if x == PINF or (x != NINF and x > 1):
        return -1
    if x == NINF or x <= 0:
        return 0
    return 1


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


def _strongly_connected(Cset, allowed):
    """Cset (non-empty) is strongly connected along `allowed` and every
    vertex in it keeps an edge inside it."""
    inner = {u: [x for x in allowed[u] if x in Cset] for u in Cset}
    if any(not outs for outs in inner.values()):
        return False
    start = next(iter(Cset))
    if reach(inner, [start]) != Cset:
        return False
    rev = {u: [] for u in Cset}
    for u in Cset:
        for x in inner[u]:
            rev[x].append(u)
    return reach(rev, [start]) == Cset


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


def _constr_players(game, lam, v):
    """Players whose requirement a visit to v activates (parity)."""
    if _parity_constraint(lam, v) == 1:
        return frozenset([game.arena.owner[v]])
    return frozenset()


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

    w0, w1, _, _ = zs.solve_parity(list(seen), prod_succ, is_challenger,
                                   color)
    winners = set()
    for v, root in roots.items():
        if (root, init_rec) in w0:
            winners.add(v)
    return winners


def nego_parity(game, lam):
    """One application of the negotiation function on a parity game.

    Computed as the value of the Pi-compressed concrete negotiation game:
    +inf outside the feasibility region, then a Rabin solve (projection
    parity for the constrained player, or a violated limit requirement
    after deviations stop) deciding 0 versus 1.
    """
    if game.mode != "parity":
        raise GameError("nego_parity needs parity mode")
    if not is_boolean_requirement(game, lam):
        raise GameError("non-Boolean requirement values in parity mode")
    arena = game.arena
    out = {}
    for i in game.players:
        mine = [v for v in arena.vertices if arena.owner[v] == i]
        if not mine:
            continue
        S = parity_feasible_region(game, lam, i)
        winners = _solve_game1(game, lam, i, S)
        for v in mine:
            if v not in S:
                out[v] = PINF
            elif v in winners:
                out[v] = Fraction(1)
            else:
                out[v] = Fraction(0)
    return out


# ---------------------------------------------------------------------------
# mean-payoff negotiation


class Family:
    """Punishment family h . c^infty . (tail over W with payoff xbar).

    h is a simple history, c a simple punishing cycle; the tail is any play
    with occurrence set W and payoff xbar, certified by a cycle combination
    over the strongly connected core W0.
    """

    __slots__ = ("h", "c", "W", "W0", "xbar", "combo")

    def __init__(self, h, c, W, W0, xbar, combo):
        self.h = tuple(h)
        self.c = tuple(c)
        self.W = frozenset(W)
        self.W0 = frozenset(W0)
        self.xbar = dict(xbar)
        self.combo = dict(combo)

    def key(self):
        return (self.h, self.c, tuple(sorted(self.W)),
                tuple(sorted(self.xbar.items())))

    def __repr__(self):
        return (f"[{','.join(self.h)}|({','.join(self.c)})^inf|"
                f"W={{{','.join(sorted(self.W))}}}]")


def family_consistent(game, lam, fam):
    """Consistency of all plays of the family: xbar must clear the
    requirement of every vertex the family visits."""
    for u in set(fam.h) | set(fam.c) | fam.W:
        x = lam[u]
        if x == PINF:
            return False
        if x == NINF:
            continue
        owner = game.arena.owner[u]
        if fam.xbar[owner] < x:
            return False
    return True


def _simple_paths_from(arena, u, cap):
    out = []

    def dfs(path):
        out.append(tuple(path))
        if len(path) >= cap:
            return
        for w in sorted(arena.succ(path[-1])):
            if w not in path:
                path.append(w)
                dfs(path)
                path.pop()

    dfs([u])
    return out


def _all_cycle_seqs(arena):
    """All simple cycles, every rotation (the rotation fixes the entry)."""
    seqs = []
    for cyc in zs.simple_cycles(arena.vertices, arena.succ):
        for k in range(len(cyc)):
            seqs.append(tuple(cyc[k:] + cyc[:k]))
    return seqs


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


def _connectors(arena, entries, W0, cap):
    """Simple paths from an entry vertex into W0, interior outside W0;
    the empty connector stands for an entry already inside W0."""
    outs = set()
    if any(s in W0 for s in entries):
        outs.add(())
    for s in sorted(entries):
        if s in W0:
            continue

        def dfs(path):
            last = path[-1]
            for w in sorted(arena.succ(last)):
                if w in W0:
                    outs.add(tuple(path))
                elif w not in path and len(path) < cap:
                    path.append(w)
                    dfs(path)
                    path.pop()

        dfs([s])
    return sorted(outs)


_STRUCTURES = weakref.WeakKeyDictionary()


def _mp_structure(game):
    """The requirement-independent `_MpStructure` of `game`, built on first
    use and kept for as long as the game object lives."""
    shared = _STRUCTURES.get(game)
    if shared is None:
        shared = _STRUCTURES[game] = _MpStructure(game)
    return shared


class _MpStructure:
    """What the reduced negotiation game of one mean-payoff game shares
    across requirements: cycle rotations, strongly connected cores with
    their inner cycles, simple histories and connectors, cycle means, and
    per player the LP-vertex payoffs, adversarial values and deviation
    arcs; plus the memo of `nego_mp` on the requirement.

    It holds only a weak reference to its game, so the weak key in
    `_STRUCTURES` can die.  The entries stay valid for the game's lifetime
    because nothing mutates a game after construction.  Every part is
    built on first use (adversarial values alone never pay for the
    cores), and every entry is stored only once it is complete, so a
    computation stopped half way (a budget alarm) leaves nothing behind
    that a later call could read.
    """

    def __init__(self, game):
        self._game = weakref.ref(game)
        self.arena = game.arena
        self.payoff = game.payoff
        self.n = len(game.arena.vertices)
        self.nego_memo = {}
        self._paths = {}
        self._connectors = {}
        self._means = {}
        self._lp_cache = {}
        self._vals = {}
        self._pre = {}
        self._post = {}

    @functools.cached_property
    def cycles(self):
        return _all_cycle_seqs(self.arena)

    @functools.cached_property
    def sc_subsets(self):
        return _sc_subsets(self.arena)

    @functools.cached_property
    def scyc(self):
        """Inner simple cycles of every strongly connected core."""
        arena = self.arena
        return {W0: zs.simple_cycles(
                    W0, lambda u: [w for w in arena.succ(u) if w in W0])
                for W0 in self.sc_subsets}

    def paths_from(self, u):
        out = self._paths.get(u)
        if out is None:
            out = self._paths[u] = _simple_paths_from(self.arena, u, self.n)
        return out

    def connectors(self, last, W0):
        """Connectors into W0 from the successors of a cycle's last
        vertex."""
        key = (last, W0)
        out = self._connectors.get(key)
        if out is None:
            out = self._connectors[key] = _connectors(
                self.arena, set(self.arena.succ(last)), W0, self.n)
        return out

    def mp_of(self, cyc, player):
        key = (cyc, player)
        m = self._means.get(key)
        if m is None:
            m = self._means[key] = zs.cycle_mean(
                cyc, lambda u, v: self.payoff.reward(player, u, v))
        return m

    def lp(self, i, W0, floors):
        """Lex-least LP vertex over W0's cycle combinations meeting the
        per-player `floors` (sorted (player, floor) pairs), i's payoff
        first: (xbar, combo), or None when infeasible."""
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
            xbar = {j: sum(a * self.mp_of(c, j)
                           for a, c in zip(alpha, cycles))
                    for j in players}
            combo = {"|".join(canonical_cycle(c)): a
                     for c, a in zip(cycles, alpha) if a != 0}
            res = (xbar, combo)
        self._lp_cache[key] = res
        return res

    def values(self, i):
        """Adversarial mean-payoff values of player i."""
        vals = self._vals.get(i)
        if vals is None:
            vals = self._vals[i] = zs.mp_values(self._game(), i)
        return vals

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


class _MpContext:
    """Per-(game, lambda, player) view of the reduced negotiation game.

    Only the proposal pools and their least acceptances depend on the
    requirement; they live here and die with the view.  Everything else
    (cycles, cores, LP-vertex payoffs, adversarial values, deviation arcs)
    is read from the game's `_MpStructure`, shared by every view on the
    same game object.
    """

    def __init__(self, game, lam, i):
        self.game = game
        self.lam = lam
        self.i = i
        self.arena = game.arena
        self.shared = _mp_structure(game)
        self._pools = {}
        self._min_accept = {}

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
                        xbar, combo = res
                        fam = Family(h, c, W, W0, xbar, combo)
                        # the LP floors used max over h,c,W per owner, which
                        # is exactly family consistency
                        key = fam.key()
                        if key not in cands:
                            cands[key] = fam
        pool = sorted(cands.values(),
                      key=lambda f: (f.xbar[self.i], f.h, f.c,
                                     tuple(sorted(f.W))))
        pool = self._prune_dominated(pool)
        self._min_accept[u] = (pool[0].xbar[self.i] if pool else PINF)
        self._pools[u] = pool
        return pool

    def min_accept(self, u):
        if u not in self._min_accept:
            self.pool(u)
        return self._min_accept[u]

    def val_lb(self, u):
        """Adversarial value: a lower bound on the negotiation value at u
        for every requirement (monotonicity from the vacuous one)."""
        return self.shared.values(self.i)[u]

    def targets(self, fam):
        t = {w for (w, _, _) in self.pre_arcs(fam)}
        t |= {w for (w, _) in self.post_arcs(fam)}
        return t

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

    def pre_arcs(self, fam):
        return self.shared.pre_arcs(self.i, fam.h, fam.c)

    def post_arcs(self, fam):
        return self.shared.post_arcs(self.i, fam.c, fam.W)


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
            unit.append((prev, extra, Fraction(0)))
            prev = extra
            extra += 1
        unit.append((prev, nodes[w], wt))
    val = zs.karp_max_mean(extra, unit)
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


def _mp_value_at(ctx, root, stop_at=None):
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
        key = frozenset((u, f.key()) for u, f in assignment.items())
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


def nego_mp(game, lam):
    """One application of the negotiation function on a mean-payoff game,
    via stationary Prover strategies in the reduced negotiation game with
    LP-vertex punishment payoffs.  Memoized per game object on the
    requirement; every call returns a fresh dict."""
    if game.mode != "mean-payoff":
        raise GameError("nego_mp needs mean-payoff mode")
    arena = game.arena
    memo = _mp_structure(game).nego_memo
    key = tuple(lam[v] for v in arena.vertices)
    out = memo.get(key)
    if out is None:
        out = {}
        for i in game.players:
            mine = [v for v in arena.vertices if arena.owner[v] == i]
            if not mine:
                continue
            ctx = _MpContext(game, lam, i)
            for v in mine:
                out[v], _ = _mp_value_at(ctx, v)
        memo[key] = out
    return dict(out)


# ---------------------------------------------------------------------------
# iteration and fixed points


def nego(game, lam):
    if game.mode == "parity":
        return nego_parity(game, lam)
    if game.mode == "mean-payoff":
        return nego_mp(game, lam)
    raise GameError(f"negotiation undefined in mode {game.mode}")


def nego_iterate(game, max_iters=64):
    """Iterates of the negotiation function from the vacuous requirement.
    Returns (sequence of requirements starting at lambda_0, converged)."""
    lam = vacuous_requirement(game)
    seq = [lam]
    for _ in range(max_iters):
        nxt = nego(game, lam)
        seq.append(nxt)
        if nxt == lam:
            return seq, True
        lam = nxt
    return seq, False


def is_eps_fixed_point(game, lam, eps):
    """nego(lam) <= lam + eps pointwise (the lower side is automatic as
    nego is non-decreasing)."""
    if eps < 0:
        raise GameError("eps must be nonnegative")
    nxt = nego(game, lam)
    for v in game.arena.vertices:
        cur = lam[v]
        new = nxt[v]
        if new == PINF:
            if cur != PINF:
                return False
            continue
        if cur == PINF:
            continue
        if cur == NINF:
            return False
        if new > cur + eps:
            return False
    return True


# ---------------------------------------------------------------------------
# concrete negotiation game (explicit object, for inspection and tests)


def build_concrete_nego(game, lam, i, v0, memory=None):
    """Reachable fragment of the concrete negotiation game from (v0,{v0}).

    memory="vertices" follows the definition (memory = visited vertices);
    memory="players" uses the parity compression (constrained players).
    Returns a dict with vertices (tagged Prover/Challenger) and edges
    (tagged proposal/acceptation/deviation).
    """
    if game.mode not in ("parity", "mean-payoff"):
        raise GameError("concrete negotiation needs a prefix-independent mode")
    arena = game.arena
    if memory is None:
        memory = "players" if game.mode == "parity" else "vertices"

    def mem0(v):
        if memory == "vertices":
            return frozenset([v])
        return _constr_players(game, lam, v)

    def mem_add(M, v):
        if memory == "vertices":
            return M | {v}
        return M | _constr_players(game, lam, v)

    start = ("P", v0, mem0(v0))
    verts = {start}
    edges = []
    todo = [start]
    while todo:
        s = todo.pop()
        if s[0] == "P":
            _, v, M = s
            for x in sorted(arena.succ(v)):
                t = ("C", v, x, M)
                edges.append((s, t, "proposal"))
                if t not in verts:
                    verts.add(t)
                    todo.append(t)
        else:
            _, v, x, M = s
            t = ("P", x, mem_add(M, x))
            edges.append((s, t, "acceptation"))
            if t not in verts:
                verts.add(t)
                todo.append(t)
            if arena.owner[v] == i:
                for w in sorted(arena.succ(v)):
                    if w == x:
                        continue
                    t = ("P", w, mem0(w))
                    edges.append((s, t, "deviation"))
                    if t not in verts:
                        verts.add(t)
                        todo.append(t)
    return {"vertices": sorted(verts, key=str), "edges": edges,
            "initial": start}
