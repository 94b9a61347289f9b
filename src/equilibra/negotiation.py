"""Requirements, lambda-consistency, and the negotiation function.

The negotiation function maps a requirement (vertex -> extended rational,
the payoff the controller demands from there) to the best payoff each
controller can be forced down to by opponents who respect the requirement.
Parity and mean-payoff instantiations are provided; their (eps-)fixed
points characterize (eps-)SPE outcomes.
"""

import functools
import itertools
import math
import weakref
from fractions import Fraction

from .rationals import PINF, NINF, format_ext, parse_ext
from .games import GameError, Lasso, eval_lasso
from . import zerosum as zs
from ._kernels import csr, ids, scc, scc_of, simple_paths
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
        if x is NINF or x is PINF:
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
    if x is PINF or (x is not NINF and x > 1):
        return -1
    if x is NINF or x <= 0:
        return 0
    return 1


_STRUCTURES = weakref.WeakKeyDictionary()


def _shared(game, kind):
    """The requirement-independent structure `kind(game)`, built on first
    use and kept for as long as the game object lives."""
    shared = _STRUCTURES.get(game)
    if not isinstance(shared, kind):
        shared = _STRUCTURES[game] = kind(game)
    return shared


class _ParityStructure:
    """What parity negotiation on one game shares across requirements,
    over the ids of the arena's view (`graph`, `arena.vertices` order):
    each player's colours as one int list (`col`, players in
    `game.players` order) with, per colour z, the vertices of colour >= z
    and == z as int bitmasks, owner ids, each vertex's rank in sorted name
    order, and each player's own winning region (`won`) once solved.  It
    reads every colour once and holds no reference to its game."""

    def __init__(self, game):
        arena = game.arena
        g = self.graph = arena.graph
        self.players = list(game.players)
        pid = {p: k for k, p in enumerate(self.players)}
        if any(arena.owner[v] not in pid for v in g.vertices):
            raise GameError("parity negotiation needs a chance-free arena")
        self.owner = [pid[arena.owner[v]] for v in g.vertices]
        self.col = [[game.payoff.color(p, v) for v in g.vertices]
                    for p in self.players]
        self.at_least, self.equal = [], []
        for col in self.col:
            bits = {}
            for v, z in enumerate(col):
                bits[z] = bits.get(z, 0) | 1 << v
            self.equal.append(bits)
            above, acc = {}, 0
            for z in sorted(bits, reverse=True):
                acc |= bits[z]
                above[z] = acc
            self.at_least.append(above)
        order = sorted(range(g.n), key=g.vertices.__getitem__)
        self.rank = [0] * g.n
        for r, v in enumerate(order):
            self.rank[v] = r
        self._won = {}

    def won(self, i):
        """The bitmask of the vertices from which player id i alone wins its
        parity objective against all the others, whatever the requirement:
        Zielonka on the view's own CSR, solved on first use and kept."""
        region = self._won.get(i)
        if region is None:
            g, owner, col = self.graph, self.owner, self.col[i]
            region, _, _, _ = zs.solve_parity(
                range(g.n), g.off, g.dst, g.poff, g.psrc,
                lambda v: owner[v] == i, lambda v: col[v])
            self._won[i] = region
        return region

    def constraints(self, lam):
        """`_parity_constraint` of every vertex, by id."""
        return [_parity_constraint(lam, v) for v in self.graph.vertices]

    def allowed(self, i, inS):
        """(off, dst, poff, psrc) of the edges whose deviation options for
        player id i stay in the vertex bitmask `inS`: i's vertex u keeps
        u->x iff every other successor of u is in `inS`."""
        g, owner = self.graph, self.owner
        off, dst = g.off, g.dst
        if all(inS >> x & 1 for u in range(g.n) if owner[u] == i
               for x in dst[off[u]:off[u + 1]]):
            return off, dst, g.poff, g.psrc
        edges = []
        for u in range(g.n):
            outs = dst[off[u]:off[u + 1]]
            if owner[u] == i:
                outs = [x for x in outs
                        if all(inS >> w & 1 for w in outs if w != x)]
            edges += [(u, x) for x in outs]
        return g.restrict(edges)

    def components(self, off, dst, bits, free):
        """The components of `parity_components` for one bit vector, kept
        inside the vertex bitmask `free`."""
        n = self.graph.n
        zchoices = [[z for z in sorted(eq) if z % 2 != b]
                    for eq, b in zip(self.equal, bits)]
        for zbar in itertools.product(*zchoices):
            keep = free
            for above, z in zip(self.at_least, zbar):
                keep &= above[z]
            # no component can hold a witness colour that no kept vertex has
            if not all(keep & eq[z] for eq, z in zip(self.equal, zbar)):
                continue
            comp, ncomp = scc(n, off, dst, keep)
            members = [[] for _ in range(ncomp)]
            for v in range(n):
                if comp[v] >= 0:
                    members[comp[v]].append(v)
            for K in members:
                if len(K) == 1 and K[0] not in dst[off[K[0]]:off[K[0] + 1]]:
                    continue
                witnesses = []
                for col, z in zip(self.col, zbar):
                    cands = [u for u in K if col[u] == z]
                    if not cands:
                        break
                    witnesses.append(min(cands, key=self.rank.__getitem__))
                else:
                    yield K, witnesses


def _parity_structure(game):
    return _shared(game, _ParityStructure)


def parity_components(game, lam, edges=None):
    """The colour-tuple SCC search for lambda-consistent parity plays, over
    the ids of the arena's view (`arena.graph`, `arena.vertices` order)
    and along the successor CSR `edges` = (off, dst), the arena's edges by
    default.

    For each payoff bit vector (players in order, 1 before 0) yields
    (bits, forbidden, comps): `forbidden` is the 0/1 mask of the vertices
    whose requirement their owner's bit misses, and the lazy `comps`
    yields, for each tuple z of minimal colours of matching parity, every
    non-trivial SCC K of `edges` restricted to the non-forbidden vertices
    with colours >= z that holds a colour-z_p vertex for every player p,
    as (K, witnesses): K lists its ids in increasing order and witnesses[k]
    is player k's least such vertex by name.  The colour filters are int
    bitmasks, a tuple whose kept vertices miss some z_p is skipped, and
    the SCCs come from `_kernels.scc` on the kept mask, so component ids
    and the order of K are those of the SCCs of the kept subgraph.  A play
    that reaches K avoiding `forbidden` and then cycles through all of K
    is lambda-consistent with payoff `bits`, and every such play ends in
    one of these components.  Polynomial in the graph, exponential only in
    the number of players.
    """
    return _components(game, _parity_structure(game).constraints(lam), edges)


def _components(game, con, edges):
    """`parity_components` for the requirement whose
    `_ParityStructure.constraints` are `con`."""
    ps = _parity_structure(game)
    off, dst = edges or (ps.graph.off, ps.graph.dst)
    for bits in itertools.product((1, 0), repeat=len(ps.players)):
        forbidden = [1 if c < 0 or (c > 0 and not bits[o]) else 0
                     for c, o in zip(con, ps.owner)]
        free = sum(1 << v for v, f in enumerate(forbidden) if not f)
        yield bits, forbidden, ps.components(off, dst, bits, free)


def parity_feasible_region(game, lam, i):
    """Greatest set S of vertices admitting a lambda-consistent play whose
    deviation options for player i all stay inside S.  Outside S the
    negotiation value is +inf (no lambda-rational profile exists).

    Computed by the colour-tuple SCC search (`parity_components`), one
    search per round of the fixpoint: polynomial in the graph, exponential
    only in the number of players."""
    ps = _parity_structure(game)
    return ps.graph.unmask(_feasible_region(game, ps.constraints(lam), i))


def _feasible_region(game, con, i):
    """`parity_feasible_region` for the requirement whose
    `_ParityStructure.constraints` are `con`, as a bitmask over the ids of
    the arena's view."""
    inS = (1 << game.arena.graph.n) - 1
    while True:
        live = _feasible_round(game, con, i, inS)
        if live == inS:
            return inS
        inS = live


def _feasible_round(game, con, i, inS):
    """The vertices of the bitmask `inS` with a lambda-consistent play
    along the edges whose deviation options for player i stay in `inS`
    (other players' edges may leave it), as a bitmask, `con` the
    requirement's `_ParityStructure.constraints`: backward reachability,
    avoiding the forbidden vertices, from the components
    `parity_components` yields.  Live vertices only accumulate, so the
    search stops once every vertex of `inS` is live."""
    ps = _parity_structure(game)
    need = inS.bit_count()
    off, dst, poff, psrc = ps.allowed(ps.players.index(i), inS)
    live = 0
    for _, forbidden, comps in _components(game, con, (off, dst)):
        if not need:
            break
        seen = list(forbidden)
        for K, _ in comps:
            stack = [u for u in K if not seen[u]]
            for u in stack:
                seen[u] = 1
            while stack:
                u = stack.pop()
                if not live >> u & 1:
                    live |= 1 << u
                    need -= inS >> u & 1
                for k in range(poff[u], poff[u + 1]):
                    w = psrc[k]
                    if not seen[w]:
                        seen[w] = 1
                        stack.append(w)
            if not need:
                break
    return inS & live


def _strongly_connected(Cset, allowed):
    """Cset (non-empty) is strongly connected along `allowed` and every
    vertex in it keeps an edge inside it: one SCC with an inner edge."""
    inner = [(u, x) for u in Cset for x in allowed[u] if x in Cset]
    _, ncomp = scc_of(Cset, inner)
    return ncomp == 1 and bool(inner)


# the one concrete state for every proposal inside the constrained
# player's own winning region (`_concrete_game1`)
_SINK = ("W",)


def _concrete_game1(game, con, i, inS):
    """The Pi-compressed concrete negotiation game restricted to the
    feasible region, the bitmask `inS`, for the requirement whose
    `_ParityStructure.constraints` are `con`, over the vertex ids of the
    arena's view and the player ids of `_parity_structure(game)`: (states,
    succ, roots), succ[k] listing the successors of states[k] and roots
    mapping the id of each of player i's vertices in the region, in
    increasing order, to the id of its root state.  Only what those roots
    reach is built: the other vertices' values are never read, and a
    winning region does not depend on what its states cannot reach.

    States are ('P', v, M) Prover proposes (M: the bitmask of activated
    players), ('C', v, x, M) Challenger reacts to the proposed edge v->x
    of one of i's vertices, and ('D', w) marks a deviation to w.  A
    proposal at another player's vertex has nothing to contest and moves
    straight to ('P', x, M'): the C state it skips would have one
    successor and no colour, and the Rabin hits it would have, the P
    state before it has too.

    Every ('P', v, M) with v in i's own winning region
    (`_ParityStructure.won`) is the one state `_SINK`, whose only
    successor is itself: Challenger wins there whatever M and the record,
    by following i's winning strategy (accepting its move or deviating to
    it), which keeps the play inside the region and wins i's parity
    objective, a Rabin disjunct that no prefix can spoil."""
    ps = _parity_structure(game)
    g = ps.graph
    off, dst = g.off, g.dst
    me = ps.players.index(i)
    won = ps.won(me)
    constr = [1 << o if c == 1 else 0 for c, o in zip(con, ps.owner)]
    index, states, succ = {}, [], []

    def state(s):
        if s not in index:
            index[s] = len(states)
            states.append(s)
        return index[s]

    def prover(v, M):
        return state(_SINK if won >> v & 1 else ("P", v, M))

    roots = {v: prover(v, constr[v]) for v in ids(inS) if ps.owner[v] == me}
    for s in states:  # grows as the walk goes
        if s[0] == "P":
            _, v, M = s
            outs = [x for x in dst[off[v]:off[v + 1]] if inS >> x & 1]
            # feasible-region fixpoint: witnesses stay inside S, and the
            # constrained player's vertices keep all successors inside
            assert outs, f"feasible region starves {g.vertices[v]}"
            if ps.owner[v] == me:
                assert len(outs) == off[v + 1] - off[v], \
                    f"deviation target of {g.vertices[v]} escapes the " \
                    f"feasible region"
                succ.append([state(("C", v, x, M)) for x in outs])
            else:
                succ.append([prover(x, M | constr[x]) for x in outs])
        elif s[0] == "C":
            _, v, x, M = s
            succ.append([prover(x, M | constr[x])]
                        + [state(("D", w)) for w in dst[off[v]:off[v + 1]]
                           if w != x])
        elif s[0] == "D":
            succ.append([prover(s[1], constr[s[1]])])
        else:
            succ.append([index[s]])
    return states, succ, roots


def _solve_game1(game, con, i, inS):
    """The bitmask of player i's vertices in the feasible region, the
    bitmask `inS`, whose Prover roots the Challenger wins in the
    Pi-compressed concrete negotiation game restricted to the region
    (threshold 1), for the requirement whose
    `_ParityStructure.constraints` are `con`.

    Challenger wins iff player i wins the projection, or deviations stop
    and some activated requirement is violated in the limit: a Rabin
    objective, reduced to parity by index appearance records and solved
    by Zielonka.  One walk builds the concrete game (`_concrete_game1`),
    a second its record product over int ids 0..N-1 and its successor
    CSR, then its predecessor CSR is built once; colours come from
    `_parity_structure(game)`.  The concrete game's `_SINK`, which stands
    for every proposal inside i's own winning region, is one product node
    whatever the record, with no Rabin hits and min-parity priority 0, so
    Challenger wins there.  Without such a vertex nothing is built, and
    when the concrete game is that sink alone, every root is won without
    a product or a solve."""
    states, succ, roots = _concrete_game1(game, con, i, inS)
    if states == [_SINK] or not roots:
        return sum(1 << v for v in roots)
    sink = states.index(_SINK) if _SINK in states else -1
    ps = _parity_structure(game)
    col = ps.col
    me = ps.players.index(i)

    # Rabin pairs (player, colour, is-requirement) over the reached
    # proposals: player i sees even colour e infinitely often with nothing
    # smaller, or an activated player j's limit colour is odd o while no
    # deviation recurs
    provers = [s for s in states if s[0] == "P"]
    colours = [sorted({c[s[1]] for s in provers}) for c in col]
    pairs = [(me, e, False) for e in colours[me] if e % 2 == 0]
    pairs += [(j, o, True) for j, c in enumerate(col) for o in colours[j]
              if o % 2 == 1 and any(s[2] >> j & 1 and c[s[1]] == o
                                    for s in provers)]

    def hits(s):
        E, F = set(), set()
        for q, (j, c, req) in enumerate(pairs):
            if req and (s[0] == "D" or not s[-1] >> j & 1):
                E.add(q)  # a deviation, or j not activated
            elif s[0] == "P":
                cj = col[j][s[1]]
                if cj < c:
                    E.add(q)
                elif cj == c:
                    F.add(q)
        return E, F

    hit = [(set(), set()) if k == sink else hits(s)
           for k, s in enumerate(states)]
    top = 2 * len(pairs) + 2
    number, nodes, challenger, priority = {}, [], [], []

    def node(s, rec):
        if s == sink:
            rec = ()
        key = (s, rec)
        if key not in number:
            number[key] = len(nodes)
            nodes.append(key)
            # max-parity priority from 1-based positions in the record
            # before the update, flipped to min-parity
            E, F = hit[s]
            maxE = maxF = 0
            for q, j in enumerate(rec, 1):
                if j in E:
                    maxE = q
                elif j in F:
                    maxF = q
            priority.append(0 if s == sink else
                            top - (2 * maxE + 1 if maxE >= maxF
                                   else 2 * maxF))
            challenger.append(states[s][0] != "P")
        return number[key]

    init = tuple(range(len(pairs)))
    seeds = {v: node(r, init) for v, r in roots.items()}
    off, dst = [0], []
    for s, rec in nodes:  # grows as the walk goes
        E = hit[s][0]
        rec = tuple([j for j in rec if j in E]
                    + [j for j in rec if j not in E])
        dst += [node(t, rec) for t in succ[s]]
        off.append(len(dst))
    n = len(nodes)
    w0, _, _, _ = zs.solve_parity(
        range(n), off, dst,
        *csr(n, [(w, u) for u in range(n) for w in dst[off[u]:off[u + 1]]]),
        lambda k: challenger[k], lambda k: priority[k])
    return sum(1 << v for v, k in seeds.items() if w0 >> k & 1)


def nego_parity(game, lam):
    """One application of the negotiation function on a parity game, the
    value of the Pi-compressed concrete negotiation game: +inf outside the
    feasibility region (`parity_feasible_region`, found by the
    colour-tuple SCC search on int bitmasks: polynomial in the graph,
    exponential only in the number of players), then a Rabin
    solve (projection parity for the constrained player, or a violated
    limit requirement after deviations stop) deciding 0 versus 1.
    `_solve_game1` builds that game, with Challenger states only at the
    constrained player's own proposals, in one walk and its
    index-appearance-record product in a second, over int ids, both
    seeded only from that player's vertices in the region, with every
    proposal inside that player's own winning region cut to one sink that
    Challenger wins, and hands the product and its CSR to Zielonka.  Each
    player's winning region is solved once per game object, on the CSR of
    the arena's view, and kept in `_ParityStructure`.  The requirement is
    read once per call, into `_ParityStructure.constraints`, which every
    region round and concrete game reads.  From the requirement to the
    winners everything is numbered by the ids of the arena's view (the
    region, the roots and the winners are bitmasks over them); vertex
    names appear only in the returned map.
    """
    if game.mode != "parity":
        raise GameError("nego_parity needs parity mode")
    if not is_boolean_requirement(game, lam):
        raise GameError("non-Boolean requirement values in parity mode")
    ps = _parity_structure(game)
    con = ps.constraints(lam)
    out = {}
    for me, i in enumerate(ps.players):
        mine = [v for v in range(ps.graph.n) if ps.owner[v] == me]
        if not mine:
            continue
        inS = _feasible_region(game, con, i)
        winners = _solve_game1(game, con, i, inS)
        for v in mine:
            out[ps.graph.vertices[v]] = (Fraction(winners >> v & 1)
                                         if inS >> v & 1 else PINF)
    return out


# ---------------------------------------------------------------------------
# mean-payoff negotiation


class Family:
    """Punishment family h . c^infty . (tail over W with payoff xbar).

    h is a simple history, c a simple punishing cycle; the tail is any play
    with occurrence set W and payoff xbar, a point of the convex hull of the
    cycle means of the strongly connected core W0.
    """

    __slots__ = ("h", "c", "W", "W0", "xbar")

    def __init__(self, h, c, W, W0, xbar):
        self.h = tuple(h)
        self.c = tuple(c)
        self.W = frozenset(W)
        self.W0 = frozenset(W0)
        self.xbar = dict(xbar)

    def __repr__(self):
        return (f"[{','.join(self.h)}|({','.join(self.c)})^inf|"
                f"W={{{','.join(sorted(self.W))}}}]")


def family_consistent(game, lam, fam):
    """Consistency of all plays of the family: xbar must clear the
    requirement of every vertex the family visits."""
    for u in set(fam.h) | set(fam.c) | fam.W:
        x = lam[u]
        if x is PINF:
            return False
        if x is NINF:
            continue
        owner = game.arena.owner[u]
        if fam.xbar[owner] < x:
            return False
    return True


def _sc_subsets(arena):
    """Nonempty vertex sets strongly connected with at least one edge,
    by size, then by sorted tuple.  Each lies inside one SCC of the arena,
    so only subsets of an SCC are tested."""
    g = arena.graph
    succ = {u: arena.succ(u) for u in g.vertices}
    comp, _ = scc(g.n, g.off, g.dst)
    members = {}
    for u in sorted(g.vertices):
        members.setdefault(comp[g.index[u]], []).append(u)
    subs = []
    for group in members.values():
        for size in range(1, len(group) + 1):
            for C in itertools.combinations(group, size):
                if _strongly_connected(set(C), succ):
                    subs.append(C)
    subs.sort(key=lambda C: (len(C), C))
    return [frozenset(C) for C in subs]


def _mp_structure(game):
    return _shared(game, _MpStructure)


class _MpStructure:
    """What the reduced negotiation game of one mean-payoff game shares
    across requirements: simple cycles and their rotations, strongly
    connected cores with their inner cycles, connectors, the family shapes
    proposable at each vertex, cycle means, one order key per value the
    search compares (`order_key`), and per player the lex-least
    cycle-mean vector of each core, the simplex's LP-vertex payoffs,
    adversarial values, deviation arcs (numbered in one `_ArcTable` per
    player) and the pool skeleton of each vertex; plus the memo of
    `nego_mp` on the requirement, and the `_MpRequirement` whose
    pools were built last (`_requirement`), which witness extraction
    reads back.

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
        self.nego_memo = {}
        self.last_requirement = None
        self._shapes = {}
        self._skeletons = {}
        self._groups = {}
        self._tables = {}
        self._connectors = {}
        self._means = {}
        self._keys = {}
        self._least = {}
        self._lp_cache = {}
        self._vals = {}
        self._pre = {}
        self._post = {}

    @functools.cached_property
    def simple_cycles(self):
        """All simple cycles of the arena, canonical and sorted."""
        return zs.simple_cycles(self.arena.vertices, self.arena.succ)

    @functools.cached_property
    def cycles(self):
        """Every rotation of every simple cycle (the rotation fixes the
        entry)."""
        return [c[k:] + c[:k] for c in self.simple_cycles
                for k in range(len(c))]

    @functools.cached_property
    def sc_subsets(self):
        return _sc_subsets(self.arena)

    @functools.cached_property
    def scyc(self):
        """Inner simple cycles of every strongly connected core."""
        return {W0: [c for c in self.simple_cycles if W0.issuperset(c)]
                for W0 in self.sc_subsets}

    def shapes(self, u):
        """Every family shape proposable at u, whatever the requirement:
        (h, c, W0, W, vmask) for a simple history h from u, a cycle
        rotation c entered from h's last vertex, a core W0 and a connector
        q into it from c, with W = W0 | q and vmask the bitmask (over the
        arena's view) of V, the vertices of h, c and W.  Sorted by (h, c,
        sorted W), stably, so that a stable sort on one player's payoff
        gives the pool order."""
        out = self._shapes.get(u)
        if out is None:
            arena = self.arena
            mask = arena.graph.mask
            tails = {}
            keyed = []
            for h in simple_paths(arena.succ, u):
                entries = arena.succ(h[-1])
                hmask = mask(h)
                for c in self.cycles:
                    if c[0] not in entries:
                        continue
                    hcmask = hmask | mask(c)
                    for W0 in self.sc_subsets:
                        for q in self.connectors(c[-1], W0):
                            tail = tails.get((W0, q))
                            if tail is None:
                                W = W0.union(q)
                                tail = tails[W0, q] = (
                                    W, tuple(sorted(W)), mask(W))
                            W, Wsorted, Wmask = tail
                            keyed.append(((h, c, Wsorted),
                                          (h, c, W0, W, hcmask | Wmask)))
            keyed.sort(key=lambda k: k[0])
            out = self._shapes[u] = [shape for _, shape in keyed]
        return out

    def skeleton(self, i, u):
        """The shapes at u as player i's pools read them, whatever the
        requirement: one (W0, vmask, members) per (core, vertex mask),
        groups in the order of their first shape, members (k, arcs, h, c,
        W) with k the shape's index in `shapes(u)` and arcs i's deviation
        arc mask.  The shapes of a group pass the +inf test together and
        share their floors, so their LP payoff: in the pool's stable sort
        an earlier member comes first, and a member whose arcs contain an
        earlier member's is left out, as the pool's dominance pass would
        drop it whatever the requirement."""
        key = (i, u)
        out = self._skeletons.get(key)
        if out is None:
            groups = {}
            for k, (h, c, W0, W, vmask) in enumerate(self.shapes(u)):
                arcs = self.pre_arcs(i, h, c) | self.post_arcs(i, c, W)
                groups.setdefault((W0, vmask), []).append((k, arcs, h, c, W))
            out = self._skeletons[key] = [
                (W0, vmask, _undominated(members, 1))
                for (W0, vmask), members in groups.items()]
        return out

    def owner_groups(self, vmask):
        """The vertices of vmask grouped by owner, owners sorted: (owner,
        vertices) pairs."""
        out = self._groups.get(vmask)
        if out is None:
            groups = {}
            for k, v in enumerate(self.arena.graph.vertices):
                if vmask >> k & 1:
                    groups.setdefault(self.arena.owner[v], []).append(v)
            out = self._groups[vmask] = tuple(
                (j, tuple(vs)) for j, vs in sorted(groups.items()))
        return out

    def connectors(self, last, W0):
        """Connectors into W0 from the successors of a cycle's last
        vertex: simple paths from one of them with no vertex in W0 that
        step into W0 next; the empty connector stands for a successor
        already inside W0."""
        key = (last, W0)
        out = self._connectors.get(key)
        if out is None:
            succ = self.arena.succ
            out = self._connectors[key] = sorted(
                {p[:-1] for s in succ(last) for p in simple_paths(succ, s, W0)
                 if p[-1] in W0})
        return out

    def mp_of(self, cyc, player):
        key = (cyc, player)
        m = self._means.get(key)
        if m is None:
            table = self.table(player)
            total = sum(table.reward[u, v]
                        for u, v in zip(cyc, cyc[1:] + cyc[:1]))
            m = self._means[key] = Fraction(total, len(cyc) * table.scale)
        return m

    def order_key(self, x):
        """The order key of an extended rational x, which carries x:
        (floor(x * 2**32), x), with a float infinity in place of the floor
        for +-inf.  Keys compare as their values do.  The int decides all
        but values less than 2**-32 apart, and x is compared only when the
        floors tie; the structure hands out one key per value, so equal
        values hold the same Fraction and comparing their keys compares
        no Fraction either.  The search compares keys, not Fractions."""
        if x is PINF:
            return _PINF_KEY
        if x is NINF:
            return _NINF_KEY
        n, d = x.numerator, x.denominator
        out = self._keys.get((n, d))
        if out is None:
            out = self._keys[n, d] = (n << 32) // d, x
        return out

    def least(self, i, W0):
        """The lex-least cycle-mean vector of core W0, i's mean first and
        then the other players in order, as a {player: mean} dict: one
        per (player, core), read by every `lp` of them."""
        key = (i, W0)
        out = self._least.get(key)
        if out is None:
            order = [i] + [j for j in self.arena.players if j != i]
            best = min(self.scyc[W0],
                       key=lambda c: [self.mp_of(c, j) for j in order])
            out = self._least[key] = {j: self.mp_of(best, j)
                                      for j in self.arena.players}
        return out

    def lp(self, i, W0, floors):
        """Payoff xbar of the lex-least point of conv{cycle means of W0}
        meeting the per-player `floors` (sorted (player, floor) pairs), i's
        payoff first and then the other players in order, or None when no
        point meets them.

        The point is unique, so it is read in closed form where it can be:
        a lex-min over a polytope is attained at a vertex, and every vertex
        of a convex hull is one of its generators, so without floors it is
        the lex-least cycle-mean vector (`least`).  If that vector meets the
        floors it is the answer; if it misses one and the core has one
        cycle, nothing meets them.  Only a floor that cuts a multi-cycle
        core reaches the simplex; only then is the matrix of cycle means
        built, and only that answer is memoized, under the floors."""
        xbar = self.least(i, W0)
        if all(xbar[j] >= f for j, f in floors):
            return xbar
        cycles = self.scyc[W0]
        if len(cycles) == 1:
            return None
        key = (i, W0, floors)
        if key in self._lp_cache:
            return self._lp_cache[key]
        players = self.arena.players
        order = [i] + [j for j in players if j != i]
        means = [[self.mp_of(c, j) for c in cycles] for j in order]
        a_eq = [[Fraction(1)] * len(cycles)]
        b_eq = [Fraction(1)]
        a_ge = [[self.mp_of(c, j) for c in cycles] for j, _ in floors]
        b_ge = [f for _, f in floors]
        status, alpha = lex_min_vertex(means, a_eq, b_eq, a_ge, b_ge)
        if status != OPTIMAL:
            res = None
        else:
            res = {j: sum(a * self.mp_of(c, j) for a, c in zip(alpha, cycles))
                   for j in players}
        self._lp_cache[key] = res
        return res

    def values(self, i):
        """Adversarial mean-payoff values of player i."""
        vals = self._vals.get(i)
        if vals is None:
            vals = self._vals[i] = zs.mp_values(self._game(), i)
        return vals

    def table(self, i):
        """Player i's `_ArcTable`."""
        out = self._tables.get(i)
        if out is None:
            out = self._tables[i] = _ArcTable(self.arena, self.payoff, i)
        return out

    def pre_arcs(self, i, h, c):
        """Deviation options of i before the punishing cycle: (target,
        int weight of the projected segment for i, segment edge count), as
        a mask over i's arc table."""
        key = (i, h, c)
        out = self._pre.get(key)
        if out is not None:
            return out
        arena = self.arena
        table = self.table(i)
        r = table.reward
        arcs = []
        walk = h + c
        wsum = 0
        for k, z in enumerate(walk):
            if k > 0:
                wsum += r[walk[k - 1], z]
            if arena.owner[z] == i:
                arcs.extend((w, wsum + r[z, w], k + 1)
                            for w in arena.succ(z))
        out = self._pre[key] = table.mask(arcs)
        return out

    def post_arcs(self, i, c, W):
        """Deviation options of i after the punishing cycle: (target, mean
        of the pumped cycle for i as an order key), as a mask like
        `pre_arcs`."""
        key = (i, c, W)
        out = self._post.get(key)
        if out is not None:
            return out
        arena = self.arena
        m = self.order_key(self.mp_of(c, i))
        out = self._post[key] = self.table(i).mask(
            [(w, m) for z in W if arena.owner[z] == i
             for w in arena.succ(z)])
        return out


class _ArcTable:
    """Player i's deviation arcs, each numbered once: a pre-cycle arc as
    (target, weight, length), with i's rewards scaled to ints by `scale`,
    the lcm of their denominators, and a post-cycle arc as (target, mean's
    order key).
    A set of arcs is an int mask over that numbering, so one family's
    arcs are a subset of another's exactly when `a & ~b == 0`."""

    def __init__(self, arena, payoff, i):
        rewards = {e: payoff.reward(i, *e) for e in arena.edges}
        self.scale = math.lcm(*(r.denominator for r in rewards.values()))
        self.reward = {e: r.numerator * (self.scale // r.denominator)
                       for e, r in rewards.items()}
        self.arcs = []
        self._ids = {}
        self._decoded = {}

    def mask(self, arcs):
        """The mask of `arcs`, numbering each arc not seen before."""
        out = 0
        for a in arcs:
            k = self._ids.get(a)
            if k is None:
                # numbered only once appended, so an interrupted call
                # leaves at most an arc no mask names
                self.arcs.append(a)
                k = self._ids[a] = len(self.arcs) - 1
            out |= 1 << k
        return out

    def decode(self, mask):
        """The arcs of `mask` read back: (pre-cycle arcs, post-cycle arcs,
        their targets)."""
        out = self._decoded.get(mask)
        if out is None:
            pre, post = [], []
            rest = mask
            while rest:
                low = rest & -rest
                a = self.arcs[low.bit_length() - 1]
                (pre if len(a) == 3 else post).append(a)
                rest ^= low
            out = self._decoded[mask] = (
                tuple(pre), tuple(post), frozenset(a[0] for a in pre + post))
        return out


class _MpRequirement:
    """What every player's view of one requirement shares: the
    requirement (`lam`, and `key`, its values in `arena.vertices` order),
    the mask of its +inf vertices, the LP floors of each vertex mask and
    the LP payoffs under them, and per player the proposal pools built so
    far, their families' deviation arcs, and their families' acceptances
    and least acceptances as order keys (`_MpStructure.order_key`).  It
    holds no reference to a structure or a game, so a structure can keep
    the last one without keeping its game alive."""

    def __init__(self, shared, lam):
        vertices = shared.arena.vertices
        self.lam = dict(lam)
        self.key = tuple(lam[v] for v in vertices)
        self.blocked = shared.arena.graph.mask(x for x in vertices
                                               if lam[x] is PINF)
        self.pools = {}
        self.accept = {}
        self.deviations = {}
        self.min_accept = {}
        self._floors = {}
        self._payoffs = {}

    def payoff(self, shared, i, W0, vmask):
        """(order key of i's payoff, payoff xbar) of `shared.lp` for i
        on core W0 under the floors of vmask, or None when no point meets
        them.  Kept under (i, W0, vmask), so each is looked up in the
        structure's memo, which hashes the floors, once per requirement."""
        key = (i, W0, vmask)
        if key not in self._payoffs:
            xbar = shared.lp(i, W0, self.floors(shared, vmask))
            self._payoffs[key] = (
                None if xbar is None else (shared.order_key(xbar[i]), xbar))
        return self._payoffs[key]

    def floors(self, shared, vmask):
        """The LP floors of the shapes visiting vmask, as sorted (player,
        floor) pairs: the max finite requirement of each player's vertices
        among them, which is exactly family consistency."""
        out = self._floors.get(vmask)
        if out is None:
            lam = self.lam
            out = []
            for j, vs in shared.owner_groups(vmask):
                levels = [lam[x] for x in vs if lam[x] is not NINF]
                if levels:
                    out.append((j, max(levels)))
            out = self._floors[vmask] = tuple(out)
        return out


def _requirement(game, lam):
    """The `_MpRequirement` of lam on game that `nego_mp` and witness
    extraction build their pools in.  The game's structure keeps the last
    one asked for: it is returned again while lam asks for the same
    values, else a new one replaces it.  Each pool in it is stored only
    once complete, so an interrupted search leaves nothing half built."""
    shared = _mp_structure(game)
    last = shared.last_requirement
    if last is None or last.key != tuple(lam[v] for v in game.arena.vertices):
        last = shared.last_requirement = _MpRequirement(shared, lam)
    return last


class _MpContext:
    """Per-(game, lambda, player) view of the reduced negotiation game.

    Only the proposal pools, with their families' acceptances and arcs,
    their least acceptances and the LP payoffs under the requirement's
    floors depend on the requirement; they live in the `_MpRequirement`
    that `_requirement` gives for lam, shared by every player's view of
    the same requirement while it is the game's last one.  Everything else
    (cycles, cores, pool skeletons, lex-least cycle-mean vectors, simplex
    answers, order keys, adversarial values, deviation arcs) is read from
    the game's `_MpStructure`, shared by every view on the same game
    object.
    """

    def __init__(self, game, lam, i):
        self.i = i
        self.shared = _mp_structure(game)
        self.table = self.shared.table(i)
        self.req = _requirement(game, lam)
        self._pools = self.req.pools.setdefault(i, {})
        # per pooled family: its acceptance for i as an order key, and its
        # deviation arcs read back through i's arc table (`decode`)
        self.accept = self.req.accept.setdefault(i, {})
        self.deviations = self.req.deviations.setdefault(i, {})
        self._min_accept = self.req.min_accept.setdefault(i, {})

    def pool(self, u):
        """Candidate families proposable at u, sorted by (acceptance for
        i, h, c, W) and dominance-pruned: the shapes at u that visit no
        vertex of requirement +inf, each with its core's LP-vertex
        payoff.  One +inf test and one LP payoff lookup
        (`_MpRequirement.payoff`) per group of i's skeleton at u."""
        if u in self._pools:
            return self._pools[u]
        shared = self.shared
        i = self.i
        req = self.req
        cands = []
        for W0, vmask, members in shared.skeleton(i, u):
            if vmask & req.blocked:
                continue
            found = req.payoff(shared, i, W0, vmask)
            if found is not None:
                key, xbar = found
                cands += [(key, k, arcs, xbar, h, c, W0, W)
                          for k, arcs, h, c, W in members]
        # the shape index k breaks ties as the order of `shapes(u)` does;
        # it is unique, so the sort compares nothing after it
        cands.sort()
        pool = []
        for key, _, arcs, xbar, h, c, W0, W in _undominated(cands, 2):
            fam = Family(h, c, W, W0, xbar)
            self.accept[fam] = key
            self.deviations[fam] = self.table.decode(arcs)
            pool.append(fam)
        self._min_accept[u] = self.accept[pool[0]] if pool else _PINF_KEY
        self._pools[u] = pool
        return pool

    def min_accept_key(self, u):
        """The least acceptance of u's pool, as an order key."""
        out = self._min_accept.get(u)
        if out is None:
            self.pool(u)
            out = self._min_accept[u]
        return out

    def min_accept(self, u):
        """The least acceptance of u's pool (+inf when it is empty)."""
        return self.min_accept_key(u)[1]

    def val_lb(self, u):
        """Adversarial value: a lower bound on the negotiation value at u
        for every requirement (monotonicity from the vacuous one)."""
        return self.shared.values(self.i)[u]


def _undominated(items, at):
    """The items whose deviation arc mask, item[at], contains the mask of
    no earlier item, in order: an earlier family dominates a later one as
    soon as its deviation arcs are a subset of the later one's (equal arcs
    included).  Testing only the kept items suffices, since a dropped item
    contains a kept one's arcs."""
    kept = []
    out = []
    for item in items:
        outside = ~item[at]
        for other in kept:
            if not other & outside:
                break
        else:
            kept.append(item[at])
            out.append(item)
    return out


# the order keys of +-inf (`_MpStructure.order_key`)
_PINF_KEY = (math.inf, PINF)
_NINF_KEY = (-math.inf, NINF)


def _challenger_reach(ctx, root, assignment):
    """The best acceptance the Challenger is offered, as an order key,
    and the vertices reached from root along the deviation arcs of the
    assigned families.  An unassigned vertex offers its pool's least
    acceptance, which lower-bounds every completion, and is not left."""
    accept, deviations = ctx.accept, ctx.deviations
    reached = {root}
    stack = [root]
    best = None
    while stack:
        u = stack.pop()
        fam = assignment.get(u)
        if fam is None:
            x = ctx.min_accept_key(u)
        else:
            x = accept[fam]
            for w in deviations[fam][2]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if best is None or x > best:
            best = x
    return best, reached


def _leaf_graph(ctx, assignment, reached):
    """The deviation arcs of a complete assignment on int nodes, one per
    reached vertex: (pre-cycle arcs (u, w, int weight, length),
    post-cycle arcs (u, w, mean's order key))."""
    node = {u: k for k, u in enumerate(reached)}
    pre, post = [], []
    for u in reached:
        k = node[u]
        fam_pre, fam_post, _ = ctx.deviations[assignment[u]]
        pre += [(k, node[w], wt, ln) for w, wt, ln in fam_pre]
        post += [(k, node[w], m) for w, m in fam_post]
    return pre, post


def _assignment_value(ctx, root, assignment):
    """Challenger's exact best value against a complete Prover map: the
    best reached acceptance, the best mean of a cycle of pre-cycle
    deviations (Karp, each arc of length ln cut into ln unit edges), and
    the best min-pumped mean of a cycle through post-cycle deviations."""
    best, reached = _challenger_reach(ctx, root, assignment)
    pre, post = _leaf_graph(ctx, assignment, reached)
    unit = []
    extra = len(reached)
    for u, w, wt, ln in pre:
        prev = u
        for _ in range(ln - 1):
            unit.append((prev, extra, 0))
            prev = extra
            extra += 1
        unit.append((prev, w, wt))
    val = zs.karp_max_mean(extra, unit)
    if val is not None:
        val = ctx.shared.order_key(val / ctx.table.scale)
        if val > best:
            best = val
    # the best post mean m on a cycle of pre arcs and post arcs of mean >=
    # m, each distinct mean tried once
    tried = None
    for m in sorted([m for _, _, m in post], reverse=True):
        if m <= best:
            break
        if m != tried:
            tried = m
            if _on_cycle(len(reached), pre, post, lambda x: x >= m):
                best = m
                break
    return best[1]


def _on_cycle(n, pre, post, hot):
    """Whether a post-cycle arc whose mean's order key passes `hot`
    lies on a cycle of pre-cycle arcs and such post-cycle arcs."""
    posts = [(u, w) for u, w, m in post if hot(m)]
    if not posts:
        return False
    comp, _ = scc(n, *csr(n, [(u, w) for u, w, _, _ in pre] + posts))
    return any(comp[u] == comp[w] for u, w in posts)


def _leaf_reaches(ctx, assignment, reached, accept, t, strict):
    """Whether the Challenger's value against a complete assignment is at
    least t (above t when `strict`), without computing it: some reached
    acceptance `accept` passes t, some cycle of pre-cycle arcs has a mean
    that does (`_ratio_cycle_reaches`), or some post-cycle arc of a mean
    that does lies on a cycle of pre-cycle arcs and such post-cycle arcs
    (`_on_cycle`).  `accept` and t are order keys.  The value is finite
    at a leaf."""
    x = t[1]
    if x is PINF or x is NINF:
        return x is NINF
    passes = (lambda m: m > t) if strict else (lambda m: m >= t)
    if passes(accept):
        return True
    pre, post = _leaf_graph(ctx, assignment, reached)
    n = len(reached)
    return (_on_cycle(n, pre, post, passes)
            or _ratio_cycle_reaches(n, pre, ctx.table.scale, x, strict))


def _ratio_cycle_reaches(n, arcs, scale, t, strict):
    """Whether some cycle of (u, w, weight, length) arcs on nodes 0..n-1
    has sum(weight) / (scale * sum(length)) at least t (above t when
    `strict`).  With t = p/q that is a cycle of positive gain (of gain at
    least 0) for the int gains q*weight - p*scale*length, found by
    Bellman-Ford from every node at once (Lawler's parametric test)."""
    p, q = t.numerator, t.denominator
    ps = p * scale
    if strict:
        gains = [(u, w, q * wt - ps * ln) for u, w, wt, ln in arcs]
    else:
        # a simple cycle has at most n arcs, so (n+1)g + 1 sums to a
        # positive total around it exactly when g sums to at least 0
        gains = [(u, w, (n + 1) * (q * wt - ps * ln) + 1)
                 for u, w, wt, ln in arcs]
    if all(g <= 0 for _, _, g in gains):
        return False
    dist = [0] * n
    for _ in range(n):
        changed = False
        for u, w, g in gains:
            d = dist[u] + g
            if d > dist[w]:
                dist[w] = d
                changed = True
        if not changed:
            return False
    return True


def _greedy_assignment(ctx, root):
    """Close the deviation reachability with each vertex's least-acceptance
    family; gives an achievable initial bound (or None on an empty pool)."""
    assignment = {}
    while True:
        _, reached = _challenger_reach(ctx, root, assignment)
        pending = [u for u in sorted(reached) if u not in assignment]
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
    key = ctx.shared.order_key
    lb = ctx.min_accept_key(root)
    vlb = key(ctx.val_lb(root))
    if vlb > lb:
        lb = vlb
    stop = None if stop_at is None else key(stop_at)
    search = _Search(ctx, root, stop, lb)
    greedy = _greedy_assignment(ctx, root)
    if greedy is not None:
        val = key(_assignment_value(ctx, root, greedy))
        if stop is not None and val <= stop:
            return val[1], greedy
        search.best, search.best_assign = val, dict(greedy)
    if search.best > lb:
        search.rec({})
    return search.best[1], search.best_assign


class _Search:
    """The branch and bound of `_mp_value_at` and its incumbent.  It is an
    object rather than a closure that calls itself: such a closure is a
    reference cycle, which keeps the view, its game and the game's
    structure alive until the cyclic collector runs.  The bounds, the
    incumbent's value and every value it is compared with are order
    keys."""

    def __init__(self, ctx, root, stop_at, lb):
        self.ctx = ctx
        self.root = root
        self.stop_at = stop_at
        self.lb = lb
        self.best = _PINF_KEY
        self.best_assign = None

    def limit(self):
        """(t, strict): a branch is cut once the Challenger's value reaches
        t, or passes it when `strict`.  A value search cuts at the
        incumbent; a witness search at `stop_at`, which a witness may
        meet."""
        if self.stop_at is None:
            return self.best, False
        return self.stop_at, True

    def beaten(self, x):
        """Whether a Challenger value of at least x cuts the branch."""
        t, strict = self.limit()
        return x > t if strict else x >= t

    def rec(self, assignment):
        ctx = self.ctx
        # the best acceptance bounds every completion and prunes most
        # branches; the cycles count at leaves only
        accept, reached = _challenger_reach(ctx, self.root, assignment)
        if self.beaten(accept):
            return False
        pending = sorted((u for u in reached if u not in assignment),
                         key=lambda u: (len(ctx.pool(u)), u))
        if not pending:
            # every leaf is a distinct assignment: the branching vertex is
            # a function of the assignment and siblings differ there.  The
            # exact value is needed only at a leaf that is not cut
            if _leaf_reaches(ctx, assignment, reached, accept, *self.limit()):
                return False
            self.best = ctx.shared.order_key(
                _assignment_value(ctx, self.root, assignment))
            self.best_assign = dict(assignment)
            return self.stop_at is not None or self.best <= self.lb
        u = pending[0]
        for fam in ctx.pool(u):
            if self.beaten(ctx.accept[fam]):
                break
            assignment[u] = fam
            if self.rec(assignment):
                del assignment[u]
                return True
            del assignment[u]
        return False


def nego_mp(game, lam):
    """One application of the negotiation function on a mean-payoff game,
    via stationary Prover strategies in the reduced negotiation game with
    LP-vertex punishment payoffs.  Memoized per game object on the
    requirement; every call returns a fresh dict.  The pools it builds
    stay with the game's structure until another requirement's are built
    (`_requirement`), so witness extraction right after reads them back.
    It searches the vacuous requirement too, which `nego` answers from the
    adversarial values; `spe._decide_mp` calls it directly."""
    if game.mode != "mean-payoff":
        raise GameError("nego_mp needs mean-payoff mode")
    arena = game.arena
    shared = _mp_structure(game)
    key = tuple(lam[v] for v in arena.vertices)
    out = shared.nego_memo.get(key)
    if out is None:
        out = {}
        for i in game.players:
            mine = [v for v in arena.vertices if arena.owner[v] == i]
            if not mine:
                continue
            ctx = _MpContext(game, lam, i)
            for v in mine:
                out[v], _ = _mp_value_at(ctx, v)
        shared.nego_memo[key] = out
    return dict(out)


# ---------------------------------------------------------------------------
# iteration and fixed points


def val_requirement(game):
    """First negotiation iterate: each vertex owned by a player demands its
    owner's adversarial value (parity: 1 exactly on the owner's own
    winning region, `_ParityStructure.won`)."""
    if game.mode == "parity":
        ps = _parity_structure(game)
        return {v: Fraction(ps.won(ps.owner[k]) >> k & 1)
                for k, v in enumerate(ps.graph.vertices)}
    if game.mode != "mean-payoff":
        raise GameError(f"adversarial values unsupported in {game.mode}")
    shared = _mp_structure(game)
    owner = game.arena.owner
    return {v: shared.values(owner[v])[v] for v in game.arena.vertices
            if owner[v] in game.players}


def nego(game, lam):
    """One application of the negotiation function.  A requirement that
    demands nothing (parity: no value above 0; mean-payoff: every value
    -inf) is met by every play and activates no one, so each owned vertex
    gets its owner's adversarial value (`val_requirement`) with no region,
    concrete game or search built; any other goes to `nego_parity` or
    `nego_mp`."""
    vertices = game.arena.vertices
    if game.mode == "parity":
        if (any(lam[v] > 0 for v in vertices)
                or not is_boolean_requirement(game, lam)):
            return nego_parity(game, lam)
    elif game.mode == "mean-payoff":
        if any(lam[v] is not NINF for v in vertices):
            return nego_mp(game, lam)
    else:
        raise GameError(f"negotiation undefined in mode {game.mode}")
    return val_requirement(game)


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
    return _eps_fixed(lam, nego(game, lam), eps, game.arena.vertices)


def _eps_fixed(lam, nxt, eps, vertices):
    """nxt <= lam + eps on `vertices`, +inf only where lam is +inf, and
    no finite nxt over a -inf lam."""
    for v in vertices:
        cur, new = lam[v], nxt[v]
        if new is PINF:
            if cur is not PINF:
                return False
            continue
        if cur is PINF:
            continue
        if cur is NINF or new > cur + eps:
            return False
    return True
