"""Simple stochastic games: extreme and entropic risk, XRSE verification
and construction, the all-optimist constrained-existence algorithms,
bounded-memory XRSE search, and stationary ERSE verification.

Support-based quantities (extreme measures, the algorithms' working sets)
are exact; entropic evaluation runs in configurable-precision floats, and
only the entropic functions import mpmath.
"""

import itertools
from fractions import Fraction

from .rationals import PINF
from .games import (GameError, MemoryProfile, CHANCE, TERMINAL,
                    induced_chain, chain_hit_probabilities, profile_product,
                    covered_product)
from . import zerosum as zs
from ._kernels import IndexedGraph, reach
from .nash import _verify_ne_expectation


class RiskPartition:
    """Pessimists and optimists; together they carry the whole player set."""

    def __init__(self, game, pessimists):
        pess = set(pessimists)
        unknown = pess - set(game.players)
        if unknown:
            raise GameError(f"unknown pessimist {sorted(unknown)[0]!r}")
        self.pessimists = frozenset(pess)
        self.optimists = frozenset(set(game.players) - pess)

    def is_pessimist(self, player):
        return player in self.pessimists


class EntropicParams:
    """Base beta > 1 (exact rational or Euler's number) and per-player risk
    parameters; precision is the working significand in bits."""

    def __init__(self, base, rho, precision=113):
        if base != "e" and not (isinstance(base, Fraction) and base > 1):
            raise GameError("base must be a rational > 1 or 'e'")
        if precision < 1:
            raise GameError(f"precision {precision} is not at least 1")
        self.base = base
        self.rho = dict(rho)
        self.precision = precision

    def ln_base(self):
        import mpmath
        if self.base == "e":
            return mpmath.mpf(1)
        return mpmath.log(mpmath.mpf(self.base.numerator)
                          / mpmath.mpf(self.base.denominator))


# ---------------------------------------------------------------------------
# measures of a fixed profile


def _support(succ, start, terminal_of):
    """The support of the outcome from `start` along `succ` (node -> its
    successor nodes): the terminals reached (`terminal_of` maps terminal
    nodes to their terminal vertex) and whether some reached node reaches
    no terminal, that is, whether play can fail to terminate."""
    reached = reach(succ, [start])
    pred = {k: [] for k in reached}
    for k in reached:
        for j in succ[k]:
            pred[j].append(k)
    ends = reach(pred, [k for k in reached if k in terminal_of])
    return ({terminal_of[k] for k in reached if k in terminal_of},
            len(ends) < len(reached))


def _extremes(game, partition, terms, nonterm):
    """Each player's extreme measure on a support: the least (pessimist)
    or greatest (optimist) payoff of the terminals `terms`, with 0 added
    when `nonterm`."""
    out = {}
    for p in game.players:
        vals = {game.payoff.terminal_payoffs[t][p] for t in terms}
        if nonterm:
            vals.add(Fraction(0))
        out[p] = min(vals) if partition.is_pessimist(p) else max(vals)
    return out


def extreme_measure(game, partition, profile):
    """Pessimistic (min support) or optimistic (max support) risk measure
    of each player's payoff under the profile."""
    if game.mode != "terminal":
        raise GameError("extreme measures need terminal mode")
    product = covered_product(game, profile)
    succ = {s: [t for t, _ in moves] for s, moves in product.items()}
    terminal_of = {s: s[0] for s in product if game.arena.is_terminal(s[0])}
    return _extremes(game, partition, *_support(
        succ, (game.arena.init, profile.initial), terminal_of))


def entropic_measure(game, params, profile, player):
    """Entropic risk of the player's payoff: exact terminal-hit
    probabilities, then -(1/rho) log_beta sum p_t beta^(-rho x_t); the
    non-termination mass sits at payoff 0.  rho = 0 gives the exact
    expectation."""
    if game.mode != "terminal":
        raise GameError("entropic measures need terminal mode")
    chain = induced_chain(game, profile)
    probs, nonterm = chain_hit_probabilities(chain)
    rho = params.rho.get(player, Fraction(0))
    if rho == 0:
        return sum((p * game.payoff.terminal_payoffs[t][player]
                    for t, p in probs.items()), Fraction(0))
    import mpmath
    with mpmath.workprec(params.precision):
        lnb = params.ln_base()
        acc = mpmath.mpf(0)
        for t, p in probs.items():
            if p == 0:
                continue
            x = game.payoff.terminal_payoffs[t][player]
            acc += _mpf(p) * mpmath.exp(-_mpf(rho) * _mpf(x) * lnb)
        if nonterm > 0:
            acc += _mpf(nonterm)
        return -mpmath.log(acc) / (lnb * _mpf(rho))


def _mpf(x):
    import mpmath
    f = Fraction(x)
    return mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)


# ---------------------------------------------------------------------------
# best responses in the profile-induced MDP


def best_extreme_response(game, partition, profile, player):
    """Best extreme risk the player can get against the rest of the
    profile: a threshold sweep on the support of the MDP the profile
    induces, in which the player's product nodes choose and every other
    non-terminal node moves at random."""
    arena = game.arena
    product = profile_product(game, profile, player)
    owner = {}
    pay = {}
    for s in product:
        o = arena.owner[s[0]]
        owner[s] = o if o in (player, TERMINAL) else CHANCE
        if o == TERMINAL:
            pay[s] = game.payoff.terminal_payoffs[s[0]][player]
    edges = [(s, t) for s, moves in product.items() for t, _ in moves]
    start = (arena.init, profile.initial)
    return zs.extreme_threshold_sweep(
        IndexedGraph(product, edges), owner, pay,
        partition.is_pessimist(player), player, [start])[start]


def verify_xrse(game, partition, profile):
    """XRSE check: no player can beat their extreme measure in the MDP
    induced by the others' part of the profile.  Each player's best
    response is swept in full; this is the independent check of what
    `xrse_search_bounded` returns."""
    if game.mode != "terminal":
        raise GameError("verify_xrse needs terminal mode")
    measures = extreme_measure(game, partition, profile)
    return all(best_extreme_response(game, partition, profile, i)
               <= measures[i] for i in game.players)


def _top_thresholds(game):
    """Each player's greatest sweep threshold, 0 or their greatest payoff:
    no response of theirs beats a value at or above it."""
    pay = game.payoff.terminal_payoffs
    return {p: max([Fraction(0)] + [pay[t][p] for t in game.terminals()])
            for p in game.players}


# ---------------------------------------------------------------------------
# Algorithm 1: exhibition of a stationary XRSE (nonnegative payoffs)


def _support_measures(game, edges, mode):
    """Support of the uniform profile over an edge set, from init:
    reachable terminal payoffs plus 0 when non-termination has positive
    probability.  mode picks the non-termination criterion: "chain" for
    fully randomizing profiles and per-visit re-randomization,
    "positional" for first-visit commitment."""
    arena = game.arena
    succ = {v: [] for v in arena.vertices}
    for u, w in edges:
        succ[u].append(w)
    terms, nonterm = _support(succ, arena.init,
                              {t: t for t in game.terminals()})
    if mode == "positional":
        # a positional sample can trap the play in a terminal-free region:
        # players pick single edges, chance keeps all its branches
        nonterm = bool(_sure_avoid_region(game, edges)
                       & reach(succ, [arena.init]))
    return terms, nonterm


def _sure_avoid_region(game, edges):
    """Vertices from which the players can jointly (positionally) avoid all
    terminals; chance is universal."""
    arena = game.arena
    targets = set(game.terminals())
    att = zs.attractor(arena, {"chance"}, targets, edges)
    return set(v for v in arena.vertices
               if not arena.is_terminal(v)) - att


def _pessimist_safe_region(game, edges, player, z):
    """Vertices from which the player can keep the payoff above z almost
    surely when everyone else randomizes over the edge set: surely avoid
    the bad terminals, then reach the good ones almost surely."""
    arena = game.arena
    bad = {t for t in game.terminals()
           if game.payoff.terminal_payoffs[t][player] <= z}
    good = {t for t in game.terminals()
            if game.payoff.terminal_payoffs[t][player] > z}
    others = [p for p in game.players if p != player]
    reach_bad = zs.attractor(arena, set(others) | {"chance"}, bad, edges)
    safe = set(arena.vertices) - reach_bad
    sub_edges = [(u, v) for (u, v) in edges if u in safe and v in safe]
    return safe & zs.almost_sure_reach_game(arena, {player}, set(),
                                            good & safe, sub_edges)


def xrse_exists(game, partition):
    """Algorithm: iteratively remove the edges that let provably deviating
    pessimists reach their almost-sure-improvement region; the surviving
    uniform support profile is a stationary XRSE. Nonnegative payoffs.
    Returns the edges, that profile's extreme measures and the trace."""
    if game.mode != "terminal":
        raise GameError("terminal mode required")
    for t in game.terminals():
        for p, x in game.payoff.terminal_payoffs[t].items():
            if x < 0:
                raise GameError("negative payoff present")
    arena = game.arena
    edges = sorted(arena.edges)
    trace = []
    pessimists = [p for p in game.players if partition.is_pessimist(p)]
    k = 0
    while True:
        acc = zs.reachable_from(arena, [arena.init], edges)
        z = _extremes(game, partition,
                      *_support_measures(game, edges, "chain"))
        Ws = {i: set(arena.vertices)
              - _pessimist_safe_region(game, edges, i, z[i])
              for i in pessimists}
        trace.append({"k": k, "edges": list(edges),
                      "z": {i: z[i] for i in pessimists},
                      "W": {i: sorted(Ws[i]) for i in pessimists},
                      "A": sorted(acc)})
        deviator = next((i for i in pessimists if arena.init not in Ws[i]),
                        None)
        if deviator is None:
            return edges, z, trace
        Wi = Ws[deviator]
        edges = [(u, v) for (u, v) in edges
                 if not (u in acc and u not in Wi and v in Wi)]
        k += 1


# ---------------------------------------------------------------------------
# Algorithms 2-3: all-optimist constrained existence


def _adversarial_values(game, partition):
    """Each controlled vertex's extreme adversarial value, one threshold
    sweep per player deciding all of that player's vertices."""
    arena = game.arena
    out = {}
    for p in game.players:
        mine = [v for v in arena.vertices if arena.owner[v] == p]
        pay = {t: game.payoff.terminal_payoffs[t][p]
               for t in game.terminals()}
        out.update(zs.extreme_threshold_sweep(
            arena.graph, arena.owner, pay, partition.is_pessimist(p), p,
            mine))
    return out


def xrse_constrained_optimists(game, query, partition=None):
    """Constrained existence of XRSEs when everyone is optimistic:
    cycle-friendly when no upper threshold is negative, cycle-averse
    otherwise (then a terminal must be reached almost surely)."""
    if game.mode != "terminal":
        raise GameError("terminal mode required")
    if partition is not None and partition.pessimists:
        raise GameError("a pessimist in the partition")
    partition = RiskPartition(game, [])
    arena = game.arena
    averse = any(query.hi(p) != PINF and query.hi(p) < 0
                 for p in game.players)
    val = _adversarial_values(game, partition)
    trace = []
    edges = sorted(arena.edges)
    terms = game.terminals()

    def bad_terminals():
        return {t for t in terms
                if any(game.payoff.terminal_payoffs[t][p] > query.hi(p)
                       for p in game.players)}

    def measures(es):
        mode = "positional" if not averse else "chain"
        return _extremes(game, partition, *_support_measures(game, es, mode))

    def frown_step(es):
        # V-frown: vertices whose adversarial value beats their owner's
        # measure, and the edges' positive-probability attractor to them
        z = measures(es)
        vf = {v for v in val if val[v] > z[arena.owner[v]]}
        att = zs.positive_prob_attractor(game, vf, es)
        trace.append({"k": k, "edges": list(es), "z": dict(z),
                      "Vfrown": sorted(vf), "A": sorted(att)})
        return z, att

    def prune(es, att):
        return [e for e in es if not (e[0] not in att and e[1] in att)]

    k = 0
    vf = bad_terminals()
    att = zs.positive_prob_attractor(game, vf, edges)
    trace.append({"k": k, "edges": list(edges), "Vfrown": sorted(vf),
                  "A": sorted(att)})
    if arena.init in att:
        return {"answer": "no", "trace": trace}
    nxt = prune(edges, att)
    if not averse:
        changed = True
        edges = nxt
        while changed:
            k += 1
            zs_now, att = frown_step(edges)
            if arena.init in att:
                return {"answer": "no", "trace": trace}
            nxt = prune(edges, att)
            changed = nxt != edges
            edges = nxt
        if all(zs_now[p] >= query.lo(p) for p in game.players):
            return {"answer": "yes", "edges": edges, "trace": trace,
                    "measures": zs_now}
        return {"answer": "no", "trace": trace}
    # cycle-averse
    streak = 0
    edges = nxt
    while streak < 2:
        k += 1
        if k % 2 == 0:
            _, att = frown_step(edges)
        else:
            winners = zs.almost_sure_reach_game(
                arena, set(game.players), set(), set(terms), edges)
            att = set(arena.vertices) - winners
            trace.append({"k": k, "edges": list(edges), "A": sorted(att)})
        if arena.init in att:
            return {"answer": "no", "trace": trace}
        nxt = prune(edges, att)
        streak = streak + 1 if nxt == edges else 0
        edges = nxt
    zs_now = measures(edges)
    if not all(zs_now[p] >= query.lo(p) for p in game.players):
        return {"answer": "no", "trace": trace}
    F = list(edges)
    l = 0
    while True:
        cut = _refinement_edge(game, F)
        if cut is None:
            break
        F = [e for e in F if e != cut]
        l += 1
        trace.append({"l": l, "edges": list(F), "cut": cut})
    return {"answer": "yes", "edges": F, "trace": trace,
            "measures": zs_now}


def _refinement_edge(game, F):
    """First edge satisfying the cycle-averse final-refinement conditions:
    removable without losing any terminal's accessibility from the start
    and without starving its source of terminal access."""
    arena = game.arena
    terms = set(game.terminals())
    for (u, v) in sorted(F):
        if arena.is_chance(u) or arena.is_terminal(u):
            continue
        if sum(1 for e in F if e[0] == u) < 2:
            continue
        without = [e for e in F if e != (u, v)]
        from_v = zs.reachable_from(arena, [v], F)
        tv = terms & from_v
        from_v0 = zs.reachable_from(arena, [arena.init], without)
        if not (tv <= from_v0):
            continue
        from_u = zs.reachable_from(arena, [u], without)
        if not (terms & from_u):
            continue
        return (u, v)
    return None


# ---------------------------------------------------------------------------
# bounded-memory XRSE search


def xrse_search_bounded(game, partition, query, memory_bound):
    """Enumerate memory profiles up to the state bound with uniform
    randomization over chosen sub-supports; first profile that verifies
    as an XRSE with measures in range wins.  Deterministic-first order.
    The search checks candidates on the measures it walked; the profile
    it returns is checked once more, in full, by `verify_xrse`.  When the
    query admits no support at all (`_measure_caps`), no profile is
    tried."""
    if game.mode != "terminal":
        raise GameError("terminal mode required")
    if memory_bound < 1:
        raise GameError(f"memory bound {memory_bound} is not at least 1")
    if _measure_caps(game, partition, query) is None:
        return {"answer": "none-at-cap", "memory_bound": memory_bound}
    for nstates in range(1, memory_bound + 1):
        states = [f"q{k}" for k in range(nstates)]
        slots = _memory_slots(game.arena, states)
        found = _search_slots(game, partition, query, states, slots)
        if found is not None:
            if not verify_xrse(game, partition, found):
                raise RuntimeError("searched profile fails verify_xrse")
            return {"answer": "yes", "profile": found,
                    "states": nstates}
    return {"answer": "none-at-cap", "memory_bound": memory_bound}


def _memory_slots(arena, states):
    """The search's (state, vertex, options) triples: per state, each
    controlled vertex's (next state, support) choices, then chance's."""
    controlled = [v for v in arena.vertices
                  if not arena.is_chance(v) and not arena.is_terminal(v)]
    chance = [v for v in arena.vertices if arena.is_chance(v)]
    slots = []
    for q in states:
        for v in controlled:
            opts = []
            outs = sorted(arena.succ(v))
            for q2 in states:
                for size in range(1, len(outs) + 1):
                    for sup in itertools.combinations(outs, size):
                        opts.append(tuple((q2, w) for w in sup))
            opts.sort(key=lambda c: (len(c), c))
            slots.append((q, v, opts))
        for v in chance:
            slots.append((q, v, [((q2,),) for q2 in states]))
    return slots


def _measure_caps(game, partition, query):
    """For each player, a value their extreme measure exceeds on no
    support that the query admits, or None when it admits none.

    An outcome is a terminal or non-termination (0 for everyone).  Every
    outcome of an admitted support meets each pessimist's lower bound and
    each optimist's upper bound (`every` lists the outcomes that meet all
    of them), and some outcome of it meets each other bound (`some[j]`
    lists the outcomes in `every` that meet player j's).  So a measure is
    at most the player's greatest payoff over `every`, and a pessimist's,
    the least payoff in the support, is also at most their greatest
    payoff over each `some[j]`.  When `every` or some `some[j]` is empty,
    no support is admitted."""
    pay = game.payoff.terminal_payoffs
    outcomes = [pay[t] for t in game.terminals()]
    outcomes.append({p: Fraction(0) for p in game.players})
    pess = partition.is_pessimist
    every = [o for o in outcomes
             if all(query.lo(j) <= o[j] if pess(j) else o[j] <= query.hi(j)
                    for j in game.players)]
    some = [[o for o in every
             if (o[j] <= query.hi(j) if pess(j) else query.lo(j) <= o[j])]
            for j in game.players]
    if not every or not all(some):
        return None
    return {i: min(max(o[i] for o in f)
                   for f in [every] + (some if pess(i) else []))
            for i in game.players}


def _search_slots(game, partition, query, states, slots):
    """The first profile over `slots` ((state, vertex, options) triples)
    whose closure's measures the query admits and that no player beats,
    or None.

    Core-first enumeration: assign the slots the on-profile dynamics
    actually reaches, prune whole subtrees on measure mismatch, then fill
    the remaining (deviation-only) slots.  Filling never changes the
    on-profile closure, so every full profile is checked against the
    measures of its closure.  A subtree is skipped when some player beats
    a cap even if every unassigned slot is hostile
    (`_SlotSearch.hostile_beaten`): at each filling step the cap is
    their measure, and before each branching of the closure it bounds
    every measure a support admitted by the query gives them
    (`_measure_caps`).  The same check decides a full profile: with no
    slot left open, the hostile game is the MDP the profile induces, so
    a full profile that no player beats there is an XRSE."""
    return _SlotSearch(game, partition, query, states, slots).rec({})


# owner of the hostile completion's choosing nodes: no player, CHANCE or
# TERMINAL, so every threshold sweep counts it among the hostile others
_HOSTILE = object()


class _SlotSearch:
    """The enumeration of `_search_slots`.  It is an object rather than
    closures that call themselves: such a closure is a reference cycle,
    which keeps the game alive until the cyclic collector runs."""

    def __init__(self, game, partition, query, states, slots):
        self.game = game
        self.arena = game.arena
        self.partition = partition
        self.query = query
        self.states = states
        self.slots = slots
        self.slot_of = {(q, v): k for k, (q, v, _) in enumerate(slots)}
        self.init = (game.arena.init, "q0")
        self.tops = _top_thresholds(game)
        self.caps = _measure_caps(game, partition, query)

    def moves(self, q, v, choice):
        if self.arena.is_chance(v):
            q2 = choice[0][0]
            return [(w, q2) for w in self.arena.succ(v)]
        return [(w, q2) for (q2, w) in choice]

    def core_frontier(self, assign):
        """(the closure's successor map, None), or (None, the first
        unassigned slot it needs)."""
        arena = self.arena
        seen = {self.init}
        stack = [self.init]
        succ = {}
        while stack:
            s = stack.pop()
            v, q = s
            succ[s] = []
            if arena.is_terminal(v):
                continue
            k = self.slot_of[(q, v)]
            if k not in assign:
                return None, k
            succ[s] = self.moves(q, v, assign[k])
            for nxt in succ[s]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return succ, None

    def build(self, assign):
        transitions = []
        for k, choice in assign.items():
            q, v, _ = self.slots[k]
            if self.arena.is_chance(v):
                transitions.append((q, v, choice[0][0]))
            else:
                for (q2, w) in choice:
                    transitions.append((q, v, q2, w))
        return MemoryProfile(self.states, "q0", list(self.game.players),
                             transitions, name="search")

    def hostile_beaten(self, assign, caps):
        """Whether some player i beats `caps[i]` in every completion of
        `assign`: their best extreme response beats it in the game where
        a hostile player picks every unassigned slot.  A hostile node is
        never better for the deviator than one that moves at random over
        any support, and it may loop forever where a random one would
        leave, so that response bounds the player's best response in
        every completion from below (the punishment argument behind the
        adversarial values of NE outcomes).  No completion is then an
        XRSE whose measure for i is at most `caps[i]`."""
        return any(self.tops[i] > m and self.hostile_response(assign, i, m) > m
                   for i, m in caps.items())

    def hostile_response(self, assign, player, above):
        """The player's best extreme response, swept above `above`, in the
        product walked from the start: an assigned slot moves as in
        `best_extreme_response` (the player's vertices free over every
        edge into the slot's memory update, the others' at random over
        their support, chance at random).  An unassigned slot is hostile:
        with one memory state another player's vertex is a hostile node
        over every edge, the player's own is free and chance stays chance;
        with more, a hostile node first picks the memory update, then the
        vertex moves so."""
        arena = self.arena
        terminal_payoffs = self.game.payoff.terminal_payoffs
        # a node's owner is None from when it is queued until it is walked
        owner = {self.init: None}
        pay = {}
        edges = []
        stack = [self.init]

        def link(s, t):
            edges.append((s, t))
            if t not in owner:
                owner[t] = None
                stack.append(t)

        while stack:
            s = stack.pop()
            v, q = s
            o = arena.owner[v]
            if o == TERMINAL:
                owner[s] = TERMINAL
                pay[s] = terminal_payoffs[v][player]
                continue
            choice = assign.get(self.slot_of[(q, v)])
            if choice is not None:
                if o == player:
                    nexts = [(w, choice[0][0]) for w in arena.succ(v)]
                else:
                    o, nexts = CHANCE, self.moves(q, v, choice)
            else:
                if o not in (player, CHANCE):
                    o = _HOSTILE
                if len(self.states) > 1:
                    owner[s] = _HOSTILE
                    for q2 in self.states:
                        pick = (v, q, q2)
                        owner[pick] = o
                        edges.append((s, pick))
                        for w in arena.succ(v):
                            link(pick, (w, q2))
                    continue
                nexts = [(w, q) for w in arena.succ(v)]
            owner[s] = o
            for t in nexts:
                link(s, t)
        if above >= 0 and all(y <= above for y in pay.values()):
            return above  # no threshold to sweep, so no graph to build
        return zs.extreme_threshold_sweep(
            IndexedGraph(owner, edges), owner, pay,
            self.partition.is_pessimist(player), player, [self.init],
            above=above)[self.init]

    def rec(self, assign):
        succ, need = self.core_frontier(assign)
        if need is not None:
            if self.hostile_beaten(assign, self.caps):
                return None
            for choice in self.slots[need][2]:
                assign[need] = choice
                res = self.rec(assign)
                if res is not None:
                    return res
                del assign[need]
            return None
        arena = self.arena
        measures = _extremes(self.game, self.partition, *_support(
            succ, self.init,
            {s: s[0] for s in succ if arena.is_terminal(s[0])}))
        if not self.query.admits(measures):
            return None
        rest = [k for k in range(len(self.slots)) if k not in assign]
        return self.fill(assign, rest, 0, measures)

    def fill(self, assign, rest, pos, measures):
        if self.hostile_beaten(assign, measures):
            return None
        if pos == len(rest):
            return self.build(assign)
        k = rest[pos]
        for choice in self.slots[k][2]:
            assign[k] = choice
            res = self.fill(assign, rest, pos + 1, measures)
            if res is not None:
                return res
            del assign[k]
        return None


# ---------------------------------------------------------------------------
# stationary entropic-risk equilibria


def modified_reward(params, player, x):
    """Expectation-equivalent transform of a terminal payoff for the
    entropic-risk NE reduction: order-preserving and 0 at 0."""
    rho = params.rho.get(player, Fraction(0))
    if rho == 0:
        return x
    import mpmath
    with mpmath.workprec(params.precision):
        lnb = params.ln_base()
        val = mpmath.exp(-_mpf(rho) * _mpf(x) * lnb)
        if rho > 0:
            return 1 - val
        return val - 1


def verify_erse_stationary(game, params, profile, tol=None):
    """Stationary ERSE check: replace terminal payoffs by the modified
    rewards, then an expectation-NE check: exact for a player whose rho
    is 0 (the gain is a Fraction), within `tol` (1e-9) for the others."""
    if game.mode != "terminal":
        raise GameError("terminal mode required")
    if len(profile.states) != 1:
        raise GameError("profile must be stationary")
    import mpmath
    if tol is None:
        tol = mpmath.mpf(10) ** (-9)

    def transform(player, x):
        return modified_reward(params, player, x)

    with mpmath.workprec(params.precision):
        return _verify_ne_expectation(game, profile, transform, tol)
