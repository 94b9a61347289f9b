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
from .games import (GameError, MemoryProfile, Arena, CHANCE, TERMINAL,
                    induced_chain, chain_hit_probabilities, profile_product)
from . import zerosum as zs
from ._kernels import reach
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

    def as_pair(self):
        return (set(self.pessimists), set(self.optimists))


class EntropicParams:
    """Base beta > 1 (exact rational or Euler's number) and per-player risk
    parameters; precision is the working significand in bits."""

    def __init__(self, base, rho, precision=113):
        if base != "e" and not (isinstance(base, Fraction) and base > 1):
            raise GameError("base must be a rational > 1 or 'e'")
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


def chain_support(game, profile):
    """Per-player support of the payoff distribution: payoffs of terminals
    hit with positive probability, plus 0 when some reachable bottom SCC
    carries no terminal."""
    chain = induced_chain(game, profile)
    succ = [[j for j, _ in out] for out in chain.trans]
    pred = [[] for _ in chain.trans]
    for k, outs in enumerate(succ):
        for j in outs:
            pred[j].append(k)
    reached = reach(succ, [chain.init])
    terms = {chain.terminal_of[k] for k in reached if k in chain.terminal_of}
    # non-termination: a reachable state from which no terminal is reachable
    ends = reach(pred, list(chain.terminal_of))
    nonterm = any(k not in ends for k in reached)
    supports = {}
    for p in game.players:
        vals = {game.payoff.terminal_payoffs[t][p] for t in terms}
        if nonterm:
            vals.add(Fraction(0))
        supports[p] = vals
    return supports


def extreme_measure(game, partition, profile):
    """Pessimistic (min support) or optimistic (max support) risk measure
    of each player's payoff under the profile."""
    if game.mode != "terminal":
        raise GameError("extreme measures need terminal mode")
    supports = chain_support(game, profile)
    out = {}
    for p in game.players:
        vals = supports[p]
        out[p] = min(vals) if partition.is_pessimist(p) else max(vals)
    return out


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
    mdp = Arena([player], product, owner, edges, init=start)
    return zs.extreme_threshold_sweep(mdp, pay, partition.is_pessimist(player),
                                      player, start)


def verify_xrse(game, partition, profile):
    """XRSE check: no player can beat their extreme measure in the MDP
    induced by the others' part of the profile."""
    if game.mode != "terminal":
        raise GameError("verify_xrse needs terminal mode")
    measures = extreme_measure(game, partition, profile)
    for i in game.players:
        best = best_extreme_response(game, partition, profile, i)
        if best > measures[i]:
            return False
    return True


def uniform_profile(game, edge_set, name="uniform"):
    """Stationary profile randomizing uniformly over the edge set at every
    controlled vertex."""
    arena = game.arena
    transitions = []
    fset = set(edge_set)
    for v in arena.vertices:
        if arena.is_terminal(v):
            continue
        if arena.is_chance(v):
            transitions.append(("q0", v, "q0"))
        else:
            outs = [w for w in sorted(arena.succ(v)) if (v, w) in fset]
            if not outs:
                raise GameError(f"edge set starves vertex {v}")
            for w in outs:
                transitions.append(("q0", v, "q0", w))
    return MemoryProfile(["q0"], "q0", list(game.players), transitions,
                         name=name)


# ---------------------------------------------------------------------------
# Algorithm 1: exhibition of a stationary XRSE (nonnegative payoffs)


def _support_measures(game, edges, mode):
    """Support of the uniform profile over an edge set, from init:
    reachable terminal payoffs plus 0 when non-termination has positive
    probability.  mode picks the non-termination criterion: "chain" for
    fully randomizing profiles, "positional" for first-visit commitment,
    "averse" for per-visit re-randomization (same as chain)."""
    arena = game.arena
    reached = zs.reachable_from(arena, [arena.init], edges)
    terms = {t for t in game.terminals() if t in reached}
    if mode in ("chain", "averse"):
        pred = {v: [] for v in arena.vertices}
        for u, w in edges:
            pred[w].append(u)
        nonterm = bool(reached - reach(pred, game.terminals()))
    else:
        # a positional sample can trap the play in a terminal-free region:
        # players pick single edges, chance keeps all its branches
        avoid = _sure_avoid_region(game, edges)
        nonterm = bool(avoid & reached)
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
    ok = zs.almost_sure_reach_mdp(arena, player, good & safe, sub_edges)
    return {v for v in ok if v in safe}


def xrse_exists(game, partition):
    """Algorithm: iteratively remove the edges that let provably deviating
    pessimists reach their almost-sure-improvement region; the surviving
    uniform support profile is a stationary XRSE. Nonnegative payoffs."""
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
        zs_k = {}
        Ws = {}
        terms, nonterm = _support_measures(game, edges, "chain")
        for i in pessimists:
            vals = {game.payoff.terminal_payoffs[t][i] for t in terms}
            if nonterm:
                vals.add(Fraction(0))
            zi = min(vals)
            zs_k[i] = zi
            Ws[i] = set(arena.vertices) - _pessimist_safe_region(
                game, edges, i, zi)
        trace.append({"k": k, "edges": list(edges),
                      "z": dict(zs_k), "W": {i: sorted(Ws[i])
                                             for i in pessimists},
                      "A": sorted(acc)})
        deviator = None
        for i in pessimists:
            if arena.init not in Ws[i]:
                deviator = i
                break
        if deviator is None:
            return edges, trace
        Wi = Ws[deviator]
        removed = [(u, v) for (u, v) in edges
                   if u in (acc - Wi) and v in Wi]
        edges = [e for e in edges if e not in removed]
        k += 1


# ---------------------------------------------------------------------------
# Algorithms 2-3: all-optimist constrained existence


def _adversarial_values(game, partition):
    out = {}
    for v in game.arena.vertices:
        if game.arena.is_chance(v) or game.arena.is_terminal(v):
            continue
        out[v] = zs.extreme_adversarial_value(game, partition.as_pair(), v)
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
        mode = "positional" if not averse else "averse"
        tset, nonterm = _support_measures(game, es, mode)
        out = {}
        for p in game.players:
            vals = {game.payoff.terminal_payoffs[t][p] for t in tset}
            if nonterm:
                vals.add(Fraction(0))
            out[p] = max(vals) if vals else Fraction(0)
        return out

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
    zs_now = None
    if not averse:
        changed = True
        edges = nxt
        while changed:
            k += 1
            zs_now = measures(edges)
            vf = {v for v in val if val[v] > zs_now[arena.owner[v]]}
            att = zs.positive_prob_attractor(game, vf, edges)
            trace.append({"k": k, "edges": list(edges), "z": dict(zs_now),
                          "Vfrown": sorted(vf), "A": sorted(att)})
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
            zs_now = measures(edges)
            vf = {v for v in val if val[v] > zs_now[arena.owner[v]]}
            att = zs.positive_prob_attractor(game, vf, edges)
            trace.append({"k": k, "edges": list(edges), "z": dict(zs_now),
                          "Vfrown": sorted(vf), "A": sorted(att)})
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
    as an XRSE with measures in range wins.  Deterministic-first order."""
    if game.mode != "terminal":
        raise GameError("terminal mode required")
    arena = game.arena
    controlled = [v for v in arena.vertices
                  if not arena.is_chance(v) and not arena.is_terminal(v)]
    chance = [v for v in arena.vertices if arena.is_chance(v)]
    for nstates in range(1, memory_bound + 1):
        states = [f"q{k}" for k in range(nstates)]
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
        found = _search_slots(game, partition, query, states, slots)
        if found is not None:
            return {"answer": "yes", "profile": found,
                    "states": nstates}
    return {"answer": "none-at-cap", "memory_bound": memory_bound}


def _search_slots(game, partition, query, states, slots):
    """Core-first enumeration: assign the slots the on-profile dynamics
    actually reaches, prune whole subtrees on measure mismatch, then fill
    the remaining (deviation-only) slots with verification memoized on the
    deviation-reachable signature."""
    arena = game.arena
    slot_of = {(q, v): k for k, (q, v, _) in enumerate(slots)}
    init = (arena.init, "q0")

    def moves(q, v, choice):
        if arena.is_chance(v):
            q2 = choice[0][0]
            return [(w, q2) for w in arena.succ(v)]
        return [(w, q2) for (q2, w) in choice]

    def core_frontier(assign):
        """(closure, terminals, nonterm, next-unassigned-slot)."""
        seen = {init}
        stack = [init]
        terms = set()
        pred = {init: []}
        while stack:
            s = stack.pop()
            v, q = s
            if arena.is_terminal(v):
                terms.add(v)
                continue
            k = slot_of[(q, v)]
            if k not in assign:
                return None, None, None, k
            for nxt in moves(q, v, assign[k]):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
                    pred[nxt] = []
                pred[nxt].append(s)
        # non-termination: some closure state with no terminal below it
        ends = reach(pred, [s for s in seen if arena.is_terminal(s[0])])
        nonterm = len(ends) < len(seen)
        return seen, terms, nonterm, None

    def build(assign):
        transitions = []
        for k, choice in assign.items():
            q, v, _ = slots[k]
            if arena.is_chance(v):
                transitions.append((q, v, choice[0][0]))
            else:
                for (q2, w) in choice:
                    transitions.append((q, v, q2, w))
        return MemoryProfile(states, "q0", list(game.players), transitions,
                             name="search")

    def dev_signature(assign):
        """Transitions restricted to (state, vertex) pairs reachable when
        players may deviate anywhere; unreachable slots cannot matter."""
        seen = {init}
        stack = [init]
        while stack:
            v, q = stack.pop()
            if arena.is_terminal(v):
                continue
            choice = assign[slot_of[(q, v)]]
            if arena.is_chance(v):
                q2s = [choice[0][0]]
            else:
                q2s = sorted({q2 for (q2, _) in choice})
            for q2 in q2s:
                for w in arena.succ(v):
                    nxt = (w, q2)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        sig = []
        for (v, q) in seen:
            if arena.is_terminal(v):
                continue
            k = slot_of[(q, v)]
            sig.append((q, v, assign[k]))
        return frozenset(sig)

    verify_memo = {}

    def full_check(assign):
        sig = dev_signature(assign)
        if sig in verify_memo:
            return verify_memo[sig]
        profile = build(assign)
        ok = verify_xrse(game, partition, profile)
        verify_memo[sig] = ok
        return ok

    nslots = len(slots)

    def rec(assign):
        closure, terms, nonterm, need = core_frontier(assign)
        if need is not None:
            for choice in slots[need][2]:
                assign[need] = choice
                res = rec(assign)
                if res is not None:
                    return res
                del assign[need]
            return None
        measures = {}
        for p in game.players:
            vals = {game.payoff.terminal_payoffs[t][p] for t in terms}
            if nonterm:
                vals.add(Fraction(0))
            measures[p] = (min(vals) if partition.is_pessimist(p)
                           else max(vals))
        if not query.admits(measures):
            return None
        rest = [k for k in range(nslots) if k not in assign]
        return fill(assign, rest, 0)

    def fill(assign, rest, pos):
        if pos == len(rest):
            if full_check(assign):
                return build(assign)
            return None
        k = rest[pos]
        for choice in slots[k][2]:
            assign[k] = choice
            res = fill(assign, rest, pos + 1)
            if res is not None:
                return res
            del assign[k]
        return None

    return rec({})


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
    rewards, then an expectation-NE check with tolerance."""
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
