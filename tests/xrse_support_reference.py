"""The XRSE support computations as they were before `stochastic._support`
and `stochastic._extremes` became the one support walk and measure fold
and `zerosum._value_one` the one almost-sure loop: `chain_support`,
`_support_measures`, the per-pessimist fold of `xrse_exists`, `measures()`
of `xrse_constrained_optimists`, and `_search_slots`, which verified every
candidate through `verify_xrse` and `induced_chain`; `_almost_sure`
rebuilt its graph on every round.  Kept as the reference the differential
tests in `tests/test_xrse_support.py` compare against, and as the
almost-sure step of `tests/profile_product_reference.py`.  With them are
`stochastic._sure_avoid_region` and `_refinement_edge` as they were on
vertex names, so that no part of the reference runs the algorithms it
checks.  The function bodies are verbatim; only the imports are adapted,
`zs` names the old zerosum functions (the name-keyed ones from
`tests/named_graph_reference.py`) next to the unchanged ones,
`RiskPartition.as_pair()`, since deleted, is spelt out inline as the
(pessimists, optimists) pair of sets it returned, and `_almost_sure` hands
`_kernels.attractor` its whole sub-game as the bitmask that kernel now
takes."""

import itertools
import types
from fractions import Fraction

from equilibra.rationals import PINF
from equilibra.games import (GameError, MemoryProfile, Arena, CHANCE,
                             TERMINAL, induced_chain, profile_product)
from equilibra.stochastic import RiskPartition
from equilibra import _kernels as K
from equilibra._kernels import reach
import named_graph_reference as _named
from named_graph_reference import attractor


# ---------------------------------------------------------------------------
# zerosum


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
        full = (1 << g.n) - 1
        coal = g.mask([v for v in nodes if arena.owner[v] not in adversaries])
        pos = g.unmask(K.attractor(g.n, g.off, g.dst, g.poff, g.psrc,
                                   coal, g.mask(target), full))
        zero = alive - pos
        if not zero:
            return alive | target
        coal2 = g.mask([v for v in nodes if arena.owner[v] not in protags])
        bad = g.unmask(K.attractor(g.n, g.off, g.dst, g.poff, g.psrc,
                                   coal2, g.mask(zero), full))
        alive -= bad
        if not alive:
            return set(target)


def extreme_adversarial_value(game, partition, v):
    """inf over hostile profiles of sup over i's strategies of the extreme
    risk measure of i's payoff, where i controls v."""
    arena = game.arena
    if game.mode != "terminal":
        raise GameError("extreme values need terminal mode")
    if arena.is_chance(v) or arena.is_terminal(v):
        raise GameError(f"{v} is chance or terminal")
    player = arena.owner[v]
    pess, _ = partition
    pay = {t: game.payoff.terminal_payoffs[t][player]
           for t in game.terminals()}
    return extreme_threshold_sweep(arena, pay, player in pess, player, v)


def extreme_threshold_sweep(arena, pay, is_pess, player, v):
    """The best extreme risk `player` can secure from `v` (any vertex,
    chance included) against hostile others: the least payoff in the
    support of the outcome when `is_pess`, else the greatest.

    `pay` maps each terminal of `arena` to the player's payoff.  Extreme
    measures depend on supports only, so the arena is read for its graph
    and owners and needs neither probabilities nor validation.  Decided by
    a threshold sweep over {0} + terminal payoffs; each threshold is an
    almost-sure or positive-probability reachability game.
    """
    candidates = sorted({Fraction(0)} | set(pay.values()), reverse=True)
    others = [p for p in arena.players if p != player]
    for x in candidates:
        good = {t for t, y in pay.items() if y >= x}
        bad = {t for t, y in pay.items() if y < x}
        if is_pess:
            if x > 0:
                ok = v in almost_sure_reach_game(arena, {player}, set(others),
                                                 good)
            else:
                # P(bad) = 0: surely avoid bad, chance universal
                reach_bad = attractor(arena, set(others) | {"chance"}, bad)
                ok = v not in reach_bad
        else:
            if x > 0:
                ok = v in attractor(arena, {player, "chance"}, good)
            else:
                # some outcome >= x possible: adversaries would need to
                # force almost-sure absorption in bad terminals
                forced = almost_sure_reach_game(arena, set(others), {player},
                                                bad)
                ok = v not in forced
        if ok:
            return x
    return candidates[-1]



zs = types.SimpleNamespace(
    attractor=_named.attractor, reachable_from=_named.reachable_from,
    positive_prob_attractor=_named.positive_prob_attractor,
    almost_sure_reach_mdp=almost_sure_reach_mdp,
    almost_sure_reach_game=almost_sure_reach_game,
    extreme_adversarial_value=extreme_adversarial_value,
    extreme_threshold_sweep=extreme_threshold_sweep)


# ---------------------------------------------------------------------------
# stochastic


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


def _adversarial_values(game, partition):
    out = {}
    for v in game.arena.vertices:
        if game.arena.is_chance(v) or game.arena.is_terminal(v):
            continue
        out[v] = zs.extreme_adversarial_value(
            game, (set(partition.pessimists), set(partition.optimists)), v)
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
