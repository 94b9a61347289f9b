"""The arena x memory product walks and the best responses read from
them, as they were before `games.profile_product` became the one walker:
`stochastic._profile_mdp` built a validated terminal-mode `Game` per free
player, `nash._product_states` walked the product a second time, and
`nash._policy_value` walked it again per policy, and `games.induced_chain`
and `nash.profile_outcome` had walks of their own.  Kept as the reference
the differential tests in `tests/test_profile_product.py` compare the
walker's readers against, and as the MDP builder of the brute-force XRSE
oracle in `tests/test_stochastic.py`.  Only the imports are adapted, and
`RiskPartition.as_pair()`, since deleted, is spelt out inline as the
(pessimists, optimists) pair of sets it returned."""

import itertools
from fractions import Fraction

from equilibra.games import (GameError, Arena, PayoffSpec, Game, Chain,
                             Lasso, eval_lasso, chain_hit_probabilities)
from equilibra.zerosum import attractor
from equilibra._kernels import reach, scc_of
from equilibra import zerosum as zs

from xrse_support_reference import almost_sure_reach_game, extreme_measure
from mp_values_reference import on_fractions


def induced_chain(game, profile):
    """Markov chain of a profile covering every controlled vertex.

    Requires deterministic reads at non-owned (chance) vertices; weights on
    co-enabled owned transitions, uniform by default.
    """
    arena = game.arena
    if game.mode != "terminal":
        raise GameError("induced_chain needs terminal mode")
    profile.validate(arena)
    controlled = [v for v in arena.vertices
                  if not arena.is_chance(v) and not arena.is_terminal(v)]
    uncovered = [v for v in controlled if arena.owner[v] not in profile.owners]
    if uncovered:
        raise GameError(f"uncovered controlled vertex {uncovered[0]}")
    start = (arena.init, profile.initial)
    states = [start]
    index = {start: 0}
    trans = []
    terminal_of = {}
    todo = [start]
    while todo:
        node = todo.pop()
        i = index[node]
        while len(trans) <= i:
            trans.append([])
        v, q = node
        if arena.is_terminal(v):
            terminal_of[i] = v
            continue
        moves = []
        if arena.is_chance(v):
            reads = profile.enabled(q, v)
            if len(reads) != 1:
                raise GameError(f"nondeterministic read at ({q},{v})")
            q2 = reads[0][2]
            for w in arena.succ(v):
                moves.append(((w, q2), arena.chance_prob[(v, w)]))
        else:
            group = profile.enabled(q, v)
            if len({t[2] for t in group}) != 1:
                raise GameError(f"memory update at ({q},{v}) must not "
                                "depend on the private roll")
            for t in group:
                if len(t) != 4:
                    raise GameError(f"missing output at ({q},{v})")
                moves.append(((t[3], t[2]), profile.weight(t)))
        total = sum(p for _, p in moves)
        if total != 1:
            raise GameError(f"outgoing weights at {node} sum to {total}")
        for nxt, p in moves:
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                todo.append(nxt)
            trans[i].append((index[nxt], p))
    while len(trans) < len(states):
        trans.append([])
    merged = []
    for row in trans:
        acc = {}
        for j, p in row:
            acc[j] = acc.get(j, Fraction(0)) + p
        merged.append(sorted(acc.items()))
    return Chain(states, merged, 0, terminal_of)


def profile_outcome(game, profile):
    """Outcome lasso of a deterministic full profile (no chance)."""
    arena = game.arena
    if not profile.is_deterministic():
        raise GameError("profile must be deterministic")
    node = (arena.init, profile.initial)
    seen = {node: 0}
    seq = [node]
    while True:
        v, q = node
        ts = profile.enabled(q, v)
        t = ts[0]
        if len(t) != 4:
            raise GameError(f"no output for controlled vertex {v}")
        node = (t[3], t[2])
        if node in seen:
            k = seen[node]
            prefix = [x[0] for x in seq[:k]]
            cycle = [x[0] for x in seq[k:]]
            return Lasso(prefix, cycle)
        seen[node] = len(seq)
        seq.append(node)


def extreme_threshold_sweep(game, partition, player, v):
    """The best extreme risk `player` can secure from `v` (any vertex,
    chance included) against hostile others.

    Decided by a threshold sweep over {0} + terminal payoffs; each
    threshold is an almost-sure or positive-probability reachability game.
    """
    arena = game.arena
    pess, _ = partition
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


def _profile_mdp(game, profile, free_player):
    """Product of the game with the profile's memory, free_player's
    vertices kept free, every other choice random.  Returns a derived
    terminal-mode Game whose only player is free_player."""
    arena = game.arena
    nodes = set()
    owner = {}
    edges = []
    probs = {}
    terminal_pay = {}
    start = (arena.init, profile.initial)

    def name(node):
        return "|".join(node)

    todo = [start]
    nodes.add(start)
    while todo:
        node = todo.pop()
        v, q = node
        if arena.is_terminal(v):
            owner[name(node)] = "terminal"
            terminal_pay[name(node)] = {
                free_player: game.payoff.terminal_payoffs[v][free_player]}
            continue
        if arena.owner[v] == free_player:
            owner[name(node)] = free_player
            q2 = _read_next(profile, q, v)
            for w in sorted(arena.succ(v)):
                nxt = (w, q2)
                edges.append((name(node), name(nxt)))
                if nxt not in nodes:
                    nodes.add(nxt)
                    todo.append(nxt)
        else:
            owner[name(node)] = "chance"
            if arena.is_chance(v):
                moves = [((w, _read_next(profile, q, v)),
                          arena.chance_prob[(v, w)])
                         for w in sorted(arena.succ(v))]
            else:
                group = profile.enabled(q, v)
                moves = [((t[3], t[2]), profile.weight(t)) for t in group]
            acc = {}
            for nxt, pr in moves:
                acc[nxt] = acc.get(nxt, Fraction(0)) + pr
            for nxt, pr in sorted(acc.items()):
                edges.append((name(node), name(nxt)))
                probs[(name(node), name(nxt))] = pr
                if nxt not in nodes:
                    nodes.add(nxt)
                    todo.append(nxt)
    ordered = [name(start)] + sorted(set(owner) - {name(start)})
    derived_arena = Arena([free_player], ordered, owner, sorted(set(edges)),
                          probs, name(start))
    payoff = PayoffSpec("terminal", terminal_payoffs=terminal_pay)
    return Game(derived_arena, payoff)


def _read_next(profile, q, v):
    reads = profile.enabled(q, v)
    nexts = sorted({t[2] for t in reads})
    if len(nexts) != 1:
        raise GameError(f"nondeterministic memory update at ({q},{v})")
    return nexts[0]


def best_extreme_response(game, partition, profile, player):
    """Best extreme risk the player can get against the rest of the
    profile (threshold sweep on the induced MDP)."""
    mdp = _profile_mdp(game, profile, player)
    pair = (set(partition.pessimists), set(partition.optimists))
    return extreme_threshold_sweep(mdp, pair, player, mdp.arena.init)


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


def _product_states(game, profile, free_player):
    """Product of arena and profile memory where `free_player` ignores the
    prescribed outputs (reads still advance the memory)."""
    arena = game.arena
    nodes = set()
    succ = {}
    todo = [(arena.init, profile.initial)]
    nodes.add(todo[0])
    while todo:
        node = todo.pop()
        v, q = node
        outs = []
        if arena.is_terminal(v):
            succ[node] = []
            continue
        ts = profile.enabled(q, v)
        nexts = {t[2] for t in ts}
        if len(nexts) != 1:
            raise GameError(f"nondeterministic memory update at ({q},{v})")
        q2 = next(iter(nexts))
        if arena.owner[v] == free_player or arena.is_chance(v):
            for w in sorted(arena.succ(v)):
                outs.append((w, q2))
        else:
            for t in ts:
                if len(t) != 4:
                    raise GameError(f"no output at ({q},{v})")
                outs.append((t[3], t[2]))
        succ[node] = sorted(set(outs))
        for x in succ[node]:
            if x not in nodes:
                nodes.add(x)
                todo.append(x)
    return nodes, succ


def _energy_feasible(game, player, nodes, succ, start):
    """One-player energy feasibility: a play with the running sum never
    negative exists iff the credit-saturated graph has a reachable cycle."""
    rewards = {}
    cap = Fraction(0)
    for (v, q) in nodes:
        for (w, q2) in succ[(v, q)]:
            r = game.payoff.reward(player, v, w)
            rewards[((v, q), (w, q2))] = r
            if abs(r) > cap:
                cap = abs(r)
    bound = cap * (len(nodes) + 1) + 1
    seen = {(start, Fraction(0))}
    stack = [(start, Fraction(0))]
    while stack:
        node, e = stack.pop()
        for nxt in succ[node]:
            e2 = e + rewards[(node, nxt)]
            if e2 < 0:
                continue
            if e2 > bound:
                e2 = bound
            state = (nxt, e2)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    # cycle detection over the saturated state graph
    graph = {}
    for (node, e) in seen:
        outs = []
        for nxt in succ[node]:
            e2 = e + rewards[(node, nxt)]
            if e2 < 0:
                continue
            if e2 > bound:
                e2 = bound
            if (nxt, e2) in seen:
                outs.append((nxt, e2))
        graph[(node, e)] = outs
    order = sorted(graph, key=str)
    comp, _ = scc_of(order, [(s, t) for s in order for t in graph[s]])
    sizes = {}
    for s in order:
        sizes[comp[s]] = sizes.get(comp[s], 0) + 1
    for s in order:
        c = comp[s]
        if sizes[c] > 1 or s in graph[s]:
            return True
    return False


def verify_ne_energy(game, profile):
    """NE check for a deterministic profile in an energy game: no loser may
    win the one-player product game."""
    if game.mode != "energy":
        raise GameError("verify_ne_energy needs energy mode")
    profile.validate(game.arena)
    outcome = profile_outcome(game, profile)
    for i in game.players:
        if eval_lasso(game, outcome, i) == 1:
            continue
        nodes, succ = _product_states(game, profile, i)
        start = (game.arena.init, profile.initial)
        if _energy_feasible(game, i, nodes, succ, start):
            return False
    return True


def verify_ne_generic(game, profile):
    """Uniform best-response check in the product of game and profile
    memory; expectation semantics in terminal mode."""
    profile.validate(game.arena)
    if game.mode == "discounted-sum":
        raise GameError("best response unsupported in discounted-sum mode")
    if game.mode == "terminal":
        return _verify_ne_expectation(game, profile)
    outcome = profile_outcome(game, profile)
    start = (game.arena.init, profile.initial)
    for i in game.players:
        mine = eval_lasso(game, outcome, i)
        nodes, succ = _product_states(game, profile, i)
        if game.mode == "parity":
            best = _best_parity(game, i, nodes, succ, start)
        elif game.mode == "mean-payoff":
            best = _best_mp(game, i, nodes, succ, start)
        else:
            best = Fraction(1) if _energy_feasible(game, i, nodes, succ,
                                                   start) else Fraction(0)
        if best > mine:
            return False
    return True


def _best_parity(game, i, nodes, succ, start):
    order = sorted(nodes, key=str)
    colors = sorted({game.payoff.color(i, v) for (v, q) in nodes})
    seen = reach(succ, [start])
    for e in sorted((c for c in colors if c % 2 == 0)):
        keep = [s for s in order if game.payoff.color(i, s[0]) >= e
                and s in seen]
        kset = set(keep)
        inner = {s: [t for t in succ[s] if t in kset] for s in keep}
        comp, _ = scc_of(keep, [(s, t) for s in keep for t in inner[s]])
        sizes = {}
        for s in keep:
            sizes[comp[s]] = sizes.get(comp[s], 0) + 1
        for s in keep:
            if game.payoff.color(i, s[0]) != e:
                continue
            c = comp[s]
            if sizes[c] > 1 or s in inner[s]:
                return Fraction(1)
    return Fraction(0)


def _best_mp(game, i, nodes, succ, start):
    order = sorted(reach(succ, [start]), key=str)
    idx = {s: k for k, s in enumerate(order)}
    edges = []
    for s in order:
        for t in succ[s]:
            if t in idx:
                edges.append((idx[s], idx[t],
                              game.payoff.reward(i, s[0], t[0])))
    return on_fractions(zs.karp_max_mean, len(order), edges)


def _verify_ne_expectation(game, profile, transform=None, tol=None):
    """Expectation-NE in terminal mode: exact hit probabilities; terminal
    payoffs optionally transformed (used by the entropic-risk check)."""
    chain = induced_chain(game, profile)
    probs, _ = chain_hit_probabilities(chain)

    def value_of(dist, player):
        return sum((dist[t] * _pay(game, t, player, transform)
                    for t in dist), Fraction(0))

    for i in game.players:
        mine = value_of(probs, i)
        best = _best_expectation(game, profile, i, transform)
        gap = best - mine
        if tol is None:
            if gap > 0:
                return False
        else:
            if isinstance(gap, Fraction):
                import mpmath
                gap = mpmath.mpf(gap.numerator) / mpmath.mpf(gap.denominator)
            if gap > tol:
                return False
    return True


def _pay(game, t, player, transform):
    x = game.payoff.terminal_payoffs[t][player]
    if transform is None:
        return x
    return transform(player, x)


def _best_expectation(game, profile, i, transform=None):
    """Best expected value for i against the profile: positional policies
    in the finite product MDP, chains solved exactly."""
    arena = game.arena
    nodes, succ = _product_states(game, profile, i)
    start = (arena.init, profile.initial)
    mine = sorted([s for s in nodes if arena.owner[s[0]] == i
                   and not arena.is_terminal(s[0])], key=str)
    choice_lists = [succ[s] for s in mine]
    best = None
    for combo in itertools.product(*choice_lists) if mine else [()]:
        fixed = dict(zip(mine, combo))
        val = _policy_value(game, profile, succ, start, fixed, i, transform)
        if best is None or val > best:
            best = val
    return best


def _policy_value(game, profile, succ, start, fixed, i, transform):
    arena = game.arena
    states = [start]
    index = {start: 0}
    trans = []
    terminal_of = {}
    todo = [start]
    while todo:
        node = todo.pop()
        k = index[node]
        while len(trans) <= k:
            trans.append([])
        v, q = node
        if arena.is_terminal(v):
            terminal_of[k] = v
            continue
        if node in fixed:
            moves = [(fixed[node], Fraction(1))]
        elif arena.is_chance(v):
            moves = []
            for t in succ[node]:
                moves.append((t, arena.chance_prob[(v, t[0])]))
        elif arena.owner[v] == i:
            moves = [(succ[node][0], Fraction(1))]
        else:
            group = profile.enabled(q, v)
            moves = [((t[3], t[2]), profile.weight(t)) for t in group]
        acc = {}
        for nxt, p in moves:
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                todo.append(nxt)
            acc[index[nxt]] = acc.get(index[nxt], Fraction(0)) + p
        trans[k] = sorted(acc.items())
    while len(trans) < len(states):
        trans.append([])
    chain = Chain(states, trans, 0, terminal_of)
    probs, _ = chain_hit_probabilities(chain)
    return sum((probs[t] * _pay(game, t, i, transform) for t in probs),
               Fraction(0))
