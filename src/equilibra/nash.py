"""Nash equilibrium outcomes and constrained existence, plus NE
verification for finite-memory profiles (energy and generic modes).

NE outcomes are exactly the plays consistent with the first negotiation
iterate, whose value at v is the adversarial value of v's controller.
"""

import itertools
from fractions import Fraction

from .rationals import PINF, NINF
from .games import GameError, Lasso, eval_lasso, payoff_vector
from . import zerosum as zs
from ._kernels import reach, scc_of
from .negotiation import is_lambda_consistent, _mp_structure


class Query:
    """Lower/upper payoff thresholds per player; missing = ineffective."""

    def __init__(self, lower=None, upper=None):
        self.lower = dict(lower or {})
        self.upper = dict(upper or {})

    def lo(self, player):
        return self.lower.get(player, NINF)

    def hi(self, player):
        return self.upper.get(player, PINF)

    def admits(self, payoffs):
        return all(self.lo(p) <= x and x <= self.hi(p)
                   for p, x in payoffs.items())


def val_requirement(game):
    """First negotiation iterate: each vertex demands its controller's
    adversarial value."""
    if game.mode == "parity":
        vals = {p: zs.parity_value(game, p) for p in game.players}
    elif game.mode == "mean-payoff":
        shared = _mp_structure(game)
        vals = {p: shared.values(p) for p in game.players}
    else:
        raise GameError(f"adversarial values unsupported in {game.mode}")
    return {v: vals[game.arena.owner[v]][v] for v in game.arena.vertices}


def ne_outcome_check(game, lasso):
    """True iff the lasso is an NE outcome (consistency with the
    adversarial-value requirement)."""
    if game.mode not in ("parity", "mean-payoff"):
        raise GameError(f"ne_outcome_check unsupported in {game.mode}")
    return is_lambda_consistent(game, val_requirement(game), lasso)


# ---------------------------------------------------------------------------
# consistent-play searches (shared with the SPE layer)


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


def _cycle_through(K, inner, targets):
    """Closed walk inside a strongly connected set visiting all targets."""
    order = sorted(set(targets))
    if not order:
        order = [min(K)]
    walk = [order[0]]
    for nxt in order[1:] + [order[0]]:
        seg = _bfs_path_graph(inner, walk[-1], nxt)
        if seg is None:
            return None
        if len(seg) == 1:
            # same vertex: need an actual cycle step if it is the only target
            continue
        walk.extend(seg[1:])
    if len(walk) == 1:
        u = walk[0]
        if u in inner[u]:
            return [u]
        seg = None
        for w in sorted(inner[u]):
            back = _bfs_path_graph(inner, w, u)
            if back is not None:
                return [u] + back[:-1]
        return None
    return walk[:-1]


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


def _bfs_path(arena, src, dst, allow):
    succ = {u: [w for w in arena.succ(u) if allow(w)]
            for u in arena.vertices if allow(u)}
    if not allow(src):
        return None
    return _bfs_path_graph(succ, src, dst)


def search_consistent_combo(game, lam, query):
    """Mean-payoff: a lambda-consistent play within thresholds via cycle
    combinations (W strongly connected, W' the visited superset).

    Returns None or a dict with W, Wp, per-player combos, payoffs, and a
    witness lasso when a single cycle realizes the payoff for everyone.
    """
    arena = game.arena
    players = list(game.players)
    v0 = arena.init
    shared = _mp_structure(game)
    for W0 in shared.sc_subsets:
        if any(lam[u] == PINF for u in W0):
            continue
        cycles = shared.scyc[W0]
        for path in _paths_into(arena, v0, W0):
            Wp = W0 | set(path)
            if any(lam[u] == PINF for u in Wp):
                continue
            lo = {}
            bad = False
            for p in players:
                floor = query.lo(p)
                for u in Wp:
                    if arena.owner[u] == p and lam[u] != NINF:
                        if lam[u] > floor:
                            floor = lam[u]
                if floor == PINF:
                    bad = True
                    break
                lo[p] = floor
            if bad:
                continue
            found = _combo_feasible(game, cycles, lo,
                                    {p: query.hi(p) for p in players})
            if found is None:
                continue
            combos, payoffs = found
            lasso = _combo_lasso(game, arena, v0, path, W0, cycles, combos,
                                 payoffs)
            return {"W": sorted(W0), "Wp": sorted(Wp), "alpha": combos,
                    "payoffs": payoffs, "lasso": lasso}
    return None


def _paths_into(arena, v0, W0):
    """Simple paths from v0 whose last vertex is the first inside W0."""
    if v0 in W0:
        yield (v0,)
        return
    out = []

    def dfs(path):
        for w in sorted(arena.succ(path[-1])):
            if w in W0:
                out.append(tuple(path) + (w,))
            elif w not in path and w not in W0 and len(path) < len(
                    arena.vertices):
                path.append(w)
                dfs(path)
                path.pop()

    dfs([v0])
    yield from out


def _combo_feasible(game, cycles, lo, hi):
    """Feasibility of lo <= (min_j sum alpha_jc mp_i(c))_i <= hi over the
    cycle set; tries a shared combination first, then the general min-form
    with an argmin assignment per bounded dimension."""
    players = list(game.players)

    def mp(c, p):
        return zs.cycle_mean(c, lambda u, v: game.payoff.reward(p, u, v))

    n = len(cycles)
    a_eq = [[Fraction(1)] * n]
    b_eq = [Fraction(1)]
    a_ge = []
    b_ge = []
    for p in players:
        if lo[p] != NINF:
            a_ge.append([mp(c, p) for c in cycles])
            b_ge.append(lo[p])
        if hi[p] != PINF:
            a_ge.append([-mp(c, p) for c in cycles])
            b_ge.append(-hi[p])
    from .simplex import lp_feasible
    feas, alpha = lp_feasible(a_eq, b_eq, a_ge, b_ge, nvar=n)
    if feas:
        combos = {p: {i: a for i, a in enumerate(alpha) if a != 0}
                  for p in players}
        pay = {p: sum(a * mp(cycles[i], p) for i, a in combos[p].items())
               for p in players}
        return _combo_out(cycles, combos), pay
    # general min-form: one distribution per player
    bounded = [p for p in players if hi[p] != PINF]
    for assign in itertools.product(range(len(players)), repeat=len(bounded)):
        nv = n * len(players)
        a_eq2 = []
        b_eq2 = []
        for k in range(len(players)):
            row = [Fraction(0)] * nv
            for i in range(n):
                row[k * n + i] = Fraction(1)
            a_eq2.append(row)
            b_eq2.append(Fraction(1))
        a_ge2 = []
        b_ge2 = []
        for p in players:
            if lo[p] == NINF:
                continue
            for k in range(len(players)):
                row = [Fraction(0)] * nv
                for i in range(n):
                    row[k * n + i] = mp(cycles[i], p)
                a_ge2.append(row)
                b_ge2.append(lo[p])
        for bi, p in enumerate(bounded):
            k = assign[bi]
            row = [Fraction(0)] * nv
            for i in range(n):
                row[k * n + i] = -mp(cycles[i], p)
            a_ge2.append(row)
            b_ge2.append(-hi[p])
        feas, sol = lp_feasible(a_eq2, b_eq2, a_ge2, b_ge2, nvar=nv)
        if feas:
            combos = {}
            for k, p in enumerate(players):
                combos[p] = {i: sol[k * n + i] for i in range(n)
                             if sol[k * n + i] != 0}
            pay = {}
            for p in players:
                pay[p] = min(sum(a * mp(cycles[i], p)
                                 for i, a in combos[j].items())
                             for j in players)
            return _combo_out(cycles, combos), pay
    return None


def _combo_out(cycles, combos):
    from .games import cycle_id
    return {p: {cycle_id(cycles[i]): a for i, a in cmb.items()}
            for p, cmb in combos.items()}


def _combo_lasso(game, arena, v0, path, W0, cycles, combos, payoffs):
    """A concrete lasso when a single cycle realizes the payoff vector."""
    from .games import cycle_id
    for c in cycles:
        cid = cycle_id(c)
        if all(len(cmb) == 1 and cid in cmb for cmb in combos.values()):
            inner = {u: [w for w in arena.succ(u) if w in W0] for u in W0}
            seg = _bfs_path_graph(inner, path[-1], c[0])
            if seg is None:
                continue
            full = list(path) + seg[1:]
            return Lasso(full[:-1], list(c))
    return None


# ---------------------------------------------------------------------------
# constrained existence of NEs


def ne_constrained_exists(game, query):
    """Search an NE outcome within thresholds.  Exact at desk scale: parity
    via payoff-vector/color-tuple search, mean-payoff via combo LPs.

    Returns dict answer yes/no with a witness lasso or combination.
    """
    if game.mode == "parity":
        lam = val_requirement(game)
        lasso = search_consistent_parity(game, lam, query)
        if lasso is None:
            return {"answer": "no"}
        return {"answer": "yes", "lasso": lasso,
                "payoffs": payoff_vector(game, lasso)}
    if game.mode == "mean-payoff":
        lam = val_requirement(game)
        found = search_consistent_combo(game, lam, query)
        if found is None:
            return {"answer": "no"}
        out = {"answer": "yes", "combination": found}
        if found.get("lasso") is not None:
            out["lasso"] = found["lasso"]
        return out
    raise GameError(f"ne_constrained_exists unsupported in {game.mode}")


# ---------------------------------------------------------------------------
# finite-memory NE verification


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
    best = zs.karp_max_mean(len(order), edges)
    return best


def _verify_ne_expectation(game, profile, transform=None, tol=None):
    """Expectation-NE in terminal mode: exact hit probabilities; terminal
    payoffs optionally transformed (used by the entropic-risk check)."""
    from .games import induced_chain, chain_hit_probabilities
    chain = induced_chain(game, profile)
    probs, _ = chain_hit_probabilities(chain)

    def value_of(dist, player):
        return sum((dist[t] * _pay(game, t, player, transform)
                    for t in dist), _zero(transform))

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


def _zero(transform):
    return Fraction(0)


def _best_expectation(game, profile, i, transform=None):
    """Best expected value for i against the profile: positional policies
    in the finite product MDP, chains solved exactly."""
    from .games import Chain, chain_hit_probabilities
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
    from .games import Chain, chain_hit_probabilities
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
               _zero(transform))
