"""Nash equilibrium outcomes and constrained existence, plus NE
verification for finite-memory profiles (energy mode, and expectations in
terminal mode).

NE outcomes are exactly the plays consistent with the first negotiation
iterate, whose value at v is the adversarial value of v's controller.
"""

import itertools
from fractions import Fraction

from .rationals import PINF, NINF
from .games import (GameError, Lasso, eval_lasso, payoff_vector, cycle_id,
                    CHANCE, TERMINAL, profile_product, product_chain,
                    induced_chain, chain_hit_probabilities)
from ._kernels import csr, scc, simple_paths
from .negotiation import (is_lambda_consistent, parity_components,
                          val_requirement, _mp_structure)
from .simplex import lp_feasible


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
        """Every payoff within its player's thresholds; only the thresholds
        that are set are compared."""
        return (all(p not in payoffs or b <= payoffs[p]
                    for p, b in self.lower.items())
                and all(p not in payoffs or payoffs[p] <= b
                        for p, b in self.upper.items()))


def ne_outcome_check(game, lasso):
    """True iff the lasso is an NE outcome (consistency with the
    adversarial-value requirement)."""
    if game.mode not in ("parity", "mean-payoff"):
        raise GameError(f"ne_outcome_check unsupported in {game.mode}")
    return is_lambda_consistent(game, val_requirement(game), lasso)


# ---------------------------------------------------------------------------
# consistent-play searches (shared with the SPE layer)


def search_consistent_parity(game, lam, query):
    """A lambda-consistent play within thresholds, exact: the colour-tuple
    SCC search (`negotiation.parity_components`) over payoff bit-vectors
    and per-player minimal infinite colors, first component reachable from
    the initial vertex.  Returns a Lasso or None."""
    arena = game.arena
    names = arena.graph.vertices
    v0 = arena.init
    succ = {u: arena.succ(u) for u in names}
    for bits, forbidden, comps in parity_components(game, lam):
        bvec = {p: Fraction(b) for p, b in zip(game.players, bits)}
        if not query.admits(bvec) or forbidden[arena.graph.index[v0]]:
            continue
        tree = _bfs_tree(succ, v0, {v for v, f in zip(names, forbidden)
                                    if f})
        for K, witnesses in comps:
            # K is strongly connected outside `forbidden`: wholly in the tree
            K = [names[u] for u in K]
            if K[0] not in tree:
                continue
            witnesses = [names[u] for u in witnesses]
            kset = set(K)
            inner = {u: [w for w in succ[u] if w in kset] for u in K}
            cycle = _cycle_through(K, inner, witnesses)
            if cycle is None:
                continue
            return Lasso(_tree_path(tree, cycle[0])[:-1], cycle)
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
        for w in sorted(inner[u]):
            back = _bfs_path_graph(inner, w, u)
            if back is not None:
                return [u] + back[:-1]
        return None
    return walk[:-1]


def _bfs_path_graph(succ, src, dst):
    tree = _bfs_tree(succ, src)
    return _tree_path(tree, dst) if dst in tree else None


def _bfs_tree(succ, src, forbidden=()):
    """Breadth-first tree from `src` over the vertices outside `forbidden`,
    successors in sorted order: the parent of every vertex reached."""
    parent = {src: None}
    order = [src]
    for u in order:
        for w in sorted(succ[u]):
            if w not in parent and w not in forbidden:
                parent[w] = u
                order.append(w)
    return parent


def _tree_path(parent, dst):
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


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
        if any(lam[u] is PINF for u in W0):
            continue
        cycles = shared.scyc[W0]
        # simple paths from v0 whose last vertex is the first inside W0
        for path in simple_paths(arena.succ, v0, W0):
            if path[-1] not in W0:
                continue
            Wp = W0 | set(path)
            if any(lam[u] is PINF for u in Wp):
                continue
            lo = {}
            bad = False
            for p in players:
                floor = query.lo(p)
                for u in Wp:
                    x = lam[u]
                    if arena.owner[u] == p and x is not NINF:
                        if floor is NINF or x > floor:
                            floor = x
                if floor is PINF:
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


def _combo_feasible(game, cycles, lo, hi):
    """Feasibility of lo <= (min_j sum alpha_jc mp_i(c))_i <= hi over the
    cycle set: (combinations, payoffs), or None.  Tries a shared
    combination first, then the general min-form with an argmin assignment
    per bounded dimension.  No simplex runs when `_bounded_means` rules
    the bounds out.

    The min-form is one LP per player block rather than one joint LP.  The
    joint LP (one distribution per player) shares no row and no column
    between blocks, so Bland's rule pivots each block as it would alone:
    a pivot in one block changes no other block's reduced costs, ratio
    ties compare basic indices inside the block, and a leftover artificial
    is driven out inside its row's block.  A block's rows are the simplex
    row, the lower-bound rows in player order and the upper-bound rows of
    the bounded players assigned to it in `bounded` order, as in the joint
    LP, and its answer depends on that set of players alone, so each set is
    solved once.  The set of every bounded player has the shared LP's
    constraints (in another order, which does not change feasibility), so
    it is known infeasible from the start, and an assignment holding an
    infeasible block is skipped.  With fewer than two upper bounds every
    assignment holds that block, and the min-form runs no LP."""
    players = list(game.players)
    rows = _bounded_means(game, cycles, lo, hi)
    if rows is None:
        return None
    n = len(cycles)
    bounded = [p for p in players if hi[p] is not PINF]
    neg = {p: [-m for m in rows[p]] for p in bounded}
    a_eq = [[Fraction(1)] * n]
    b_eq = [Fraction(1)]
    a_ge = []
    b_ge = []
    for p in players:
        if lo[p] is not NINF:
            a_ge.append(rows[p])
            b_ge.append(lo[p])
        if hi[p] is not PINF:
            a_ge.append(neg[p])
            b_ge.append(-hi[p])
    feas, alpha = lp_feasible(a_eq, b_eq, a_ge, b_ge, nvar=n)
    if feas:
        combos = {p: {i: a for i, a in enumerate(alpha) if a != 0}
                  for p in players}
        pay = {p: sum(a * rows[p][i] for i, a in combos[p].items())
               for p in players}
        return _combo_out(cycles, combos), pay
    # general min-form, one LP per block: a block is keyed by the bounded
    # players assigned to it, in `bounded` order
    lo_rows = [rows[p] for p in players if lo[p] is not NINF]
    lo_rhs = [lo[p] for p in players if lo[p] is not NINF]
    infeasible = {tuple(bounded)}
    solved = {}
    for assign in itertools.product(range(len(players)), repeat=len(bounded)):
        held = [tuple(p for j, p in zip(assign, bounded) if j == k)
                for k in range(len(players))]
        if infeasible.intersection(held):
            continue
        for s in held:
            if s not in solved:
                feas, solved[s] = lp_feasible(
                    a_eq, b_eq, lo_rows + [neg[p] for p in s],
                    lo_rhs + [-hi[p] for p in s], nvar=n)
                if not feas:
                    infeasible.add(s)
                    break
        else:
            combos = {p: {i: a for i, a in enumerate(solved[s]) if a != 0}
                      for p, s in zip(players, held)}
            pay = {p: min(sum(a * rows[p][i] for i, a in combos[j].items())
                          for j in players)
                   for p in players}
            return _combo_out(cycles, combos), pay
    return None


def _bounded_means(game, cycles, lo, hi):
    """Each player's cycle means over `cycles`, or None when the bounds
    `lo` and `hi` rule out every distribution over them.  A distribution's
    payoff lies between the least and the largest cycle mean, player by
    player, so a lower bound above every mean or an upper bound below every
    mean rules them all out, and so does any tighter bound."""
    mp = _mp_structure(game).mp_of
    rows = {p: [mp(c, p) for c in cycles] for p in game.players}
    for p, row in rows.items():
        if (lo[p] is not NINF and lo[p] > max(row)) or \
                (hi[p] is not PINF and hi[p] < min(row)):
            return None
    return rows


def _combo_out(cycles, combos):
    return {p: {cycle_id(cycles[i]): a for i, a in cmb.items()}
            for p, cmb in combos.items()}


def _combo_lasso(game, arena, v0, path, W0, cycles, combos, payoffs):
    """A concrete lasso when a single cycle realizes the payoff vector."""
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
        # the search's lower bounds are the query's raised by requirement
        # floors, so when the query's bounds rule out every core, the
        # search's do too, and no value needs computing
        shared = _mp_structure(game)
        lo = {p: query.lo(p) for p in game.players}
        hi = {p: query.hi(p) for p in game.players}
        if all(_bounded_means(game, shared.scyc[W0], lo, hi) is None
               for W0 in shared.sc_subsets):
            return {"answer": "no"}
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
    """Outcome lasso of a deterministic full profile (no chance): the single
    move of each node of `profile_product`, followed until a node repeats."""
    arena = game.arena
    if not profile.is_deterministic():
        raise GameError("profile must be deterministic")
    product = profile_product(game, profile, None)
    node = (arena.init, profile.initial)
    seen = {}
    while node not in seen:
        v, q = node
        if arena.owner[v] in (CHANCE, TERMINAL):
            raise GameError(f"no output at ({q},{v})")
        seen[node] = len(seen)
        (node, _), = product[node]
    k = seen[node]
    play = [v for v, _ in seen]
    return Lasso(play[:k], play[k:])


def _energy_feasible(game, player, product, start):
    """One-player energy feasibility: a play with the running sum never
    negative exists iff the credit-saturated graph has a reachable cycle."""
    rewards = {}
    cap = Fraction(0)
    for (v, q), moves in product.items():
        for (w, q2), _ in moves:
            r = game.payoff.reward(player, v, w)
            rewards[((v, q), (w, q2))] = r
            if abs(r) > cap:
                cap = abs(r)
    bound = cap * (len(product) + 1) + 1
    # the saturated states, numbered as they are found
    number = {(start, Fraction(0)): 0}
    stack = [(start, Fraction(0))]
    edges = []
    while stack:
        node, e = state = stack.pop()
        for nxt, _ in product[node]:
            e2 = e + rewards[(node, nxt)]
            if e2 < 0:
                continue
            if e2 > bound:
                e2 = bound
            after = (nxt, e2)
            if after not in number:
                number[after] = len(number)
                stack.append(after)
            edges.append((number[state], number[after]))
    # cycle detection over the saturated state graph
    n = len(number)
    comp, _ = scc(n, *csr(n, edges))
    return any(comp[s] == comp[t] for s, t in edges)


def verify_ne_energy(game, profile):
    """NE check for a deterministic profile in an energy game: no loser may
    win the one-player product game."""
    if game.mode != "energy":
        raise GameError("verify_ne_energy needs energy mode")
    profile.validate(game.arena)
    outcome = profile_outcome(game, profile)
    start = (game.arena.init, profile.initial)
    for i in game.players:
        if eval_lasso(game, outcome, i) == 1:
            continue
        if _energy_feasible(game, i, profile_product(game, profile, i),
                            start):
            return False
    return True


def _verify_ne_expectation(game, profile, transform=None, tol=None):
    """Expectation-NE in terminal mode: exact hit probabilities; terminal
    payoffs optionally transformed (used by the entropic-risk check).  A
    gain that is an exact Fraction must not be positive; only an inexact
    one (a transform's mpf) is allowed up to `tol`."""
    chain = induced_chain(game, profile)
    probs, _ = chain_hit_probabilities(chain)

    def value_of(dist, player):
        return sum((dist[t] * _pay(game, t, player, transform)
                    for t in dist), Fraction(0))

    for i in game.players:
        mine = value_of(probs, i)
        best = _best_expectation(game, profile, i, transform)
        gap = best - mine
        if gap > (0 if tol is None or isinstance(gap, Fraction) else tol):
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
    product = profile_product(game, profile, i)
    mine = sorted([s for s in product if arena.owner[s[0]] == i], key=str)
    best = None
    for combo in itertools.product(*[[t for t, _ in product[s]]
                                     for s in mine]):
        val = _policy_value(game, product, dict(zip(mine, combo)), i,
                            transform)
        if best is None or val > best:
            best = val
    return best


def _policy_value(game, product, fixed, i, transform):
    """i's expected payoff when i moves from each of its nodes s to
    fixed[s] and every other node keeps its product moves."""
    probs, _ = chain_hit_probabilities(product_chain(game, product, fixed))
    return sum((probs[t] * _pay(game, t, i, transform) for t in probs),
               Fraction(0))
