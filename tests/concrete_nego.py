"""Two explicit constructions kept for inspection and tests, not used by
any command: the reachable fragment of the concrete negotiation game
(the solver, `negotiation._solve_game1`, walks the compressed arena
restricted to the feasible region) and the reduced-Prover checker for
parity proposals."""

from equilibra.games import GameError, eval_lasso
from equilibra.negotiation import is_lambda_consistent
from equilibra.rationals import PINF
from named_graph_reference import scc_of
from parity_region_reference import _constr_players


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


def check_reduced_prover_parity(game, lam, i, u, tau):
    """Check that reduced proposals hold the controller of u to lam(u).

    tau maps each deviation-reachable vertex to a lambda-consistent lasso
    proposal from it.  True iff Challenger can neither accept a proposal
    won by i nor build an infinite-deviation play won by i.
    """
    if game.mode != "parity":
        raise GameError("parity mode required")
    if lam[u] == PINF:
        raise GameError("nothing to check at an infeasible vertex")
    arena = game.arena
    # validation and deviation closure
    needed = {u}
    work = [u]
    arcs = []
    accept = {}
    while work:
        v = work.pop()
        if v not in tau:
            raise GameError(f"no proposal at reachable vertex {v}")
        prop = tau[v]
        if prop.first() != v:
            raise GameError(f"proposal at {v} starts at {prop.first()}")
        if not is_lambda_consistent(game, lam, prop):
            raise GameError(f"proposal at {v} is not lambda-consistent")
        accept[v] = eval_lasso(game, prop, i)
        walk = list(prop.prefix) + list(prop.cycle)
        seen_color = None
        for k, z in enumerate(walk):
            c = game.payoff.color(i, z)
            seen_color = c if seen_color is None else min(seen_color, c)
            if arena.owner[z] != i:
                continue
            nxt = walk[k + 1] if k + 1 < len(walk) else prop.cycle[0]
            # later cycle passes form further deviation classes whose
            # segment min is the whole-walk min, but they never matter:
            # an even whole-walk min forces an even cycle min (acceptance
            # already wins), and odd classes are subsumed by this one
            for w in sorted(arena.succ(z)):
                if w == nxt:
                    continue
                arcs.append((v, w, seen_color))
                if w not in needed:
                    needed.add(w)
                    work.append(w)
    if lam[u] >= 1:
        return True
    # (a) an accepted proposal won by i
    if any(accept[v] == 1 for v in needed):
        return False
    # (b) an infinite-deviation play satisfying i's parity: a cycle in the
    # segment graph whose minimal segment color is even
    evens = sorted({c for (_, _, c) in arcs if c % 2 == 0})
    for e in evens:
        keep = [(v, w, c) for (v, w, c) in arcs if c >= e]
        nodes = sorted({v for (v, _, _) in keep} | {w for (_, w, _) in keep})
        comp, _ = scc_of(nodes, [(v, w) for (v, w, _) in keep])
        for (v, w, c) in keep:
            if c == e and comp[v] == comp[w]:
                return False
    return True
