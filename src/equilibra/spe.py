"""SPE and eps-SPE constrained existence via negotiation fixed points,
certificate checking, and the minimal-eps search.

Parity is exact (the iteration always converges).  Mean-payoff answers are
yes (with an independently re-verifiable witness), no (provably: no play
fits the thresholds at all, a converged iteration identifies the least
(eps-)fixed point and it admits nothing, or the eps-adjusted lower-bound
iteration blows up at the initial vertex), or unknown at the cap.
"""

import math
from fractions import Fraction

from .rationals import PINF, NINF, format_rational, parse_rational
from .games import GameError, payoff_vector, cycle_id
from . import zerosum as zs
from ._kernels import csr, reach, scc, scc_of
from .negotiation import (vacuous_requirement, nego_iterate, nego_mp,
                          family_consistent, _MpContext, _mp_value_at,
                          _eps_fixed, requirement_to_json,
                          requirement_from_json, Family)
from .nash import Query, search_consistent_parity, search_consistent_combo


# ---------------------------------------------------------------------------
# parity: exact SPE existence


def iterate_to_fixed_point_parity(game, cap=None):
    if cap is None:
        cap = 2 * len(game.arena.vertices) + 2
    seq, converged = nego_iterate(game, cap)
    if not converged:
        raise GameError("parity negotiation failed to converge (internal)")
    return seq


def spe_exists_parity(game, query):
    """Exact SPE constrained existence on parity games: least negotiation
    fixed point, then a color-tuple consistent-play search."""
    if game.mode != "parity":
        raise GameError("parity mode required")
    seq = iterate_to_fixed_point_parity(game)
    lam = seq[-1]
    lasso = search_consistent_parity(game, lam, query)
    if lasso is None:
        return {"answer": "no", "lam": lam, "iterates": len(seq) - 1}
    return {"answer": "yes", "lam": lam, "lasso": lasso,
            "payoffs": payoff_vector(game, lasso), "iterates": len(seq) - 1}


# ---------------------------------------------------------------------------
# mean-payoff: witnesses and the deviation-graph checker


class MpWitness:
    """Witness (W, W', alpha, lambda, prover) for epsilon-SPE existence.

    prover maps each root vertex to a stationary proposal map used from
    that root (vertex -> punishment family).
    """

    def __init__(self, W, Wp, alpha, lam, prover, payoffs=None):
        self.W = sorted(W)
        self.Wp = sorted(Wp)
        self.alpha = alpha
        self.lam = dict(lam)
        self.prover = prover
        self.payoffs = payoffs

    def to_json(self):
        def fam_doc(f):
            return {"h": list(f.h), "c": list(f.c), "W": sorted(f.W),
                    "x": {p: format_rational(x) for p, x in
                          sorted(f.xbar.items())}}

        return {
            "W": self.W,
            "Wp": self.Wp,
            "alpha": {p: {cid: format_rational(a) for cid, a in
                          sorted(cmb.items())}
                      for p, cmb in sorted(self.alpha.items())},
            "lambda": requirement_to_json(self.lam),
            "prover": {root: {v: fam_doc(f) for v, f in sorted(tmap.items())}
                       for root, tmap in sorted(self.prover.items())},
        }

    @classmethod
    def from_json(cls, doc):
        """The witness `to_json` wrote."""
        def family(fd):
            return Family(fd["h"], fd["c"], fd["W"], fd["W"],
                          {p: parse_rational(x) for p, x in fd["x"].items()})

        alpha = {p: {cid: parse_rational(a) for cid, a in cmb.items()}
                 for p, cmb in doc["alpha"].items()}
        lam = requirement_from_json(doc["lambda"])
        prover = {root: {v: family(fd) for v, fd in tmap.items()}
                  for root, tmap in doc["prover"].items()}
        return cls(doc["W"], doc["Wp"], alpha, lam, prover)


def mp_deviation_graph_value(game, lam, i, tau, alpha):
    """True iff Challenger has no play of value above alpha against the
    stationary Prover map tau in the reduced negotiation game.

    The three-case play search of the checking lemma: an accepted proposal
    above alpha, a deviation cycle without post-cycle deviations of
    projected mean above alpha, or a cycle whose pumped punishing cycles
    all exceed alpha.
    """
    if game.mode != "mean-payoff":
        raise GameError("mean-payoff mode required")
    arena = game.arena
    r = game.payoff.reward
    for v, fam in tau.items():
        _validate_family(game, v, fam)
        if not family_consistent(game, lam, fam):
            raise GameError(f"proposal at {v} is not lambda-consistent")
    roots = sorted(tau)
    # explicit deviation graph: real nodes are vertices, arcs carry the
    # projected segments (for pre-cycle deviations) or pumped means
    pre = []
    post = []
    for v in roots:
        fam = tau[v]
        walk = list(fam.h) + list(fam.c)
        wsum = Fraction(0)
        for k, z in enumerate(walk):
            if k > 0:
                wsum += r(i, walk[k - 1], z)
            if arena.owner[z] != i:
                continue
            for w in sorted(arena.succ(z)):
                if w not in tau:
                    raise GameError(f"deviation target {w} has no proposal")
                pre.append((v, w, wsum + r(i, z, w), k + 1))
        m = zs.cycle_mean(fam.c, lambda a, b: r(i, a, b))
        for z in sorted(fam.W):
            if arena.owner[z] != i:
                continue
            for w in sorted(arena.succ(z)):
                if w not in tau:
                    raise GameError(f"deviation target {w} has no proposal")
                post.append((v, w, m))
    # (a) accepted proposal above alpha (all roots are entry points here:
    # the caller fixes the root by restricting tau's reachable part)
    if any(tau[v].xbar[i] > alpha for v in roots):
        return False
    # (b) Karp on the expanded pre-cycle graph
    idx = {v: k for k, v in enumerate(roots)}
    unit = []
    extra = len(roots)
    for (v, w, wt, ln) in pre:
        prev = idx[v]
        for _ in range(ln - 1):
            unit.append((prev, extra, 0))
            prev = extra
            extra += 1
        unit.append((prev, idx[w], wt))
    d = math.lcm(*(wt.denominator for _, _, wt in unit))  # Karp takes ints
    val = zs.karp_max_mean(extra, [(u, w, int(wt * d)) for u, w, wt in unit])
    if val is not None and val / d > alpha:
        return False
    # (c) a cycle through post-cycle deviations all above alpha
    edges = {(idx[v], idx[w]) for (v, w, _, _) in pre}
    hot = [(idx[v], idx[w]) for (v, w, m) in post if m > alpha]
    edges |= set(hot)
    comp, _ = scc(len(roots), *csr(len(roots), sorted(edges)))
    for (a, b) in hot:
        if comp[a] == comp[b]:
            return False
    return True


def _strongly_connected(Cset, allowed):
    """Cset (non-empty) is strongly connected along `allowed` and every
    vertex in it keeps an edge inside it: one SCC with an inner edge."""
    inner = [(u, x) for u in Cset for x in allowed[u] if x in Cset]
    _, ncomp = scc_of(Cset, inner)
    return ncomp == 1 and bool(inner)


def _validate_family(game, v, fam):
    arena = game.arena
    if fam.h[0] != v:
        raise GameError(f"family at {v} starts at {fam.h[0]}")
    if len(set(fam.h)) != len(fam.h):
        raise GameError("non-simple history in punishment family")
    if len(set(fam.c)) != len(fam.c) or not fam.c:
        raise GameError("punishing cycle must be simple and nonempty")
    seq = list(fam.h)
    for a, b in zip(seq, seq[1:]):
        if b not in arena.succ(a):
            raise GameError(f"family history step {a}->{b} is not an edge")
    if fam.c[0] not in arena.succ(fam.h[-1]):
        raise GameError("history does not connect to the punishing cycle")
    cyc = list(fam.c)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if b not in arena.succ(a):
            raise GameError(f"punishing cycle step {a}->{b} is not an edge")
    entry = set(arena.succ(fam.c[-1])) & fam.W
    if not entry:
        raise GameError("tail set W is not entered from the punishing cycle")
    # W must be reachable inside itself from some entry successor
    if reach({x: arena.succ(x) for x in fam.W}, entry, within=fam.W) \
            != fam.W:
        raise GameError("tail set W is not reachable from the cycle exit")


def check_mp_witness(game, eps, witness, query):
    """Validity of an eps-SPE witness: every prover strategy holds its root
    to lambda(root)+eps (deviation-graph check), and (W, W', alpha) give a
    lambda-consistent play within thresholds."""
    if game.mode != "mean-payoff":
        raise GameError("mean-payoff mode required")
    if eps < 0:
        raise GameError("eps must be nonnegative")
    arena = game.arena
    lam = witness.lam
    W = set(witness.W)
    Wp = set(witness.Wp)
    vertices = set(arena.vertices)
    if not vertices <= set(lam):
        raise GameError(f"lambda misses vertex {min(vertices - set(lam))}")
    named = {"W": W, "W'": Wp, "prover root": set(witness.prover)}
    for what, vs in named.items():
        if vs - vertices:
            raise GameError(f"unknown {what} vertex {min(vs - vertices)}")
    for tmap in witness.prover.values():
        for v, fam in tmap.items():
            if v not in vertices:
                raise GameError(f"unknown prover map vertex {v}")
            if not fam.h:
                raise GameError(f"empty family history at {v}")
    if not W or not (W <= Wp):
        raise GameError("need nonempty W included in W'")
    inner = {u: [w for w in arena.succ(u) if w in W] for u in W}
    cycles = zs.simple_cycles(W, lambda u: inner[u])
    if not cycles:
        raise GameError("W carries no cycle")
    ids = {cycle_id(c): c for c in cycles}

    def mp(c, p):
        return zs.cycle_mean(c, lambda a, b: game.payoff.reward(p, a, b))

    payoffs = {}
    for p in game.players:
        cmb = witness.alpha.get(p, {})
        total = sum(cmb.values(), Fraction(0))
        if total != 1:
            raise GameError(f"combination weights for {p} sum to {total}")
        for cid in cmb:
            if cid not in ids:
                raise GameError(f"unknown cycle id {cid}")
    for p in game.players:
        payoffs[p] = min(
            sum((a * mp(ids[cid], p) for cid, a in witness.alpha[j].items()),
                Fraction(0))
            for j in game.players)
    # W strongly connected and accessible from init through W'
    if not _strongly_connected(W, inner):
        return False
    if not W & reach({u: arena.succ(u) for u in Wp}, [arena.init],
                     within=Wp):
        return False
    for p in game.players:
        if not (query.lo(p) <= payoffs[p] and payoffs[p] <= query.hi(p)):
            return False
    for u in Wp:
        if lam[u] == NINF:
            continue
        if lam[u] == PINF or payoffs[arena.owner[u]] < lam[u]:
            return False
    # prover strategies
    for root, tmap in witness.prover.items():
        if lam[root] == PINF:
            continue
        i = arena.owner[root]
        bound = lam[root] + eps
        if not mp_deviation_graph_value(game, lam, i, tmap, bound):
            return False
    return True


# ---------------------------------------------------------------------------
# eps-SPE existence for mean-payoff


def _adjust(lam, nxt, eps, vertices):
    """max(lam, nxt - eps) on `vertices`, +-inf kept as they are."""
    out = {}
    for v in vertices:
        cur, new = lam[v], nxt[v]
        if new is NINF or cur is PINF:
            out[v] = cur
        elif new is PINF or cur is NINF:
            out[v] = new if new is PINF else new - eps
        else:
            adj = new - eps
            out[v] = cur if adj < cur else adj
    return out


def _prover_maps(game, lam, eps, roots_by_player):
    """Global proposal maps holding every root of player i to
    lam(root)+eps, one per player, extracted from the negotiation search."""
    prover = {}
    for i, roots in roots_by_player.items():
        # reads back the pools `nego_mp` last built on this game for lam
        ctx = _MpContext(game, lam, i)
        for root in roots:
            if lam[root] == PINF:
                continue
            bound = lam[root] + eps
            found = _assignment_within(ctx, root, bound)
            if found is None:
                return None
            prover[root] = found
    return prover


def _assignment_within(ctx, root, bound):
    """First complete proposal assignment whose Challenger value stays at
    or below `bound` (short-circuited negotiation search)."""
    val, assignment = _mp_value_at(ctx, root, stop_at=bound)
    if assignment is None or val > bound:
        return None
    return assignment


def spe_exists_mp(game, eps, query, max_iters=64):
    """Iterate-then-search decision for eps-SPE constrained existence.

    The plain negotiation iterates drive the yes side (first eps-fixed
    iterate with a consistent play in the thresholds; witness attached).
    An eps-adjusted iteration kappa <- max(kappa, nego(kappa) - eps)
    lower-bounds every eps-fixed point: reaching +inf at the start is a
    provable no, and stabilizing at a finite kappa identifies the least
    eps-fixed point, making the search there definitive both ways.
    Unknown only at the iteration cap.  The witness of a yes is built
    once, after `_decide_mp` has answered.
    """
    if game.mode != "mean-payoff":
        raise GameError("mean-payoff mode required")
    eps = Fraction(eps)
    if eps < 0:
        raise GameError("eps must be nonnegative")
    res = _decide_mp(game, eps, query, max_iters)
    if res["answer"] != "yes":
        return res
    lam = res["lam"]
    return {"answer": "yes", "lam": lam,
            "witness": _build_witness(game, lam, eps, res["found"]),
            "iterates": res["iterates"]}


def _decide_mp(game, eps, query, max_iters):
    """`spe_exists_mp`'s answer without the witness; a yes carries instead
    the consistent play `search_consistent_combo` found (`found`) at the
    deciding requirement `lam`.

    A yes comes only at a lam whose negotiation value stays within
    lam + eps wherever lam is finite: on the plain chain lam is
    eps-fixed, and on the adjusted chain a fixed `_adjust` means
    nego(lam) - eps <= lam.  The negotiation value is the least over
    Prover's stationary assignments, so every root has one within
    lam + eps for `_build_witness` to find, in the pools `nego_mp` built
    last, for lam."""
    arena = game.arena
    v0 = arena.init
    verts = arena.vertices
    if search_consistent_combo(game, vacuous_requirement(game),
                               query) is None:
        return {"answer": "no", "reason": "no play fits the thresholds"}
    plain = vacuous_requirement(game)
    adjusted = vacuous_requirement(game)
    plain_done = False
    for k in range(max_iters):
        if not plain_done:
            plain_next = nego_mp(game, plain)
            if _eps_fixed(plain, plain_next, eps, verts) and all(
                    plain[v] is not NINF for v in verts):
                found = search_consistent_combo(game, plain, query)
                if found is not None:
                    return {"answer": "yes", "lam": dict(plain),
                            "iterates": k, "found": found}
                if eps == 0:
                    return {"answer": "no", "lam": dict(plain),
                            "iterates": k,
                            "reason":
                                "least fixed point admits no such play"}
            if plain_next == plain:
                plain_done = True
            else:
                plain = plain_next
        if eps == 0:
            adjusted = plain
            if plain_done:
                # the plain chain converged and was searched above
                return {"answer": "unknown", "iterates": k,
                        "reason": "no decisive iterate"}
            continue
        adjusted_next = nego_mp(game, adjusted)
        new_adjusted = _adjust(adjusted, adjusted_next, eps, verts)
        if new_adjusted[v0] is PINF:
            return {"answer": "no", "iterates": k,
                    "reason": "every eps-fixed point is +inf at the start"}
        if new_adjusted == adjusted:
            # an eps-fixed point below every eps-fixed point: the least
            # one; its consistent plays are exactly the eps-SPE outcomes
            found = search_consistent_combo(game, adjusted, query)
            if found is not None:
                return {"answer": "yes", "lam": dict(adjusted),
                        "iterates": k, "found": found}
            return {"answer": "no", "lam": dict(adjusted), "iterates": k,
                    "reason": "least eps-fixed point admits no such play"}
        adjusted = new_adjusted
    return {"answer": "unknown", "iterates": max_iters,
            "reason": "iteration cap reached without a decisive iterate"}


def _build_witness(game, lam, eps, found):
    arena = game.arena
    roots_by_player = {}
    for v in arena.vertices:
        i = arena.owner[v]
        roots_by_player.setdefault(i, []).append(v)
    prover = _prover_maps(game, lam, eps, roots_by_player)
    if prover is None:
        raise RuntimeError("no Prover assignment within lam + eps at a "
                           "decided requirement")
    return MpWitness(found["W"], found["Wp"], found["alpha"], lam, prover,
                     payoffs=found["payoffs"])


# ---------------------------------------------------------------------------
# minimal eps


def simplest_rational(lo, hi, lo_open=True, hi_open=False):
    """Smallest-denominator rational in the interval (continued-fraction
    walk); bounds are Fractions with lo < hi."""
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    return _simplest_in(Fraction(lo), Fraction(hi), lo_open, hi_open)


def _simplest_in(a, b, a_open, b_open):
    """`simplest_rational` on a nonempty interval with a < b."""
    n = a.numerator // a.denominator
    if a > n or (a == n and a_open):
        n += 1
    if n < b or (n == b and not b_open):
        return Fraction(n)
    fa = n - 1
    a2, b2 = a - fa, b - fa
    if a2 == 0:
        # x - fa in (0, b2]: invert to y >= 1/b2
        inv = 1 / b2
        m = -((-inv.numerator) // inv.denominator)
        if Fraction(m) < inv or (Fraction(m) == inv and b_open):
            m += 1
        return fa + Fraction(1, m)
    y = _simplest_in(1 / b2, 1 / a2, b_open, a_open)
    return fa + 1 / y


def epsilon_min_search(game, precision_bits=24, max_iters=24):
    """Dichotomous search for the least eps admitting an eps-SPE, refined
    to the simplest rational in the final bracket; unknown propagates.
    Each step only decides (`_decide_mp`) and builds no witness."""
    if game.mode != "mean-payoff":
        raise GameError("mean-payoff mode required")
    if precision_bits < 0:
        raise GameError(f"precision {precision_bits} is negative")

    def pred(e):
        return _decide_mp(game, e, Query(), max_iters)["answer"]

    first = pred(Fraction(0))
    if first == "yes":
        return {"answer": "yes", "eps_min": Fraction(0)}
    if first == "unknown":
        return {"answer": "unknown"}
    denom, weights = game.weights
    hi = Fraction(max((max(w.values()) - min(w.values())
                       for w in weights.values()), default=0), denom)
    hi_ans = pred(hi)
    if hi_ans != "yes":
        return {"answer": "unknown"}
    lo = Fraction(0)
    step = Fraction(1, 2 ** precision_bits)
    while hi - lo > step:
        mid = (lo + hi) / 2
        ans = pred(mid)
        if ans == "yes":
            hi = mid
        elif ans == "no":
            lo = mid
        else:
            return {"answer": "unknown"}
    guess = simplest_rational(lo, hi, lo_open=True, hi_open=False)
    if guess != hi and pred(guess) != "yes":
        guess = hi
    return {"answer": "yes", "eps_min": guess}
