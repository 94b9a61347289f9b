# The dict/set Zielonka solver that equilibra.zerosum.solve_parity replaced,
# kept verbatim as the reference its rewrite on int bitmasks over
# `_kernels.attractor` must agree with exactly: same regions, same
# strategies, repeated successors included (tests/test_zerosum.py), and
# the same parity negotiation (tests/test_negotiation_parity.py).
#
# Below it, the named-vertex front end that `zerosum.solve_parity` had
# until it took int ids and their CSR (`solve_parity_on_names`), and
# `parity_region`, which `zerosum` exported on top of it.

import itertools

from equilibra import _kernels as K, zerosum as zs
from equilibra.games import GameError


def solve_parity(vertices, succ_map, is_protag, color):
    """Zero-sum parity game: protagonist (side 0) wins a play iff the
    minimal color seen infinitely often is even.  Returns (win0, win1,
    strat0, strat1) with positional witness strategies on each region."""
    pred_map = {v: [] for v in vertices}
    for u in vertices:
        for w in succ_map[u]:
            pred_map[w].append(u)

    def side(v):
        return 0 if is_protag(v) else 1

    def attr(sub, sigma, target):
        inset = set(target)
        strat = {}
        count = {v: sum(1 for w in succ_map[v] if w in sub) for v in sub}
        queue = sorted(target)
        while queue:
            w = queue.pop()
            for u in pred_map[w]:
                if u not in sub or u in inset:
                    continue
                if side(u) == sigma:
                    strat[u] = min(x for x in succ_map[u] if x in inset)
                    inset.add(u)
                    queue.append(u)
                else:
                    count[u] -= 1
                    if count[u] <= 0:
                        inset.add(u)
                        queue.append(u)
        return inset, strat

    def rec(sub):
        if not sub:
            return set(), set(), {}, {}
        m = min(color(v) for v in sub)
        sigma = 0 if m % 2 == 0 else 1
        target = {v for v in sub if color(v) == m}
        a, astrat = attr(sub, sigma, target)
        w0, w1, s0, s1 = rec(sub - a)
        wop = w1 if sigma == 0 else w0
        if not wop:
            strat = dict(s0 if sigma == 0 else s1)
            strat.update(astrat)
            for v in sorted(target):
                if side(v) == sigma and v not in strat:
                    strat[v] = min(w for w in succ_map[v] if w in sub)
            if sigma == 0:
                return set(sub), set(), strat, {}
            return set(), set(sub), {}, strat
        sop = s1 if sigma == 0 else s0
        b, bstrat = attr(sub, 1 - sigma, wop)
        w0b, w1b, s0b, s1b = rec(sub - b)
        # the opponent keeps W_op via its sub-strategy, attracts B into it
        strat_op = dict(sop)
        strat_op.update(bstrat)
        if sigma == 0:
            strat_op.update(s1b)
            return w0b, w1b | b, s0b, strat_op
        strat_op.update(s0b)
        return w0b | b, w1b, strat_op, s1b

    return rec(set(vertices))


def solve_parity_on_names(vertices, succ_map, is_protag, color):
    """`zerosum.solve_parity` on named vertices, with the reference's
    signature and answers: vertex k is the k-th name in sorted order, so a
    strategy picks the least successor by name; predecessors are listed in
    `vertices` order, then successor order.  `is_protag` and `color` are
    read once per vertex.  Returns name-keyed regions and strategies."""
    names = sorted(vertices)
    n = len(names)
    index = {v: k for k, v in enumerate(names)}
    off = [0, *itertools.accumulate(len(succ_map[v]) for v in names)]
    dst = [index[w] for v in names for w in succ_map[v]]
    pred = K.csr(n, [(index[w], index[u]) for u in vertices
                     for w in succ_map[u]])
    w0, w1, s0, s1 = zs.solve_parity(range(n), off, dst, *pred,
                                     lambda k: is_protag(names[k]),
                                     lambda k: color(names[k]))
    return ({names[k] for k in K.ids(w0)}, {names[k] for k in K.ids(w1)},
            {names[v]: names[x] for v, x in s0.items()},
            {names[v]: names[x] for v, x in s1.items()})


def parity_region(arena, colors, coalition):
    """Exact winning region for a coalition maximizing a parity condition,
    plus a positional witness strategy on it.  No chance vertices."""
    for v in arena.vertices:
        if arena.is_chance(v) or arena.is_terminal(v):
            raise GameError("parity_region needs a chance-free arena")
    succ_map = {v: list(arena.succ(v)) for v in arena.vertices}
    w0, w1, s0, s1 = solve_parity_on_names(
        arena.vertices, succ_map, lambda v: arena.owner[v] in coalition,
        lambda v: colors[v])
    return w0, s0
