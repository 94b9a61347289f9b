# The dict/set Zielonka solver that equilibra.zerosum.solve_parity replaced,
# kept verbatim as the reference its rewrite on int bitmasks over
# `_kernels.attractor` must agree with exactly: same regions, same
# strategies, repeated successors included (tests/test_zerosum.py), and
# the same parity negotiation (tests/test_negotiation_parity.py).


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
