"""Graph kernels: reachability, attractors, strongly connected components
and simple paths.

`reachable`, `attractor` and `scc` work on CSR arrays over int vertex ids
(`csr` builds them); `IndexedGraph` maps named vertices onto those arrays.
`scc_of`, `reach` and `simple_paths` take named (any hashable) vertices
directly.

`attractor`, the package's only attractor, works inside a 0/1 sub-game mask
and ranks the vertices in the order they join, which gives the coalition's
positional strategy.  `scc` takes an optional mask of the same kind.
"""


def csr(n, edges):
    """Build (off, dst) CSR adjacency from an int edge list."""
    count = [0] * (n + 1)
    for u, _ in edges:
        count[u + 1] += 1
    for i in range(n):
        count[i + 1] += count[i]
    off = list(count)
    dst = [0] * len(edges)
    fill = list(off)
    for u, v in edges:
        dst[fill[u]] = v
        fill[u] += 1
    return off, dst


def reachable(n, off, dst, sources):
    """Forward reachability; `sources` is a 0/1 list, returns a 0/1 list."""
    seen = list(sources)
    stack = [v for v in range(n) if sources[v]]
    while stack:
        u = stack.pop()
        for k in range(off[u], off[u + 1]):
            w = dst[k]
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    return seen


def attractor(n, off, dst, poff, psrc, coalition, target, sub):
    """Attractor inside the sub-game on the 0/1 mask `sub`.

    Least set A of `sub` vertices containing the targets in `sub`, closed
    under: coalition vertex with an edge into A; non-coalition vertex with
    an edge inside `sub`, all of them into A.  Deadend non-targets are
    never absorbed.  Returns A as join ranks: 0 outside A, 1 for the
    targets, then 2, 3, ... in the order the other vertices joined
    (targets pop from a stack filled in id order, predecessors come in
    `psrc` order).  A coalition vertex of rank r has a successor of rank
    in 1..r-1, one already in A when it joined: that move is its
    positional attractor strategy.
    """
    rank = [t if s else 0 for t, s in zip(target, sub)]
    joined = 1
    count = [-1] * n
    stack = [v for v in range(n) if rank[v]]
    while stack:
        w = stack.pop()
        for k in range(poff[w], poff[w + 1]):
            u = psrc[k]
            if rank[u] or not sub[u]:
                continue
            if not coalition[u]:
                if count[u] < 0:
                    # successors inside the sub-game, counted on first visit
                    count[u] = sum(1 for x in dst[off[u]:off[u + 1]] if sub[x])
                count[u] -= 1
                if count[u]:
                    continue
            joined += 1
            rank[u] = joined
            stack.append(u)
    return rank


def scc(n, off, dst, sub=None):
    """Tarjan SCC, iterative.  Returns (component id per vertex, count);
    ids are assigned in reverse topological order of discovery.  With a
    0/1 mask `sub`, the SCCs of the subgraph it induces: roots and edges
    are still visited in id and CSR order, so the ids equal those of the
    induced subgraph renumbered in id order, and vertices outside `sub`
    get -1."""
    # an index of -2 is never a root, a new vertex or on the stack
    index = [-1] * n if sub is None else [-1 if s else -2 for s in sub]
    low = [0] * n
    on_stack = [0] * n
    comp = [-1] * n
    stack = []
    ncomp = 0
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, off[root])]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        while work:
            v, ptr = work[-1]
            if ptr < off[v + 1]:
                work[-1] = (v, ptr + 1)
                w = dst[ptr]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, off[w]))
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
    return comp, ncomp


def scc_of(vertices, edges):
    """SCCs of a digraph over hashable vertices: (component id per vertex
    as a dict, count).  Ids are those `scc` gives when vertex k of
    `vertices` is int k and the edges keep their order, so callers that
    pick witnesses by component id see a stable numbering."""
    vertices = list(vertices)
    index = {v: k for k, v in enumerate(vertices)}
    n = len(vertices)
    comp, ncomp = scc(n, *csr(n, [(index[u], index[v]) for u, v in edges]))
    return dict(zip(vertices, comp)), ncomp


def reach(succ, sources, within=None):
    """Vertices reachable from `sources` along `succ` (a mapping from a
    vertex to its successors), sources included.  With `within` (a set),
    paths never leave it and sources outside it are dropped."""
    seen = set(sources)
    if within is not None:
        seen &= within
    stack = list(seen)
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen and (within is None or w in within):
                seen.add(w)
                stack.append(w)
    return seen


def simple_paths(succ, start, stop=()):
    """Every simple path from `start` along `succ` (a function from a
    vertex to its successors), as a tuple, in depth-first preorder with
    successors in sorted order.  A path that reaches a vertex of `stop` is
    yielded but not extended."""
    path = (start,)
    yield path
    if start in stop:
        return
    stack = [(path, iter(sorted(succ(start))))]
    while stack:
        path, ahead = stack[-1]
        for w in ahead:
            if w not in path:
                longer = path + (w,)
                yield longer
                if w not in stop:
                    stack.append((longer, iter(sorted(succ(w)))))
                    break
        else:
            stack.pop()


class IndexedGraph:
    """Int-indexed digraph with the CSR forms `reachable` and `attractor`
    take."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.n = len(self.vertices)
        iedges = [(self.index[u], self.index[v]) for u, v in edges]
        self.off, self.dst = csr(self.n, iedges)
        self.poff, self.psrc = csr(self.n, [(v, u) for u, v in iedges])

    def mask(self, vs):
        m = [0] * self.n
        for v in vs:
            m[self.index[v]] = 1
        return m

    def unmask(self, m):
        return {self.vertices[i] for i in range(self.n) if m[i]}
