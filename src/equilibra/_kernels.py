"""Graph kernels: reachability, attractors, strongly connected components
and simple paths.

`reachable`, `attractor` and `scc` work on CSR arrays over int vertex ids
(`csr` builds them); `IndexedGraph` maps named vertices onto those arrays.
Each arena holds one, `Arena.graph`, which every helper on that arena reads;
an edge subset of the arena is a list of id pairs, which `restrict` turns
into the same arrays.  `reach` and `simple_paths` take named (any
hashable) vertices directly, for graphs with no int view such as product
closures.

Vertex sets are int bitmasks over the ids (bit v set for vertex v).
`attractor`, the package's only attractor, works inside a sub-game mask
and can record the coalition's positional strategy as its vertices join.
`scc` takes an optional sub-graph mask of the same kind.
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


def ids(mask):
    """The vertex ids in the bitmask `mask`, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def reachable(off, dst, sources):
    """Forward reachability from the bitmask `sources`, as a bitmask."""
    seen = sources
    stack = ids(sources)
    while stack:
        u = stack.pop()
        for k in range(off[u], off[u + 1]):
            w = dst[k]
            if not seen >> w & 1:
                seen |= 1 << w
                stack.append(w)
    return seen


def attractor(n, off, dst, poff, psrc, coalition, target, sub, moves=None):
    """Attractor inside the sub-game on the bitmask `sub`, as a bitmask.

    Least set A of `sub` vertices containing the targets in `sub`, closed
    under: coalition vertex with an edge into A; non-coalition vertex with
    an edge inside `sub`, all of them into A (a repeated successor counts
    once per repeat).  Deadend non-targets are never absorbed.  The
    targets pop from a stack filled in id order, predecessors come in
    `psrc` order.  With a dict `moves`, each coalition vertex that joins
    gets there its positional attractor strategy: its least-id successor
    already in A when it joined.
    """
    attracted = target & sub
    rest = sub & ~attracted  # sub-game vertices not attracted yet
    count = {}
    stack = ids(attracted)
    while stack:
        w = stack.pop()
        for u in psrc[poff[w]:poff[w + 1]]:
            if not rest >> u & 1:
                continue
            if not coalition >> u & 1:
                left = count.get(u)
                if left is None:
                    # successors inside the sub-game, counted on first visit
                    left = 0
                    for x in dst[off[u]:off[u + 1]]:
                        if sub >> x & 1:
                            left += 1
                left -= 1
                if left:
                    count[u] = left
                    continue
            elif moves is not None:
                best = n
                for x in dst[off[u]:off[u + 1]]:
                    if x < best and attracted >> x & 1:
                        best = x
                moves[u] = best
            bit = 1 << u
            attracted |= bit
            rest ^= bit
            stack.append(u)
    return attracted


def scc(n, off, dst, sub=None):
    """Tarjan SCC, iterative.  Returns (component id per vertex, count);
    ids are assigned in reverse topological order of discovery.  With a
    bitmask `sub`, the SCCs of the subgraph it induces: roots and edges
    are still visited in id and CSR order, so the ids equal those of the
    induced subgraph renumbered in id order, and vertices outside `sub`
    get -1."""
    # an index of -2 is never a root, a new vertex or on the stack
    index = [-1] * n if sub is None else [-1 if sub >> v & 1 else -2
                                          for v in range(n)]
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
    """Int-indexed digraph (vertex k of `vertices` is id k) with the CSR
    forms, successors and predecessors in `edges` order, that `reachable`,
    `attractor` and `scc` take; `mask` and `unmask` convert vertex sets to
    and from bitmasks."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.index = index = {v: i for i, v in enumerate(self.vertices)}
        self.n = len(self.vertices)
        self.off, self.dst, self.poff, self.psrc = self.restrict(
            [(index[u], index[v]) for u, v in edges])

    def restrict(self, edges):
        """(off, dst, poff, psrc) of the int edge list `edges`."""
        return (*csr(self.n, edges), *csr(self.n, [(v, u) for u, v in edges]))

    def mask(self, vs):
        m = 0
        for v in vs:
            m |= 1 << self.index[v]
        return m

    def unmask(self, m):
        return {self.vertices[i] for i in ids(m)}
