# The four recursive simple-path enumerators that `_kernels.simple_paths`
# replaced, kept verbatim as the reference the walker and its call sites
# must agree with exactly: the same lists in the same order
# (tests/test_kernels.py).  They were `negotiation._simple_paths_from`
# (family histories), `negotiation._connectors` (connectors into a core),
# `nash._paths_into` (paths from the initial vertex into a core) and
# `zerosum.simple_cycles`.  `tests/mp_pool_reference.py` reads its
# histories from `_simple_paths_from` here.

from equilibra.games import canonical_cycle


def _simple_paths_from(arena, u, cap):
    out = []

    def dfs(path):
        out.append(tuple(path))
        if len(path) >= cap:
            return
        for w in sorted(arena.succ(path[-1])):
            if w not in path:
                path.append(w)
                dfs(path)
                path.pop()

    dfs([u])
    return out


def _connectors(arena, entries, W0, cap):
    """Simple paths from an entry vertex into W0, interior outside W0;
    the empty connector stands for an entry already inside W0."""
    outs = set()
    if any(s in W0 for s in entries):
        outs.add(())
    for s in sorted(entries):
        if s in W0:
            continue

        def dfs(path):
            last = path[-1]
            for w in sorted(arena.succ(last)):
                if w in W0:
                    outs.add(tuple(path))
                elif w not in path and len(path) < cap:
                    path.append(w)
                    dfs(path)
                    path.pop()

        dfs([s])
    return sorted(outs)


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


def simple_cycles(vertices, succ):
    """All simple cycles as canonical tuples (lex-least rotation)."""
    vs = sorted(vertices)
    found = set()

    def dfs(start, path, onpath):
        u = path[-1]
        for w in sorted(succ(u)):
            if w == start:
                found.add(canonical_cycle(path))
            elif w not in onpath and w > start:
                onpath.add(w)
                path.append(w)
                dfs(start, path, onpath)
                path.pop()
                onpath.remove(w)

    for s in vs:
        dfs(s, [s], {s})
    return sorted(found)
