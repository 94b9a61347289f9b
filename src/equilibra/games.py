"""Game data model: arenas, payoff specifications, lassos, memory profiles.

Everything is immutable after construction and validated on construction.
Payoffs are exact rationals throughout.  Mean-payoff code reads a game's
rewards through its one integer view, `Game.weights` (`int_weights`).
"""

import functools
import json
import math
from fractions import Fraction

from .rationals import parse_rational, format_rational
from ._kernels import IndexedGraph, reach

MODES = ("parity", "mean-payoff", "energy", "discounted-sum", "terminal")
CHANCE = "chance"
TERMINAL = "terminal"
_ZERO = Fraction(0)  # the reward of an edge without one


class GameError(ValueError):
    """Schema or invariant violation, carrying a location."""

    def __init__(self, message, where=None):
        self.where = where
        super().__init__(message if where is None else f"{where}: {message}")


class Arena:
    """Finite directed game graph with an ownership partition.

    owner[v] is a player name, "chance", or "terminal".  Edges are ordered
    pairs of vertex ids; chance_prob maps chance edges to exact rationals.
    `graph`, its one int view (`_kernels.IndexedGraph`), numbers `vertices`
    in order and lists successors in `succ` order.
    """

    def __init__(self, players, vertices, owner, edges, chance_prob=None,
                 init=None):
        self.players = tuple(players)
        self.vertices = tuple(vertices)
        self.owner = dict(owner)
        self.edges = tuple(edges)
        self.chance_prob = dict(chance_prob or {})
        self.init = init
        self._succ = {v: [] for v in self.vertices}
        for (u, v) in self.edges:
            if u not in self._succ or v not in self._succ:
                raise GameError("dangling vertex reference",
                                where=f"edge {u}->{v}")
            self._succ[u].append(v)
        self.graph = IndexedGraph(self.vertices, self.edges)

    def succ(self, v):
        return self._succ[v]

    def is_chance(self, v):
        return self.owner[v] == CHANCE

    def is_terminal(self, v):
        return self.owner[v] == TERMINAL

    def validate(self, mode):
        if len(set(self.players)) != len(self.players):
            raise GameError("duplicate player names")
        for v in self.vertices:
            o = self.owner[v]
            if o not in self.players and o not in (CHANCE, TERMINAL):
                raise GameError(f"unknown owner {o!r}", where=f"vertex {v}")
        if mode == "terminal":
            for v in self.vertices:
                if self.is_terminal(v) and self._succ[v]:
                    raise GameError("terminal vertex has outgoing edge",
                                    where=f"vertex {v}")
                if not self.is_terminal(v) and not self._succ[v]:
                    raise GameError("non-terminal vertex has no outgoing edge",
                                    where=f"vertex {v}")
        else:
            for v in self.vertices:
                if self.owner[v] == TERMINAL:
                    raise GameError("terminal vertices only in terminal mode",
                                    where=f"vertex {v}")
                if not self._succ[v]:
                    raise GameError("vertex has no outgoing edge",
                                    where=f"vertex {v}")
        for v in self.vertices:
            if self.is_chance(v):
                total = sum(self.chance_prob.get((v, w), Fraction(0))
                            for w in self._succ[v])
                if total != 1:
                    raise GameError("probability sum != 1",
                                    where=f"chance vertex {v}")
                for w in self._succ[v]:
                    p = self.chance_prob.get((v, w))
                    if p is None or not (0 < p <= 1):
                        raise GameError("chance edge needs prob in (0,1]",
                                        where=f"edge {v}->{w}")
        poff = self.graph.poff
        for k, v in enumerate(self.vertices):
            if v != self.init and poff[k] == poff[k + 1]:
                raise GameError("vertex (non-init) has no ingoing edge",
                                where=f"vertex {v}")


class PayoffSpec:
    """Per-player objective data for the active mode."""

    def __init__(self, mode, colors=None, rewards=None, discount=None,
                 terminal_payoffs=None):
        if mode not in MODES:
            raise GameError(f"unknown mode {mode!r}")
        self.mode = mode
        self.colors = colors or {}
        self.rewards = rewards or {}
        self.discount = discount
        self.terminal_payoffs = terminal_payoffs or {}

    def color(self, player, v):
        return self.colors[v][player]

    def reward(self, player, u, v):
        return self.rewards.get((u, v), {}).get(player, _ZERO)

    def validate(self, arena):
        if self.mode == "parity":
            for v in arena.vertices:
                if v not in self.colors:
                    raise GameError("missing colors", where=f"vertex {v}")
                for p in arena.players:
                    c = self.colors[v].get(p)
                    if not isinstance(c, int) or c < 0:
                        raise GameError(f"color for {p} must be a natural",
                                        where=f"vertex {v}")
        if self.mode == "mean-payoff":
            # requirements and negotiation cover player vertices only
            for v in arena.vertices:
                if arena.is_chance(v):
                    raise GameError("no chance vertex in mean-payoff mode",
                                    where=f"vertex {v}")
        if self.mode == "discounted-sum":
            if self.discount is None or not (0 < self.discount < 1):
                raise GameError("discount must lie strictly inside (0,1)")
        if self.mode == "terminal":
            terms = [v for v in arena.vertices if arena.is_terminal(v)]
            for t in terms:
                if t not in self.terminal_payoffs:
                    raise GameError("missing terminal payoff",
                                    where=f"vertex {t}")


class Game:
    """An arena plus its payoff specification."""

    def __init__(self, arena, payoff):
        self.arena = arena
        self.payoff = payoff
        arena.validate(payoff.mode)
        payoff.validate(arena)

    @property
    def mode(self):
        return self.payoff.mode

    @property
    def players(self):
        return self.arena.players

    def terminals(self):
        return [v for v in self.arena.vertices if self.arena.is_terminal(v)]

    @functools.cached_property
    def weights(self):
        """`int_weights` of the game, built on first read."""
        return int_weights(self.arena, self.payoff)


def int_weights(arena, payoff):
    """(D, weights): D the lcm of every player's reward denominators on
    every edge, weights[p][(u, v)] the int D * (p's reward on u->v).  Each
    edge's rewards are read once; a denominator of 1 leaves D as it is."""
    players = arena.players
    rows = []
    d = 1
    for e in arena.edges:
        row = payoff.rewards.get(e, {})
        rs = [row.get(p, _ZERO) for p in players]
        for r in rs:
            if r.denominator != 1:
                d = math.lcm(d, r.denominator)
        rows.append(rs)
    return d, {p: {e: rs[k].numerator * (d // rs[k].denominator)
                   for e, rs in zip(arena.edges, rows)}
               for k, p in enumerate(players)}


def _rotations(seq):
    return [tuple(seq[i:] + seq[:i]) for i in range(len(seq))]


def canonical_cycle(cycle):
    """Lexicographically least rotation; used for cycle identity and ids."""
    return min(_rotations(list(cycle)))


def cycle_id(cycle):
    return ",".join(canonical_cycle(cycle))


class Lasso:
    """Ultimately periodic play h . c^omega in canonical form.

    Canonical: the cycle is primitive and the prefix carries no removable
    trailing copy of the cycle, so equality on lassos is equality of plays.
    An empty cycle means the prefix ends in a terminal vertex.
    """

    def __init__(self, prefix, cycle):
        prefix = list(prefix)
        cycle = list(cycle)
        if cycle:
            k = _primitive_root(cycle)
            cycle = cycle[:k]
            while prefix and prefix[-1] == cycle[-1]:
                prefix.pop()
                cycle = [cycle[-1]] + cycle[:-1]
        self.prefix = tuple(prefix)
        self.cycle = tuple(cycle)

    def __eq__(self, other):
        return (isinstance(other, Lasso) and self.prefix == other.prefix
                and self.cycle == other.cycle)

    def __hash__(self):
        return hash((self.prefix, self.cycle))

    def __repr__(self):
        pre = ",".join(self.prefix)
        cyc = ",".join(self.cycle)
        return f"{pre};{cyc}" if cyc else f"{pre};"

    @staticmethod
    def parse(text):
        """Syntax "a,b;c,d" = prefix a,b then cycle c,d repeated forever."""
        if ";" not in text:
            raise GameError(f"lasso {text!r}: expected 'prefix;cycle'")
        pre, cyc = text.split(";", 1)
        prefix = [v for v in pre.split(",") if v]
        cycle = [v for v in cyc.split(",") if v]
        if not prefix and not cycle:
            raise GameError("empty lasso")
        if not prefix:
            prefix = [cycle[0]]
            cycle = cycle[1:] + [cycle[0]]
        return Lasso(prefix, cycle)

    def first(self):
        return self.prefix[0] if self.prefix else self.cycle[0]

    def vertices_seq(self):
        return list(self.prefix) + list(self.cycle)

    def validate(self, arena):
        seq = self.vertices_seq()
        for v in seq:
            if v not in arena.owner:
                raise GameError(f"lasso mentions unknown vertex {v}")
        for a, b in zip(seq, seq[1:]):
            if b not in arena.succ(a):
                raise GameError(f"lasso step {a}->{b} is not an edge")
        if self.cycle:
            if self.cycle[0] not in arena.succ(self.cycle[-1]):
                raise GameError("lasso cycle does not close")
        else:
            if not arena.is_terminal(seq[-1]):
                raise GameError("finite lasso must end in a terminal vertex")

    def cycle_edges(self):
        if not self.cycle:
            return []
        cyc = list(self.cycle)
        return list(zip(cyc, cyc[1:])) + [(cyc[-1], cyc[0])]


def _primitive_root(cycle):
    n = len(cycle)
    for k in range(1, n + 1):
        if n % k == 0 and cycle == cycle[k:] + cycle[:k]:
            return k
    return n


def eval_lasso(game, lasso, player):
    """Exact payoff of an ultimately periodic play for one player.

    Parity: 1 iff the min color on the cycle is even.  Mean-payoff: for a
    lasso the liminf of prefix means equals the cycle mean (the prefix
    contribution vanishes and the mean along the cycle oscillates around
    it), so the exact cycle mean is returned.  Discounted sum: closed form.
    Energy: prefix must never hit bottom, the cycle must have nonnegative
    drift and its first pass from the entry energy must stay nonnegative.
    Terminal: table lookup, 0 for infinite lassos.
    """
    lasso.validate(game.arena)
    mode = game.mode
    if mode != "terminal" and not lasso.cycle:
        raise GameError("finite lasso in an infinite-play mode")
    pay = game.payoff
    if mode == "parity":
        colors = [pay.color(player, v) for v in lasso.cycle]
        return Fraction(1) if min(colors) % 2 == 0 else Fraction(0)
    if mode == "mean-payoff":
        cyc = lasso.cycle_edges()
        total = sum(pay.reward(player, u, v) for u, v in cyc)
        return Fraction(total, len(cyc))
    if mode == "discounted-sum":
        beta = pay.discount
        m = len(lasso.cycle)
        # prefix edges, then the cycle's edge block repeating geometrically
        pre_edges = list(zip(lasso.prefix, lasso.prefix[1:]))
        if lasso.prefix:
            pre_edges.append((lasso.prefix[-1], lasso.cycle[0]))
        acc = Fraction(0)
        for k, (u, v) in enumerate(pre_edges):
            acc += beta ** k * pay.reward(player, u, v)
        tail = sum((beta ** j * pay.reward(player, u, v)
                    for j, (u, v) in enumerate(lasso.cycle_edges())),
                   Fraction(0))
        acc += beta ** len(pre_edges) * tail / (1 - beta ** m)
        return acc
    if mode == "energy":
        level = Fraction(0)
        seq = lasso.vertices_seq()
        for u, v in zip(seq, seq[1:]):
            level += pay.reward(player, u, v)
            if level < 0:
                return Fraction(0)
        drift = Fraction(0)
        run = level
        for u, v in lasso.cycle_edges():
            r = pay.reward(player, u, v)
            drift += r
            run += r
            if run < 0:
                return Fraction(0)
        return Fraction(1) if drift >= 0 else Fraction(0)
    # terminal
    if lasso.cycle:
        return Fraction(0)
    return pay.terminal_payoffs[lasso.vertices_seq()[-1]][player]


def payoff_vector(game, lasso):
    return {p: eval_lasso(game, lasso, p) for p in game.players}


# ---------------------------------------------------------------------------
# memory structures


class MemoryProfile:
    """Finite-state transducer inducing strategies for `owners`.

    Transitions: (state, vertex, next_state) for reads at vertices not owned
    by the structure, (state, vertex, next_state, output) for owned reads.
    Optional exact-rational weights on co-enabled owned transitions.
    """

    def __init__(self, states, initial, owners, transitions, weights=None,
                 name="M"):
        self.states = tuple(states)
        self.initial = initial
        self.owners = tuple(owners)
        self.transitions = tuple(transitions)
        self.weights = dict(weights or {})
        self.name = name
        groups = {}
        for t in self.transitions:
            groups.setdefault((t[0], t[1]), []).append(t)
        self._enabled = {key: tuple(g) for key, g in groups.items()}

    def enabled(self, state, vertex):
        """The transitions reading `vertex` in `state`, in their order."""
        return self._enabled.get((state, vertex), ())

    def is_deterministic(self):
        return all(len(g) == 1 for g in self._enabled.values())

    def weight(self, t):
        if t in self.weights:
            return self.weights[t]
        group = self.enabled(t[0], t[1])
        return Fraction(1, len(group))

    def validate(self, arena):
        if self.initial not in self.states:
            raise GameError("initial state unknown")
        for p in self.owners:
            if p not in arena.players:
                raise GameError(f"owner {p!r} is not a player")
        owned = {v for v in arena.vertices if arena.owner[v] in self.owners}
        for t, w in self.weights.items():
            if not (0 < w <= 1):
                raise GameError(f"weight {format_rational(w)} of {t} is not "
                                "in (0,1]")
        listed = set()
        for t in self.transitions:
            if t in listed:
                raise GameError(f"transition {t} is listed twice")
            listed.add(t)
            if t[0] not in self.states or t[2] not in self.states:
                raise GameError(f"transition {t} uses unknown state")
            if t[1] not in arena.owner:
                raise GameError(f"transition {t} reads unknown vertex")
            if len(t) == 4:
                if t[1] not in owned:
                    raise GameError(f"output transition at non-owned {t[1]}")
                if t[3] not in arena.succ(t[1]):
                    raise GameError(f"output {t[1]}->{t[3]} is not an edge")
            else:
                if t[1] in owned:
                    raise GameError(f"owned vertex {t[1]} needs an output")
        for q in self.states:
            for v in arena.vertices:
                if arena.is_terminal(v):
                    continue
                if not self.enabled(q, v):
                    raise GameError(f"no transition for state {q} at {v}")
        for q in self.states:
            for v in owned:
                group = self.enabled(q, v)
                if any(t in self.weights for t in group):
                    total = sum(self.weight(t) for t in group)
                    if total != 1:
                        raise GameError(
                            f"weights at ({q},{v}) sum to {total}, not 1")


# ---------------------------------------------------------------------------
# parsing / serialization


def _parse_json(text, what, build):
    """`build` of the JSON document `text`.  Text that is not JSON, and a
    document that `build` cannot take apart (a missing key, a value of the
    wrong type, a field that is not a rational), are GameErrors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GameError(f"not valid JSON: {e}")
    try:
        return build(doc)
    except GameError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise GameError(f"malformed {what}: {type(e).__name__}: {e}")


def parse_game(text):
    """Parse the UTF-8 JSON game format; validates all invariants."""
    return _parse_json(text, "game", _game_from_json)


def _game_from_json(doc):
    for key in ("players", "mode", "vertices", "edges"):
        if key not in doc:
            raise GameError(f"missing top-level key {key!r}")
    mode = doc["mode"]
    if mode not in MODES:
        raise GameError(f"unknown mode {mode!r}")
    players = list(doc["players"])
    vertices = []
    owner = {}
    for vdoc in doc["vertices"]:
        vid = vdoc["id"]
        if vid in owner:
            raise GameError("duplicate vertex id", where=f"vertex {vid}")
        vertices.append(vid)
        owner[vid] = vdoc["owner"]
    edges = []
    chance_prob = {}
    rewards = {}
    for edoc in doc["edges"]:
        u, v = edoc["from"], edoc["to"]
        edges.append((u, v))
        if "prob" in edoc:
            chance_prob[(u, v)] = parse_rational(edoc["prob"])
        if "rewards" in edoc:
            rewards[(u, v)] = {p: parse_rational(r)
                               for p, r in edoc["rewards"].items()}
            for p in rewards[(u, v)]:
                if p not in players:
                    raise GameError(f"reward for unknown player {p!r}",
                                    where=f"edge {u}->{v}")
    if len(set(edges)) != len(edges):
        raise GameError("duplicate edge")
    colors = None
    if mode == "parity":
        colors = {v: dict(cmap) for v, cmap in doc.get("colors", {}).items()}
    discount = None
    if mode == "discounted-sum":
        if "discount" not in doc:
            raise GameError("discounted-sum mode needs 'discount'")
        discount = parse_rational(doc["discount"])
    terminal_payoffs = None
    if mode == "terminal":
        terminal_payoffs = {
            t: {p: parse_rational(x) for p, x in pmap.items()}
            for t, pmap in doc.get("terminals", {}).items()}
    arena = Arena(players, vertices, owner, edges, chance_prob,
                  doc.get("init"))
    payoff = PayoffSpec(mode, colors=colors, rewards=rewards,
                        discount=discount, terminal_payoffs=terminal_payoffs)
    return Game(arena, payoff)


def serialize_game(game):
    """Inverse of parse_game, canonical key ordering."""
    arena, pay = game.arena, game.payoff
    doc = {
        "players": list(arena.players),
        "mode": pay.mode,
    }
    if arena.init is not None:
        doc["init"] = arena.init
    doc["vertices"] = [{"id": v, "owner": arena.owner[v]}
                       for v in arena.vertices]
    edocs = []
    for (u, v) in arena.edges:
        edoc = {"from": u, "to": v}
        if (u, v) in arena.chance_prob:
            edoc["prob"] = format_rational(arena.chance_prob[(u, v)])
        rmap = pay.rewards.get((u, v))
        if rmap:
            edoc["rewards"] = {p: format_rational(r)
                               for p, r in sorted(rmap.items())}
        edocs.append(edoc)
    doc["edges"] = edocs
    if pay.mode == "parity":
        doc["colors"] = {v: {p: c for p, c in sorted(pay.colors[v].items())}
                         for v in arena.vertices}
    if pay.mode == "discounted-sum":
        doc["discount"] = format_rational(pay.discount)
    if pay.mode == "terminal":
        doc["terminals"] = {
            t: {p: format_rational(x) for p, x in sorted(pmap.items())}
            for t, pmap in sorted(pay.terminal_payoffs.items())}
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def parse_memory(text, arena):
    """Parse the UTF-8 JSON memory-structure format; validated against
    the arena."""
    return _parse_json(text, "memory structure",
                       lambda doc: _memory_from_json(doc, arena))


def _memory_from_json(doc, arena):
    transitions = []
    weights = {}
    for tdoc in doc["transitions"]:
        if "emit" in tdoc:
            t = (tdoc["from"], tdoc["reads"], tdoc["to"], tdoc["emit"])
        else:
            t = (tdoc["from"], tdoc["reads"], tdoc["to"])
        transitions.append(t)
        if "weight" in tdoc:
            weights[t] = parse_rational(tdoc["weight"])
    m = MemoryProfile(doc["states"], doc["initial"], doc["owners"],
                      transitions, weights, name=doc.get("name", "M"))
    m.validate(arena)
    return m


def memory_doc(m):
    """The JSON document of a memory structure, as `parse_memory` reads
    it."""
    tdocs = []
    for t in m.transitions:
        tdoc = {"from": t[0], "reads": t[1], "to": t[2]}
        if len(t) == 4:
            tdoc["emit"] = t[3]
        if t in m.weights:
            tdoc["weight"] = format_rational(m.weights[t])
        tdocs.append(tdoc)
    return {"states": list(m.states), "initial": m.initial,
            "owners": list(m.owners), "transitions": tdocs}


def serialize_memory(m):
    return json.dumps(memory_doc(m), indent=2) + "\n"


# ---------------------------------------------------------------------------
# product game

DEMON = "demon"


def product_game(game, memory, leader):
    """Compose a game with a Leader memory structure.

    Demon resolves the structure's nondeterminism: he owns all (v,q)
    vertices and the (v,q,q') vertices with v owned by Leader.  Payoffs are
    lifted by projection; Demon's payoff is constantly 0.  Mean-payoff and
    energy rewards are doubled on the output half-edge (the memory
    half-edge carries 0) so cycle means and energy signs are preserved.
    """
    arena, pay = game.arena, game.payoff
    if game.mode not in ("parity", "mean-payoff", "energy"):
        raise GameError(f"product unsupported in mode {game.mode}")
    if leader not in arena.players:
        raise GameError(f"unknown leader {leader!r}")
    if set(memory.owners) != {leader}:
        raise GameError("memory structure must speak for the leader only")
    memory.validate(arena)
    if arena.init is None:
        raise GameError("product needs an initialized game")

    def vname(tag):
        return "|".join(tag)

    start = (arena.init, memory.initial)
    verts = {}
    edges = []
    rewards = {}
    order = []

    def add_vertex(key, owner):
        if key not in verts:
            verts[key] = owner
            order.append(key)

    todo = [start]
    seen = {start}
    while todo:
        node = todo.pop()
        if len(node) == 2:
            v, q = node
            add_vertex(node, DEMON)
            for t in memory.enabled(q, v):
                nxt = (v, q, t[2])
                add_vertex(nxt, _mid_owner(arena, v, leader))
                edges.append((node, nxt, None))
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        else:
            v, q, q2 = node
            if arena.owner[v] == leader:
                outs = sorted({t[3] for t in memory.enabled(q, v)
                               if t[2] == q2})
            else:
                outs = list(arena.succ(v))
            for w in outs:
                nxt = (w, q2)
                add_vertex(nxt, DEMON)
                edges.append((node, nxt, (v, w)))
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)

    names = {key: vname(key) for key in order}
    players = [DEMON] + [p for p in arena.players]
    out_edges = []
    out_rewards = {}
    for (a, b, base) in edges:
        e = (names[a], names[b])
        out_edges.append(e)
        if base is not None and game.mode in ("mean-payoff", "energy"):
            rmap = pay.rewards.get(base, {})
            out_rewards[e] = {p: 2 * r for p, r in rmap.items()}
    owner = {}
    for key in order:
        o = verts[key]
        owner[names[key]] = o
    new_arena = Arena(players, [names[k] for k in order], owner, out_edges,
                      init=names[start])
    colors = None
    if game.mode == "parity":
        colors = {}
        for key in order:
            v = key[0]
            cmap = {p: pay.colors[v][p] for p in arena.players}
            cmap[DEMON] = 1
            colors[names[key]] = cmap
    new_pay = PayoffSpec(game.mode, colors=colors, rewards=out_rewards)
    return Game(new_arena, new_pay)


def _mid_owner(arena, v, leader):
    o = arena.owner[v]
    if o == leader or o == CHANCE:
        return DEMON
    return o


def vacuous_memory(arena, leader):
    """One-state structure that never outputs; Leader must own no vertex."""
    owned = [v for v in arena.vertices if arena.owner[v] == leader]
    if owned:
        raise GameError("vacuous structure needs a vertex-free leader")
    transitions = [("q0", v, "q0") for v in arena.vertices
                   if not arena.is_terminal(v)]
    return MemoryProfile(["q0"], "q0", [leader], transitions,
                         name="vacuous")


# ---------------------------------------------------------------------------
# profile x arena product with one free player


def profile_product(game, profile, free):
    """The product of the arena with the profile's memory, walked once
    from (init, initial): each reached (vertex, state) node -> its moves,
    a list of (node, weight); terminal nodes have none.

    Chance vertices and `free`'s vertices take every arena edge into the
    memory's unique next state, weighted by the chance probability (None
    for `free`, whose outputs are ignored); every other vertex follows the
    profile's outputs with the profile's weights.  Successors are visited
    in sorted order."""
    arena = game.arena
    start = (arena.init, profile.initial)
    product = {}
    seen = {start}
    todo = [start]
    while todo:
        node = todo.pop()
        v, q = node
        moves = []
        if not arena.is_terminal(v):
            group = profile.enabled(q, v)
            nexts = {t[2] for t in group}
            if len(nexts) != 1:
                raise GameError(f"nondeterministic memory update at ({q},{v})")
            chance = arena.is_chance(v)
            if chance or arena.owner[v] == free:
                q2, = nexts
                moves = [((w, q2), arena.chance_prob[(v, w)] if chance
                          else None) for w in sorted(arena.succ(v))]
            else:
                for t in group:
                    if len(t) != 4:
                        raise GameError(f"no output at ({q},{v})")
                moves = [((t[3], t[2]), profile.weight(t)) for t in group]
        product[node] = moves
        for nxt in sorted({nxt for nxt, _ in moves}):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return product


# ---------------------------------------------------------------------------
# induced Markov chain


class Chain:
    """Finite Markov chain over (vertex, memory-state) pairs.

    states: list of (vertex, state); trans: index -> list of (index, prob);
    terminal states are absorbing and carry the game's payoff table.
    """

    def __init__(self, states, trans, init_idx, terminal_of):
        self.states = states
        self.trans = trans
        self.init = init_idx
        self.terminal_of = terminal_of


def induced_chain(game, profile):
    """Markov chain of a profile covering every controlled vertex: the
    chain of `profile_product` with no free player.  Weights on co-enabled
    owned transitions, uniform by default."""
    if game.mode != "terminal":
        raise GameError("induced_chain needs terminal mode")
    return product_chain(game, covered_product(game, profile))


def covered_product(game, profile):
    """`profile_product` with no free player of a valid, covering profile."""
    arena = game.arena
    profile.validate(arena)
    uncovered = [v for v in arena.vertices if arena.owner[v] not in
                 profile.owners + (CHANCE, TERMINAL)]
    if uncovered:
        raise GameError(f"uncovered controlled vertex {uncovered[0]}")
    return profile_product(game, profile, None)


def product_chain(game, product, fixed=None):
    """The Markov chain of a `profile_product` map, its nodes numbered in
    the map's order (the start node first) and each row merged per
    successor; a node in `fixed` moves only to fixed[node]."""
    fixed = fixed or {}
    states = list(product)
    index = {s: k for k, s in enumerate(states)}
    trans = []
    for s in states:
        acc = {}
        for t, p in [(fixed[s], 1)] if s in fixed else product[s]:
            acc[index[t]] = acc.get(index[t], Fraction(0)) + p
        trans.append(sorted(acc.items()))
    terminal_of = {k: s[0] for k, s in enumerate(states)
                   if game.arena.is_terminal(s[0])}
    return Chain(states, trans, 0, terminal_of)


def chain_hit_probabilities(chain):
    """Exact probability, from init, of absorbing in each terminal state.

    Returns (dict terminal-vertex -> prob, non-termination prob).  States in
    a reachable bottom SCC without terminals never terminate.
    """
    n = len(chain.states)
    probs = {}
    for i, v in chain.terminal_of.items():
        probs.setdefault(v, Fraction(0))
    terms = sorted(probs)
    # states that can reach some terminal at all; the rest have hit
    # probability 0 everywhere (they sit above terminal-free bottom SCCs)
    pred = [[] for _ in range(n)]
    for i in range(n):
        for j, _ in chain.trans[i]:
            pred[j].append(i)
    can = reach(pred, chain.terminal_of)
    # linear system x_i(t) = sum_j p_ij x_j(t) restricted to reaching
    # transients; that block of I - P is nonsingular
    transient = [i for i in sorted(can) if i not in chain.terminal_of]
    tindex = {i: k for k, i in enumerate(transient)}
    m = len(transient)
    a = [[Fraction(0)] * m for _ in range(m)]
    b = [[Fraction(0)] * len(terms) for _ in range(m)]
    tpos = {v: k for k, v in enumerate(terms)}
    for i in transient:
        r = tindex[i]
        a[r][r] = Fraction(1)
        for j, p in chain.trans[i]:
            if j in chain.terminal_of:
                b[r][tpos[chain.terminal_of[j]]] += p
            elif j in can:
                a[r][tindex[j]] -= p
    sol = _solve_linear(a, b)
    if chain.init in chain.terminal_of:
        v0 = chain.terminal_of[chain.init]
        for v in terms:
            probs[v] = Fraction(1) if v == v0 else Fraction(0)
    elif chain.init in can:
        r = tindex[chain.init]
        for v in terms:
            probs[v] = sol[r][tpos[v]]
    nonterm = Fraction(1) - sum(probs.values(), Fraction(0))
    return probs, nonterm


def _solve_linear(a, b):
    """Gaussian elimination over exact rationals; a is square, b multi-rhs.

    Rows that are unreachable-from-terminal produce a singular block; those
    hit probabilities are 0, handled by treating free variables as 0.
    """
    n = len(a)
    if n == 0:
        return []
    w = len(b[0]) if b else 0
    mat = [list(a[i]) + list(b[i]) for i in range(n)]
    piv_cols = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, n):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        pv = mat[row][col]
        mat[row] = [x / pv for x in mat[row]]
        for r in range(n):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[row])]
        piv_cols.append(col)
        row += 1
        if row == n:
            break
    sol = [[Fraction(0)] * w for _ in range(n)]
    for r, col in enumerate(piv_cols):
        for k in range(w):
            sol[col][k] = mat[r][n + k]
    return sol
