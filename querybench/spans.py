"""Outside-in tracing of equilibra's layers.

The tracer wraps the public functions of each layer (module) from
outside the program: it replaces every binding of each function object in
the loaded `equilibra.*` module namespaces, so calls through an alias
(`spe` binds `nego_mp` by name, `negotiation` binds `lex_min_vertex`,
`verification` and `cli` bind the `spe` entry points) are traced too.
Callables that one layer passes into another (the colour and successor
functions that negotiation hands to `zerosum.solve_parity`) are wrapped at
that boundary and charged to the module that defines them.

Each call becomes a span (name, start, end, parent, query).  Self time is
the span's duration minus the time of its child spans; it is summed per
name while the run goes, so the totals stay exact even where the in-memory
span log is capped.
"""

import array
import functools
import hashlib
import json
import sys
import time
import types

# layer (module under `equilibra`) -> traced public functions
TARGETS = {
    "cli": ["run"],
    "games": ["parse_game", "product_game", "induced_chain"],
    "negotiation": ["nego_mp", "nego_parity"],
    "simplex": ["lp_minimize", "lex_min_vertex"],
    "zerosum": ["karp_min_mean", "solve_parity", "simple_cycles",
                "mp_values"],
    "_kernels": ["scc", "attractor", "reachable"],
    "nash": ["ne_constrained_exists", "search_consistent_combo",
             "search_consistent_parity"],
    "spe": ["spe_exists_mp", "spe_exists_parity", "epsilon_min_search"],
    "stochastic": ["xrse_exists", "xrse_constrained_optimists",
                   "xrse_search_bounded", "verify_xrse"],
    "verification": ["rational_verify", "achaotic_rational_verify_mp"],
}
LAYERS = [m.lstrip("_") for m in TARGETS]
# layers whose callables are passed into traced functions of another layer
CALLBACK_LAYERS = ["games", "negotiation", "nash", "spe"]
MAX_SPANS = 1_000_000
_FUNCTION_TYPES = (types.FunctionType, types.MethodType)


def layer_of(module_name):
    """`equilibra._kernels.pure` -> `kernels`; None outside the package."""
    parts = module_name.split(".")
    if parts[0] != "equilibra" or len(parts) < 2:
        return None
    return parts[1].lstrip("_")


def _arg(args, kwargs, pos, name, default=()):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """Install with `install()`, remove with `uninstall()`; `begin_query`
    and `end_query` bracket each query."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.extra = {}
        self.kills = {}
        self.dropped = 0
        self._name = array.array("H")
        self._parent = array.array("i")
        self._query = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._stack = []  # open frames: [name id, span index, start, child s]
        self._query_id = -1
        self._games = {}
        self._nego_keys = set()
        self._restore = []

    # -- spans ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _open(self, nid):
        stack = self._stack
        if len(self._start) < MAX_SPANS:
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(stack[-1][1] if stack else -1)
            self._query.append(self._query_id)
            self._end.append(0.0)
            start = time.perf_counter()
            self._start.append(start)
        else:
            self.dropped += 1
            idx = -1
            start = time.perf_counter()
        stack.append([nid, idx, start, 0.0])

    def _close(self):
        end = time.perf_counter()
        nid, idx, start, child = self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if idx >= 0:
            self._end[idx] = end
        if self._stack:
            self._stack[-1][3] += dur

    def begin_query(self, query_id):
        self._query_id = query_id

    def end_query(self):
        """Close the spans of the calls a budget stop interrupted."""
        while self._stack:
            self._close()

    def in_bookkeeping(self, frame):
        """True when `frame` runs inside the tracer's own span bookkeeping,
        which a budget stop must not interrupt: the span arrays would fall
        out of step with each other."""
        while frame is not None:
            if frame.f_code in _BOOKKEEPING:
                return True
            frame = frame.f_back
        return False

    def record_kill(self):
        """Count a budget stop against the innermost open span's layer."""
        layer = self.names[self._stack[-1][0]].split(".")[0] \
            if self._stack else "none"
        self.kills[layer] = self.kills.get(layer, 0) + 1

    # -- wrapping ------------------------------------------------------

    def _wrap_callback(self, fn, layer):
        nid = self._id(f"{layer}.callbacks")
        tracer = self

        @functools.wraps(fn)
        def traced_callback(*args, **kwargs):
            tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
        return traced_callback

    def _wrap(self, fn, layer, name):
        nid = self._id(f"{layer}.{name}")
        count = getattr(self, f"_count_{name}", None)
        tracer = self

        def conv(x):
            if type(x) in _FUNCTION_TYPES:
                owner = layer_of(x.__module__ or "")
                if owner and owner != layer:
                    return tracer._wrap_callback(x, owner)
            return x

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if any(type(x) in _FUNCTION_TYPES
                   for x in (*args, *kwargs.values())):
                args = [conv(a) for a in args]
                kwargs = {k: conv(v) for k, v in kwargs.items()}
            if count is not None:
                count(args, kwargs)
            tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
        return traced

    def install(self):
        """Wrap every target and rebind each of its aliases."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "equilibra"
                                         or n.startswith("equilibra."))]
        for mod, fns in TARGETS.items():
            home = sys.modules[f"equilibra.{mod}"]
            for name in fns:
                fn = getattr(home, name)
                traced = self._wrap(fn, mod.lstrip("_"), name)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, traced)
                            self._restore.append((m, attr, fn))
        self._serialize = sys.modules["equilibra.games"].serialize_game

    def uninstall(self):
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore = []

    # -- per-function counts read from the arguments -------------------

    def _bump(self, key, n):
        self.extra[key] = self.extra.get(key, 0) + n

    def _count_nego_mp(self, args, kwargs):
        game, lam = _arg(args, kwargs, 0, "game"), _arg(args, kwargs, 1, "lam")
        entry = self._games.get(id(game))
        if entry is None:
            digest = hashlib.sha1(self._serialize(game).encode()).hexdigest()
            entry = self._games[id(game)] = (game, digest)
        self._nego_keys.add((entry[1], tuple(sorted(
            (v, str(x)) for v, x in lam.items()))))

    def _count_lp_minimize(self, args, kwargs):
        rows = len(_arg(args, kwargs, 1, "a_eq")) + len(
            _arg(args, kwargs, 3, "a_ge"))
        self._bump("simplex.lp_minimize.cells",
                   rows * len(_arg(args, kwargs, 0, "cost")))

    def _count_karp_min_mean(self, args, kwargs):
        self._bump("zerosum.karp_min_mean.nodes", _arg(args, kwargs, 0, "n"))
        self._bump("zerosum.karp_min_mean.edges",
                   len(_arg(args, kwargs, 1, "edges")))

    def _count_solve_parity(self, args, kwargs):
        self._bump("zerosum.solve_parity.vertices",
                   len(_arg(args, kwargs, 0, "vertices")))

    # -- results -------------------------------------------------------

    def metrics(self):
        """Per-layer metrics by name; zero for functions never called."""
        out = {}
        for mod, fns in TARGETS.items():
            for name in fns:
                nid = self._id(f"{mod.lstrip('_')}.{name}")
                out[f"{self.names[nid]}.calls"] = self.calls[nid]
                out[f"{self.names[nid]}.self_s"] = self.self_s[nid]
        for layer in CALLBACK_LAYERS:
            nid = self._id(f"{layer}.callbacks")
            out[f"{layer}.callbacks.calls"] = self.calls[nid]
            out[f"{layer}.callbacks.self_s"] = self.self_s[nid]
        for key in ("simplex.lp_minimize.cells", "zerosum.karp_min_mean.nodes",
                    "zerosum.karp_min_mean.edges",
                    "zerosum.solve_parity.vertices"):
            out[key] = self.extra.get(key, 0)
        calls = out["negotiation.nego_mp.calls"]
        out["negotiation.nego_mp.distinct"] = len(self._nego_keys)
        out["negotiation.nego_mp.distinct_frac"] = (
            len(self._nego_keys) / calls if calls else 0.0)
        for layer in LAYERS:
            out[f"{layer}.budget_kills"] = self.kills.get(layer, 0)
        return out

    def write_spans(self, path):
        """Spans as a JSON header plus the raw arrays, in that order:
        name ids (uint16), parent span (int32, -1 for a query root),
        query index (int32), start and end (float64, perf_counter s)."""
        header = {"names": self.names, "count": len(self._start),
                  "dropped": self.dropped,
                  "arrays": ["name:H", "parent:i", "query:i", "start:d",
                             "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self._name, self._parent, self._query, self._start,
                        self._end):
                arr.tofile(fh)


_BOOKKEEPING = (Tracer._open.__code__, Tracer._close.__code__)


def load_spans(path):
    """Read a file written by `Tracer.write_spans`; returns (header,
    list of (name, parent, query, start, end))."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for spec in header["arrays"]:
            arr = array.array(spec.split(":")[1])
            arr.fromfile(fh, header["count"])
            cols.append(arr)
    names = header["names"]
    return header, [(names[n], p, q, s, e) for n, p, q, s, e in zip(*cols)]
