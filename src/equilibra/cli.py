"""Command-line front end: machine-readable JSON answers on stdout,
diagnostics on stderr, exit 0 for any computed answer (including "no" and
"unknown") and 2 for usage or input errors.

Every command is declared once, in `COMMANDS`, and the parser is built from
that table once per process.  A well-formed command line (the command, its
positionals and exact long options) is read straight from the same table
(`_parse_plain`) into the Namespace argparse would give; every other one,
`--help`, abbreviations and usage errors included, goes to argparse, the
only source of help, usage and error text.  Handlers call the library
through this module's globals, so a tracer that rebinds those names sees
every call."""

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .rationals import parse_rational, parse_ext, format_ext, PINF, NINF
from .games import (GameError, Lasso, parse_game, serialize_game,
                    memory_doc, parse_memory, eval_lasso,
                    payoff_vector, product_game, vacuous_memory,
                    MemoryProfile)
from .negotiation import (vacuous_requirement, nego, nego_iterate,
                          is_eps_fixed_point, requirement_to_json,
                          requirement_from_json)
from .nash import Query, ne_outcome_check, ne_constrained_exists, \
    verify_ne_energy
from .spe import (spe_exists_parity, spe_exists_mp, epsilon_min_search,
                  check_mp_witness, MpWitness)
from .stochastic import (RiskPartition, EntropicParams, extreme_measure,
                         entropic_measure, verify_xrse, xrse_exists,
                         xrse_constrained_optimists, xrse_search_bounded,
                         verify_erse_stationary)
from .verification import rational_verify, achaotic_rational_verify_mp
from . import corpus


def _read_text(what, path):
    """The UTF-8 file `path`; a file that cannot be read or decoded is an
    input error."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise GameError(f"{what} {path}: {type(e).__name__}: {e}")


def _input_text(path, names, what):
    """The UTF-8 file `path`; where no such file exists, the corpus entry
    in `names` so named."""
    try:
        return _read_text(what, path)
    except ValueError:  # a GameError, or a NUL in the path
        if os.path.exists(path):
            raise
    name = os.path.splitext(os.path.basename(path))[0]
    if name in names:
        return corpus.read_text(name)
    raise GameError(f"no such {what}: {path}")


def _load_memory_arg(path, arena):
    text = _input_text(path, corpus.MACHINES, "memory-structure file")
    return parse_memory(text, arena)


def _read_json(option, path, decode):
    """`decode` of the JSON in the UTF-8 file `path`; an unreadable file or
    a document that `decode` cannot take apart is an input error."""
    text = _read_text(option, path)
    try:
        return decode(json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise GameError(f"{option} {path}: {type(e).__name__}: {e}")


def _rational(option, text, parse=parse_rational):
    try:
        return parse(text)
    except ValueError as e:
        raise GameError(f"{option}: bad rational {text!r} ({e})")


def _json_default(x):
    """The JSON form of an answer's values that `json` cannot write itself;
    `json.dumps` calls it on each one, and encodes what it returns."""
    if isinstance(x, Fraction) or x is PINF or x is NINF:
        return format_ext(x)
    mpmath = sys.modules.get("mpmath")
    if mpmath is not None and isinstance(x, mpmath.mpf):
        return mpmath.nstr(x, 20)
    if isinstance(x, Lasso):
        return str(x)
    if isinstance(x, MpWitness):
        return x.to_json()
    if isinstance(x, MemoryProfile):
        return memory_doc(x)
    if isinstance(x, (set, frozenset)):
        return sorted(x, key=str)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _dumps(result, indent=None):
    """An answer as the JSON text the CLI prints, keys sorted."""
    return json.dumps(result, sort_keys=True, default=_json_default,
                      indent=indent)


def _assignments(option, items, parse=parse_rational, players=None):
    """name -> value of a repeatable `name=p/q` option; with `players`,
    each name must be one of them."""
    out = {}
    for item in items or []:
        if "=" not in item:
            raise GameError(f"{option} {item!r} must be name=p/q")
        name, val = item.split("=", 1)
        if players is not None and name not in players:
            raise GameError(f"unknown player {name!r} in {option}")
        out[name] = _rational(option, val, parse)
    return out


def _player(args, game):
    if args.player not in game.players:
        raise GameError(f"unknown player {args.player!r} in --player")
    return args.player


def _thresholds(args, game):
    return Query(_assignments("--lower", args.lower, parse_ext, game.players),
                 _assignments("--upper", args.upper, parse_ext, game.players))


def _partition(args, game):
    spec = args.pessimists
    if spec is None or spec == "none":
        return RiskPartition(game, [])
    if spec == "all":
        return RiskPartition(game, list(game.players))
    return RiskPartition(game, [s for s in spec.split(",") if s])


def _rho(args, game):
    rho = _assignments("--rho", args.rho, players=game.players)
    base = "e" if args.base == "e" else _rational("--base", args.base)
    return EntropicParams(base, rho, precision=args.precision)


def _leader_args(args, game):
    """(game, memory structure, Leader, threshold) from the `LEADER`
    options; without --machine the memory structure is vacuous."""
    memory = (_load_memory_arg(args.machine, game.arena) if args.machine
              else vacuous_memory(game.arena, args.leader))
    return game, memory, args.leader, _rational("--threshold", args.threshold)


def _read_requirement(args, game):
    if not args.requirement:
        return vacuous_requirement(game)
    lam = _read_json("--requirement", args.requirement,
                     requirement_from_json)
    missing = [v for v in game.arena.vertices if v not in lam]
    if missing:
        raise GameError(f"requirement misses vertex {missing[0]}")
    unknown = [v for v in lam if v not in game.arena.graph.index]
    if unknown:
        raise GameError(f"requirement names unknown vertex {unknown[0]}")
    return lam


def _max_iters(args):
    if args.max < 0:
        raise GameError(f"--max {args.max} is negative")
    return args.max


def _trace_json(trace):
    return [{key: _edges(val) if key == "edges"
             else f"{val[0]}->{val[1]}" if key == "cut" else val
             for key, val in row.items()} for row in trace]


def _edges(edges):
    return [f"{u}->{v}" for (u, v) in edges]


def _yes_no(ok):
    return "yes" if ok else "no"


def _validate(args, game):
    return "yes", {"players": list(game.players), "mode": game.mode,
                   "vertices": len(game.arena.vertices),
                   "edges": len(game.arena.edges)}


def _eval(args, game):
    lasso = Lasso.parse(args.lasso)
    val = eval_lasso(game, lasso, _player(args, game))
    return "yes", {"value": val, "all": payoff_vector(game, lasso)}


def _nego(args, game):
    out = nego(game, _read_requirement(args, game))
    return "yes", {"nego": requirement_to_json(out)}


def _nego_iterate(args, game):
    seq, conv = nego_iterate(game, max_iters=_max_iters(args))
    return ("yes" if conv else "unknown",
            {"converged": conv,
             "iterates": [requirement_to_json(l) for l in seq]})


def _fixed_point(args, game):
    lam = _read_requirement(args, game)
    eps = _rational("--eps", args.eps)
    return (_yes_no(is_eps_fixed_point(game, lam, eps)),
            {"eps": format_ext(eps)})


def _ne_check(args, game):
    lasso = Lasso.parse(args.lasso)
    ok = ne_outcome_check(game, lasso)
    return _yes_no(ok), {"payoffs": payoff_vector(game, lasso)}


def _ne_exists(args, game):
    res = ne_constrained_exists(game, _thresholds(args, game))
    return res["answer"], res


def _spe_exists(args, game):
    query = _thresholds(args, game)
    eps = _rational("--eps", args.eps)
    max_iters = _max_iters(args)
    if game.mode == "parity":
        if eps != 0:
            raise GameError("parity SPE existence takes eps = 0")
        res = spe_exists_parity(game, query)
    else:
        res = spe_exists_mp(game, eps, query, max_iters=max_iters)
    payload = dict(res)
    if "lam" in payload:
        payload["lam"] = requirement_to_json(payload["lam"])
    return res["answer"], payload


def _spe_check_witness(args, game):
    query = _thresholds(args, game)
    eps = _rational("--eps", args.eps)
    witness = _read_json("--witness", args.witness, MpWitness.from_json)
    return _yes_no(check_mp_witness(game, eps, witness, query)), {}


def _eps_min(args, game):
    res = epsilon_min_search(game, precision_bits=args.precision,
                             max_iters=_max_iters(args))
    return res["answer"], {k: v for k, v in res.items() if k != "answer"}


def _product(args, game):
    memory = _load_memory_arg(args.machine, game.arena)
    prod = product_game(game, memory, args.leader)
    return "yes", json.loads(serialize_game(prod))


def _rational_verify(args, game):
    concept = "Nash" if args.concept == "nash" else "SubgamePerfect"
    res = rational_verify(*_leader_args(args, game), concept,
                          max_iters=_max_iters(args))
    return res["answer"], res


def _achaotic_verify(args, game):
    res = achaotic_rational_verify_mp(*_leader_args(args, game),
                                      max_iters=_max_iters(args),
                                      precision_bits=args.precision)
    return res["answer"], res


def _xrse_exists(args, game):
    partition = _partition(args, game)
    edges, measures, trace = xrse_exists(game, partition)
    return "yes", {"edges": _edges(edges), "measures": measures,
                   "trace": _trace_json(trace)}


def _xrse_constrained(args, game):
    partition = _partition(args, game)
    res = xrse_constrained_optimists(game, _thresholds(args, game),
                                     partition)
    payload = {"trace": _trace_json(res["trace"])}
    if "edges" in res:
        payload["edges"] = _edges(res["edges"])
        payload["measures"] = res["measures"]
    return res["answer"], payload


def _xrse_search(args, game):
    partition = _partition(args, game)
    res = xrse_search_bounded(game, partition, _thresholds(args, game),
                              args.memory_bound)
    if res["answer"] == "yes":
        return "yes", {"profile": res["profile"],
                       "states": res["states"]}
    return ("no", {"scope": f"memory-bound {args.memory_bound}"},
            ["exhausted all profiles within the memory bound; a larger "
             "bound could still admit an XRSE"])


def _xrse_verify(args, game):
    partition = _partition(args, game)
    profile = _load_memory_arg(args.profile, game.arena)
    ok = verify_xrse(game, partition, profile)
    measures = extreme_measure(game, partition, profile)
    return _yes_no(ok), {"measures": measures}


def _er_eval(args, game):
    profile = _load_memory_arg(args.profile, game.arena)
    params = _rho(args, game)
    val = entropic_measure(game, params, profile, _player(args, game))
    return "yes", {"value": val,
                   "tolerance": "exact" if isinstance(val, Fraction)
                   else f"float({params.precision} bits)"}


def _erse_verify(args, game):
    profile = _load_memory_arg(args.profile, game.arena)
    params = _rho(args, game)
    ok = verify_erse_stationary(game, params, profile)
    return _yes_no(ok), {"tolerance": "1e-9" if any(params.rho.values())
                         else "exact"}


def _energy_ne_verify(args, game):
    profile = _load_memory_arg(args.profile, game.arena)
    return _yes_no(verify_ne_energy(game, profile)), {}


def _corpus_list(args, game):
    return "yes", {"names": corpus.corpus_list()}


def _arg(flag, **kw):
    return flag, kw


def _int(flag, default):
    return _arg(flag, type=int, default=default)


GAME = _arg("game", help="game file or corpus name")
BOUNDS = [_arg("--lower", action="append", metavar="PLAYER=P/Q"),
          _arg("--upper", action="append", metavar="PLAYER=P/Q")]
EPS = _arg("--eps", default="0")
PLAYER = _arg("--player", required=True)
PROFILE = _arg("--profile", required=True)
PESSIMISTS = _arg("--pessimists", default="all")
LEADER = [_arg("--machine"), _arg("--leader", required=True),
          _arg("--threshold", required=True)]
ENTROPIC = [_arg("--rho", action="append"), _arg("--base", default="e"),
            _int("--precision", 113)]

# name -> (help, arguments, handler), in the order `--help` lists them
COMMANDS = {
    "validate": ("parse and validate a game file", [GAME], _validate),
    "eval": ("payoff of a lasso", [GAME, _arg(
        "--lasso", required=True,
        help="prefix;cycle, comma-separated vertices"), PLAYER], _eval),
    "nego": ("one application of the negotiation function", [GAME, _arg(
        "--requirement", help="JSON file (default: vacuous)")], _nego),
    "nego-iterate": ("negotiation iterates from lambda_0",
                     [GAME, _int("--max", 64)], _nego_iterate),
    "fixed-point": ("eps-fixed-point test for a requirement",
                    [GAME, _arg("--requirement", required=True), EPS],
                    _fixed_point),
    "ne-check": ("is a lasso an NE outcome",
                 [GAME, _arg("--lasso", required=True)], _ne_check),
    "ne-exists": ("constrained NE existence", [GAME, *BOUNDS], _ne_exists),
    "spe-exists": ("constrained (eps-)SPE existence",
                   [GAME, *BOUNDS, EPS, _int("--max", 64)], _spe_exists),
    "spe-check-witness": ("validate an eps-SPE witness", [
        GAME, _arg("--witness", required=True), EPS, *BOUNDS],
        _spe_check_witness),
    "eps-min": ("least eps admitting an eps-SPE",
                [GAME, _int("--precision", 24), _int("--max", 24)],
                _eps_min),
    "product": ("product with a Leader memory structure", [
        GAME, _arg("--machine", required=True),
        _arg("--leader", required=True)], _product),
    "rational-verify": ("rational verification", [
        GAME, *LEADER, _arg("--concept", choices=["nash", "spe"],
                            default="spe"), _int("--max", 64)],
        _rational_verify),
    "achaotic-verify": ("achaotic subgame-perfect verification", [
        GAME, *LEADER, _int("--precision", 16), _int("--max", 24)],
        _achaotic_verify),
    "xrse-exists": ("stationary XRSE construction", [GAME, PESSIMISTS],
                    _xrse_exists),
    "xrse-constrained": ("all-optimist constrained existence", [
        GAME, _arg("--pessimists", default="none"), *BOUNDS],
        _xrse_constrained),
    "xrse-search": ("bounded-memory XRSE search", [
        GAME, PESSIMISTS, _int("--memory-bound", 2), *BOUNDS], _xrse_search),
    "xrse-verify": ("XRSE check for a profile", [GAME, PROFILE, PESSIMISTS],
                    _xrse_verify),
    "er-eval": ("entropic risk of a profile",
                [GAME, PROFILE, PLAYER, *ENTROPIC], _er_eval),
    "erse-verify": ("stationary ERSE check", [GAME, PROFILE, *ENTROPIC],
                    _erse_verify),
    "energy-ne-verify": ("NE check in an energy game", [GAME, PROFILE],
                         _energy_ne_verify),
    "corpus-list": ("bundled corpus entries", [], _corpus_list),
}


@functools.cache
def build_parser():
    """The parser for `COMMANDS`, built once per process and shared."""
    p = argparse.ArgumentParser(
        prog="equilibra",
        description="equilibria in multiplayer graph games")
    p.add_argument("--format", choices=["json", "pretty"], default="json")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, arguments, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag, kw in arguments:
            sp.add_argument(flag, **kw)
    p.commands = sub.choices  # name -> sub-parser, for its usage errors
    return p


# argparse reads an argument that starts with "-" as an option unless it
# looks like a negative number (`ArgumentParser._negative_number_matcher`)
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_value(arg):
    """True iff argparse reads `arg` as a value, not as an option."""
    return not arg or arg[0] != "-" or _NEGATIVE.match(arg) is not None


@functools.cache
def _command_tables():
    """name -> (positional dests, {long option: (dest, type, choices,
    append)}, {dest: default}, required options), read from `COMMANDS`
    once per process, for `_parse_plain`."""
    tables = {}
    for name, (_, arguments, _) in COMMANDS.items():
        positionals, options, defaults, required = [], {}, {}, []
        for flag, kw in arguments:
            if flag.startswith("--"):
                dest = flag[2:].replace("-", "_")
                options[flag] = (dest, kw.get("type"), kw.get("choices"),
                                 kw.get("action") == "append")
                if kw.get("required"):
                    required.append(flag)
            else:
                dest = flag
                positionals.append(dest)
            defaults[dest] = kw.get("default")
        tables[name] = (positionals, options, defaults, required)
    return tables


def _parse_plain(argv):
    """The Namespace `build_parser().parse_args(argv)` returns, for an argv
    that names a command and then uses only its positionals and exact long
    options, as `--opt value` or `--opt=value`, with values argparse
    accepts; None for any other argv, which argparse then parses, explains
    or rejects."""
    if not argv or argv[0] not in COMMANDS:
        return None
    positionals, options, defaults, required = _command_tables()[argv[0]]
    values, seen, free = dict(defaults), set(), []
    k, n = 1, len(argv)
    while k < n:
        arg = argv[k]
        k += 1
        if _is_value(arg):
            free.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        if flag not in options or value == "--":
            return None  # argparse drops an explicit "--" value
        if not eq:
            if k == n or not _is_value(argv[k]):
                return None
            value = argv[k]
            k += 1
        dest, type_, choices, append = options[flag]
        if type_ is not None:
            try:
                value = type_(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = (values[dest] or []) + [value] if append else value
        seen.add(flag)
    if len(free) != len(positionals) or not seen.issuperset(required):
        return None
    values.update(zip(positionals, free))
    return argparse.Namespace(format="json", command=argv[0], **values)


def _reject_stripped_values(parser, args):
    """argparse drops an explicit "--" value (`--eps=--`) and stores [] in
    its place; end that as the usage error of a missing value."""
    options = _command_tables()[args.command][1]
    for flag, (dest, _, _, append) in options.items():
        value = getattr(args, dest)
        if value == [] or append and [] in (value or ()):
            parser.commands[args.command].error(
                f"argument {flag}: expected one argument")


def run(argv):
    parser = build_parser()
    args = _parse_plain(argv)
    if args is None:
        try:
            args = parser.parse_args(argv)
            _reject_stripped_values(parser, args)
        except SystemExit as e:
            return 2 if e.code not in (0,) else 0
    try:
        game = (parse_game(_input_text(args.game, corpus.GAMES,
                                       "game file or corpus entry"))
                if "game" in args else None)
        answer, payload, *diagnostics = COMMANDS[args.command][2](args, game)
        result = {"answer": answer, "payload": payload,
                  "diagnostics": diagnostics[0] if diagnostics else []}
    except GameError as e:
        result = {"answer": "error", "payload": {}, "diagnostics": [str(e)]}
    print(_dumps(result, indent=2 if args.format == "pretty" else None))
    for d in result["diagnostics"]:
        print(d, file=sys.stderr)
    return 2 if result["answer"] == "error" else 0


def main(argv=None):
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
