import contextlib
import functools
import gc
import io
import json
import os
import random
import shlex
import subprocess
import sys
import types
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import equilibra
from equilibra import cli, corpus
from equilibra.cli import run
from equilibra.games import parse_game, parse_memory, serialize_memory
from equilibra.nash import Query
from equilibra.stochastic import RiskPartition, xrse_search_bounded
from conftest import load_memory, random_terminal_game

# a stationary profile of `lottery`: circle plays b -> c
BLUE = {"states": ["q0"], "initial": "q0", "owners": ["circle"],
        "transitions": [
            {"from": "q0", "reads": "a", "to": "q0"},
            {"from": "q0", "reads": "b", "to": "q0", "emit": "c"},
            {"from": "q0", "reads": "c", "to": "q0"}]}


# circle picks between terminals paying 5 and 1
FORK = {"players": ["circle"], "mode": "terminal", "init": "a",
        "vertices": [{"id": "a", "owner": "circle"},
                     {"id": "tA", "owner": "terminal"},
                     {"id": "tB", "owner": "terminal"}],
        "edges": [{"from": "a", "to": "tA"}, {"from": "a", "to": "tB"}],
        "terminals": {"tA": {"circle": "5"}, "tB": {"circle": "1"}}}


def fork_profile(weight_a, weight_b):
    return {"states": ["q0"], "initial": "q0", "owners": ["circle"],
            "transitions": [
                {"from": "q0", "reads": "a", "to": "q0", "emit": "tA",
                 "weight": weight_a},
                {"from": "q0", "reads": "a", "to": "q0", "emit": "tB",
                 "weight": weight_b}]}


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_validate_and_corpus(capsys):
    code, doc = run_cli(capsys, "corpus-list")
    assert code == 0 and len(doc["payload"]["names"]) >= 10
    for name in doc["payload"]["names"]:
        if name.startswith("machine"):
            continue
        code, vdoc = run_cli(capsys, "validate", name)
        assert code == 0 and vdoc["answer"] == "yes"


def test_validate_garbage(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{ not json")
    code, doc = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert doc["answer"] == "error"
    assert doc["diagnostics"]


def test_nego_iterate_sans(capsys):
    code, doc = run_cli(capsys, "nego-iterate", "corpus/sans_spe.json",
                        "--max", "8")
    assert code == 0
    last = doc["payload"]["iterates"][-1]
    assert last["a"] == "+inf" and last["b"] == "+inf"
    assert doc["payload"]["converged"] is True


def test_eval_and_ne(capsys):
    code, doc = run_cli(capsys, "eval", "fig_ne_spe", "--lasso", "a,b;c",
                        "--player", "circle")
    assert code == 0 and doc["payload"]["value"] == "1"
    code, doc = run_cli(capsys, "ne-check", "fig_ne_spe", "--lasso", ";a")
    assert code == 0 and doc["answer"] == "yes"
    code, doc = run_cli(capsys, "ne-check", "fig_ne_spe", "--lasso", "a;b")
    assert code == 0 and doc["answer"] == "no"
    code, doc = run_cli(capsys, "ne-exists", "fig_ne_spe",
                        "--lower", "circle=1", "--lower", "square=1")
    assert doc["answer"] == "yes" and doc["payload"]["lasso"] == "a,b;c"


def test_spe_and_epsmin(capsys):
    code, doc = run_cli(capsys, "spe-exists", "fig_ne_spe",
                        "--lower", "circle=1", "--lower", "square=1")
    assert doc["answer"] == "yes"
    code, doc = run_cli(capsys, "spe-exists", "sans_spe")
    assert doc["answer"] == "no"
    code, doc = run_cli(capsys, "eps-min", "sans_spe", "--precision", "10")
    assert doc["answer"] == "yes" and doc["payload"]["eps_min"] == "1"


def test_xrse_commands(capsys):
    code, doc = run_cli(capsys, "xrse-exists", "corpus/ex_extreme1.json",
                        "--pessimists", "all")
    assert code == 0 and doc["answer"] == "yes"
    removed = {"a->t1", "b->t2"} - set(doc["payload"]["edges"])
    assert len({e for e in ("a->t1", "b->t2")
                if e not in doc["payload"]["edges"]}) == 1
    code, doc = run_cli(capsys, "xrse-search", "ex_extreme1",
                        "--pessimists", "all", "--memory-bound", "2",
                        "--lower", "circle=1", "--lower", "square=1",
                        "--upper", "circle=1", "--upper", "square=1")
    assert code == 0 and doc["answer"] == "no"
    assert "memory-bound" in doc["payload"]["scope"]


def test_rational_verify_cli(capsys):
    code, doc = run_cli(capsys, "rational-verify", "fig_first_example",
                        "--machine", "machine_1player",
                        "--leader", "square", "--threshold", "9/10",
                        "--concept", "spe")
    assert code == 0 and doc["answer"] == "yes"
    assert doc["payload"]["product_vertices"] == 10


def test_er_eval_cli(tmp_path, capsys):
    prof = tmp_path / "blue.json"
    prof.write_text(json.dumps(BLUE))
    code, doc = run_cli(capsys, "er-eval", "lottery", "--profile",
                        str(prof), "--player", "circle",
                        "--rho", "circle=0")
    assert code == 0 and doc["payload"]["value"] == "1"
    code, doc = run_cli(capsys, "er-eval", "lottery", "--profile",
                        str(prof), "--player", "circle",
                        "--rho", "circle=1")
    assert doc["payload"]["value"].startswith("0.02531780")


def test_erse_verify_is_exact_where_every_rho_is_0(tmp_path, capsys):
    # circle's profile takes tA; deviating to tB gains exactly 10^-12
    fork, to_a = tmp_path / "fork.json", tmp_path / "to_a.json"
    fork.write_text(json.dumps(dict(FORK, terminals={
        "tA": {"circle": "1"},
        "tB": {"circle": "1000000000001/1000000000000"}})))
    to_a.write_text(json.dumps({
        "states": ["q0"], "initial": "q0", "owners": ["circle"],
        "transitions": [{"from": "q0", "reads": "a", "to": "q0",
                         "emit": "tA"}]}))
    argv = ["erse-verify", str(fork), "--profile", str(to_a)]
    for rho in [[], ["--rho", "circle=0"]]:
        code, doc = run_cli(capsys, *argv, *rho)
        assert (code, doc["answer"]) == (0, "no")
        assert doc["payload"] == {"tolerance": "exact"}
    # rho 1 still compares with a tolerance
    _, doc = run_cli(capsys, *argv, "--rho", "circle=1")
    assert doc["payload"] == {"tolerance": "1e-9"}


def test_byte_stability(capsys):
    outs = set()
    for _ in range(3):
        code = run(["spe-exists", "fig_ne_spe", "--lower", "circle=1"])
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        code = run(["xrse-exists", "ex_extreme1", "--pessimists", "all"])
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


def test_memory_json_is_the_serialized_document():
    arena = corpus.load_game("fig_first_example").arena
    profiles = [load_memory(name, arena) for name in corpus.MACHINES]
    profiles.append(parse_memory(json.dumps(fork_profile("1/3", "2/3")),
                                 parse_game(json.dumps(FORK)).arena))
    rng = random.Random(7)
    for _ in range(40):
        game = random_terminal_game(rng)
        res = xrse_search_bounded(game, RiskPartition(game, game.players),
                                  Query(), 2)
        if res["answer"] == "yes":
            profiles.append(res["profile"])
    assert len(profiles) > 10
    for m in profiles:
        assert json.loads(cli._dumps(m)) == json.loads(serialize_memory(m))


# -- the table path against argparse ------------------------------------------

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")
# values argparse reads as values ("-1", "-.5", ""), as options ("-1/2",
# "-x", "-h") and as the end of options ("--")
ODD_VALUES = ["-1/2", "-x", "--", "-h", "ten"]
ODD_FLAGS = ["--", "-h", "--help", "--format", "--bogus"]


def readme_command_lines():
    """The argv of each command line in README's "Command line" block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.strip()]


def rarely(draw, odds):
    return draw(st.integers(0, odds - 1)) == 0


@st.composite
def command_lines(draw):
    """Mostly well-formed argv for one command of `cli.COMMANDS`, each part
    now and then made odd: abbreviated or unknown flags, values argparse
    reads as options, missing values, options or positionals, an extra
    positional, a top-level option."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    arguments = cli.COMMANDS[name][1]
    items = [[draw(st.sampled_from(["sans_spe", "-1", ""]))]
             for flag, _ in arguments if not flag.startswith("--")]
    if rarely(draw, 15):
        items.append(["extra"])
    if rarely(draw, 15):
        items = items[1:]
    for flag, kw in arguments + [(f, {}) for f in ODD_FLAGS
                                 if rarely(draw, 60)]:
        if not flag.startswith("-"):
            continue
        repeats = 0 if rarely(draw, 10) else 2 if rarely(draw, 4) else 1
        for _ in range(repeats):
            if len(flag) > 3 and rarely(draw, 20):
                flag = flag[:draw(st.integers(3, len(flag) - 1))]
            good = ([str(c) for c in kw["choices"]] if "choices" in kw
                    else ["2", "-1", "0"] if kw.get("type") is int
                    else ["circle=1", "-1", "-.5", "", "all", "x"])
            value = draw(st.sampled_from(
                ODD_VALUES if rarely(draw, 20) else good))
            form = ("bare" if rarely(draw, 30) else
                    draw(st.sampled_from(["space", "space", "="])))
            items.append({"space": [flag, value], "=": [f"{flag}={value}"],
                          "bare": [flag]}[form])
    argv = [name] + [w for item in draw(st.permutations(items))
                     for w in item]
    if rarely(draw, 15):
        argv = ["--format", "pretty"] + argv
    return argv


def argparse_namespace(argv):
    """vars() of argparse's Namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(list(argv)))
        except SystemExit:
            return None


def check_table_path(argv):
    """The table path's Namespace equals argparse's wherever it gives one,
    so it declines wherever argparse exits; True iff it gave one."""
    got = cli._parse_plain(list(argv))
    if got is not None:
        assert vars(got) == argparse_namespace(argv), argv
    return got is not None


@settings(max_examples=600, deadline=None)
@given(command_lines())
def test_table_path_agrees_with_argparse(argv):
    check_table_path(argv)


@pytest.mark.parametrize("argv", [
    ["--help"], ["validate", "--help"], ["validate", "sans_spe", "-h"],
    ["--format", "pretty", "validate", "sans_spe"],
    ["validate", "--", "sans_spe"], ["validate", "sans_spe", "extra"],
    ["corpus-list", "extra"], ["eval", "fig_ne_spe", "--lasso", ";a"],
    ["nego-iterate", "sans_spe", "--ma", "8"],
    ["nego-iterate", "sans_spe", "--max", "-x"],
    ["achaotic-verify", "chaos", "--leader", "leader", "--threshold",
     "-1/2"],
    ["rational-verify", "fig_first_example", "--leader", "square",
     "--threshold", "1", "--concept", "both"],
    ["eps-min", "sans_spe", "--precision", "ten"], []])
def test_table_path_declines(argv):
    assert not check_table_path(argv)


@pytest.mark.parametrize("argv, flag", [
    (["spe-exists", "sans_spe", "--eps=--"], "--eps"),
    (["spe-exists", "sans_spe", "--eps", "--"], "--eps"),
    (["ne-check", "fig_ne_spe", "--lasso=--"], "--lasso"),
    (["nego-iterate", "sans_spe", "--max=--"], "--max"),
    (["spe-exists", "sans_spe", "--lower", "circle=0", "--lower=--"],
     "--lower")])
def test_stripped_double_dash_value_is_a_usage_error(argv, flag, capsys):
    # argparse stores [] for an explicit "--" value
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {flag}: expected one argument" in err


def test_table_path_reads_readme_command_lines():
    lines = readme_command_lines()
    assert len(lines) >= 15
    for argv in lines:
        assert check_table_path(argv), argv


def child_env():
    """Environment in which a child process imports the same equilibra as
    this process, installed or not."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(equilibra.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_console_script():
    res = subprocess.run([sys.executable, "-m", "equilibra.cli",
                          "validate", "fig_ne_spe"],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0
    assert json.loads(res.stdout)["answer"] == "yes"


# runs each argv list of argv[1] through `run` in one fresh process and
# prints, after each, whether mpmath has been imported
MPMATH_PROBE = """
import contextlib, io, json, sys
from equilibra.cli import run
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0, argv
    loaded.append("mpmath" in sys.modules)
print(json.dumps(loaded))
"""


def test_mpmath_loaded_only_by_entropic_commands(tmp_path):
    blue = tmp_path / "blue.json"
    blue.write_text(json.dumps(BLUE))
    stay = tmp_path / "stay.json"
    stay.write_text(json.dumps({
        "states": ["q0"], "initial": "q0", "owners": ["circle", "square"],
        "transitions": [
            {"from": "q0", "reads": "a", "to": "q0", "emit": "t1"},
            {"from": "q0", "reads": "b", "to": "q0", "emit": "t2"}]}))
    exact = [["validate", "sans_spe"], ["nego", "sans_spe"],
             ["spe-exists", "inf_spe", "--lower", "circle=1"],
             ["ne-exists", "fig_ne_spe", "--lower", "circle=1"],
             ["xrse-search", "ex_extreme2", "--memory-bound", "1"],
             ["xrse-verify", "ex_extreme1", "--profile", str(stay)],
             ["rational-verify", "fig_first_example", "--machine",
              "machine_1player", "--leader", "square", "--threshold",
              "9/10"]]
    entropic = [["er-eval", "lottery", "--profile", str(blue), "--player",
                 "circle", "--rho", "circle=1"]]
    res = subprocess.run(
        [sys.executable, "-c", MPMATH_PROBE, json.dumps(exact + entropic)],
        capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [False] * len(exact) + [True]


def test_parser_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    assert run(["validate", "sans_spe"]) == 0
    assert run(["ne-exists", "fig_ne_spe", "--lower", "circle=1"]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # a repeatable option starts empty on every use of the shared parser
    assert cli.build_parser().parse_args(["ne-exists", "x"]).lower is None


def test_queries_leave_no_function_in_a_reference_cycle(capsys):
    # a self-recursive closure is a reference cycle: it and what it captures
    # (arenas, games) wait for the cyclic collector instead of dying with
    # the call, and a collection can start anywhere
    gc.collect()
    flags = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in (["nego-iterate", "sans_spe"], ["ne-exists", "chaos"],
                     ["spe-exists", "inf_spe", "--eps=1"],
                     ["eps-min", "sans_spe"],
                     ["nego-iterate", "fig_first_example"],
                     ["xrse-search", "ex_extreme2", "--pessimists", "all",
                      "--memory-bound", "2"]):
            assert run(argv) == 0, argv
        gc.collect()
        cyclic = sorted({f"{x.__module__}.{x.__qualname__}"
                         for x in gc.garbage
                         if isinstance(x, types.FunctionType)
                         and (x.__module__ or "").startswith("equilibra")})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert cyclic == []


@functools.cache
def sans_witness():
    """The witness `spe-exists sans_spe --eps=1` prints, as JSON text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(["spe-exists", "sans_spe", "--eps=1"])
    return json.dumps(json.loads(out.getvalue())["payload"]["witness"])


# that witness made malformed
WITNESS_EDITS = {
    "no_lambda": lambda doc: doc["lambda"].pop("d"),
    "empty_history": lambda doc: doc["prover"]["a"]["a"].update(h=[]),
    "unknown_root": lambda doc: doc["prover"].update(z=doc["prover"]["a"]),
    "unknown_w": lambda doc: (doc["W"].append("z"), doc["Wp"].append("z")),
    "unknown_key": lambda doc: doc["prover"]["a"].update(
        z=dict(doc["prover"]["a"]["a"], h=["z"])),
}


@pytest.mark.parametrize("argv,needle", [
    (["nego", "sans_spe", "--requirement", "{missing}"], "--requirement"),
    (["fixed-point", "fig_ne_spe", "--requirement", "{truncated}"],
     "--requirement"),
    (["nego", "sans_spe", "--requirement", "{truncated}"], "--requirement"),
    (["spe-check-witness", "inf_spe", "--witness", "{missing}"],
     "--witness"),
    (["spe-check-witness", "inf_spe", "--witness", "{no_alpha}"],
     "--witness"),
    (["spe-exists", "inf_spe", "--eps", "abc"], "--eps"),
    (["fixed-point", "fig_ne_spe", "--requirement", "{lam}", "--eps",
      "1/0"], "--eps"),
    (["ne-exists", "fig_ne_spe", "--lower", "circle=abc"], "--lower"),
    (["spe-exists", "inf_spe", "--upper", "circle=2/4"], "--upper"),
    (["rational-verify", "fig_first_example", "--machine",
      "machine_1player", "--leader", "square", "--threshold", "x"],
     "--threshold"),
    (["er-eval", "lottery", "--profile", "{blue}", "--player", "circle",
      "--rho", "circle"], "--rho"),
    (["er-eval", "lottery", "--profile", "{blue}", "--player", "circle",
      "--rho", "circle=one"], "--rho"),
    (["erse-verify", "lottery", "--profile", "{blue}", "--base", "two"],
     "--base"),
    (["validate", "{directory}"], "IsADirectoryError"),
    (["validate", "{latin1}"], "UnicodeDecodeError"),
    (["xrse-verify", "ex_extreme1", "--profile", "{latin1}"],
     "UnicodeDecodeError"),
    (["xrse-verify", "{fork}", "--profile", "{zero_weight}",
      "--pessimists", "all"], "weight 0 of"),
    (["er-eval", "{fork}", "--profile", "{heavy}", "--player", "circle",
      "--rho", "circle=0"], "weight 2 of"),
    (["er-eval", "{fork}", "--profile", "{heavy}", "--player", "circle",
      "--rho", "circle=1"], "weight 2 of"),
    (["validate", "{no_owner}"], "malformed game: KeyError: 'owner'"),
    (["xrse-verify", "lottery", "--profile", "{empty}"],
     "malformed memory structure: KeyError: 'transitions'"),
    (["xrse-verify", "lottery", "--profile", "{no_reads}"],
     "malformed memory structure: KeyError: 'reads'"),
    (["xrse-verify", "lottery", "--profile", "{list}"],
     "malformed memory structure: TypeError"),
    (["eps-min", "sans_spe", "--precision=-3"], "precision -3 is negative"),
    (["achaotic-verify", "chaos", "--leader=leader", "--threshold=0",
      "--precision=-2"], "precision -2 is negative"),
    (["xrse-search", "lottery", "--memory-bound=0"],
     "memory bound 0 is not at least 1"),
    (["xrse-search", "lottery", "--memory-bound=-1"],
     "memory bound -1 is not at least 1"),
    (["validate", "{bad_prob}"],
     "malformed game: ValueError: invalid literal for int()"),
    (["xrse-verify", "{fork}", "--profile", "{bad_weight}"],
     "malformed memory structure: ValueError: rational '1/0'"),
    (["product", "fig_first_example", "--machine", "{repeated}",
      "--leader", "square"], "transition ('q0', 'b', 'q0', 'b') is listed "
     "twice"),
    (["spe-check-witness", "sans_spe", "--eps=1", "--witness", "{no_lambda}"],
     "lambda misses vertex d"),
    (["spe-check-witness", "sans_spe", "--eps=1", "--witness",
      "{empty_history}"], "empty family history at a"),
    (["spe-check-witness", "sans_spe", "--eps=1", "--witness",
      "{unknown_root}"], "unknown prover root vertex z"),
    (["spe-check-witness", "sans_spe", "--eps=1", "--witness",
      "{unknown_w}"], "unknown W vertex z"),
    (["spe-check-witness", "sans_spe", "--eps=1", "--witness",
      "{unknown_key}"], "unknown prover map vertex z"),
    (["eval", "fig_ne_spe", "--lasso", "a;b", "--player", "zz"],
     "unknown player 'zz' in --player"),
    (["eval", "sans_spe", "--lasso", ";d", "--player", "zz"],
     "unknown player 'zz' in --player"),
    (["er-eval", "lottery", "--profile", "{blue}", "--player", "zz"],
     "unknown player 'zz' in --player"),
    (["er-eval", "lottery", "--profile", "{blue}", "--player", "circle",
      "--rho", "zz=1"], "unknown player 'zz' in --rho"),
    (["er-eval", "lottery", "--profile", "{blue}", "--player", "circle",
      "--rho", "circle=1", "--precision", "0"],
     "precision 0 is not at least 1"),
    (["nego-iterate", "sans_spe", "--max=-1"], "--max -1 is negative"),
    (["spe-exists", "inf_spe", "--max", "-3"], "--max -3 is negative"),
    (["spe-exists", "fig_ne_spe", "--max", "-3"], "--max -3 is negative"),
    (["eps-min", "sans_spe", "--max=-2"], "--max -2 is negative"),
    (["rational-verify", "fig_first_example", "--machine",
      "machine_1player", "--leader", "square", "--threshold", "9/10",
      "--max", "-1"], "--max -1 is negative"),
    (["achaotic-verify", "chaos", "--leader=leader", "--threshold=0",
      "--max=-4"], "--max -4 is negative"),
    (["nego", "fig_ne_spe", "--requirement", "{extra_vertex}"],
     "requirement names unknown vertex zz"),
    (["fixed-point", "fig_ne_spe", "--requirement", "{extra_vertex}"],
     "requirement names unknown vertex zz"),
])
def test_bad_input_is_an_error_answer(tmp_path, capsys, argv, needle):
    files = {"missing": tmp_path / "missing.json",
             "truncated": tmp_path / "truncated.json",
             "no_alpha": tmp_path / "no_alpha.json",
             "lam": tmp_path / "lam.json", "blue": tmp_path / "blue.json",
             "extra_vertex": tmp_path / "extra_vertex.json",
             "directory": tmp_path, "latin1": tmp_path / "latin1.json",
             "fork": tmp_path / "fork.json",
             "zero_weight": tmp_path / "zero_weight.json",
             "heavy": tmp_path / "heavy.json",
             "no_owner": tmp_path / "no_owner.json",
             "empty": tmp_path / "empty.json",
             "no_reads": tmp_path / "no_reads.json",
             "list": tmp_path / "list.json",
             "bad_prob": tmp_path / "bad_prob.json",
             "bad_weight": tmp_path / "bad_weight.json",
             "repeated": tmp_path / "repeated.json"}
    files["latin1"].write_bytes(b"\xff{}")
    files["fork"].write_text(json.dumps(FORK))
    files["zero_weight"].write_text(json.dumps(fork_profile("1", "0")))
    files["heavy"].write_text(json.dumps(fork_profile("2", "-1")))
    files["no_owner"].write_text(json.dumps(
        dict(FORK, vertices=[{"id": "a"}] + FORK["vertices"][1:])))
    files["empty"].write_text("{}")
    no_reads = json.loads(json.dumps(BLUE))
    del no_reads["transitions"][1]["reads"]
    files["no_reads"].write_text(json.dumps(no_reads))
    files["list"].write_text("[]")
    files["bad_prob"].write_text(json.dumps(
        dict(FORK, edges=[{"from": "a", "to": "tA", "prob": "abc"}])))
    files["bad_weight"].write_text(json.dumps(fork_profile("1/0", "1")))
    repeated = json.loads(corpus.read_text("machine_1player"))
    repeated["transitions"].append(repeated["transitions"][2])
    files["repeated"].write_text(json.dumps(repeated))
    for name, edit in WITNESS_EDITS.items():
        doc = json.loads(sans_witness())
        edit(doc)
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    files["truncated"].write_text('{"a": "1", "b"')
    files["no_alpha"].write_text(json.dumps(
        {"W": ["a"], "Wp": ["a"], "lambda": {"a": "0"}, "prover": {}}))
    files["lam"].write_text(json.dumps({"a": "0", "b": "1", "c": "1"}))
    files["extra_vertex"].write_text(json.dumps(
        {"a": "1", "b": "0", "c": "0", "zz": "1"}))
    files["blue"].write_text(json.dumps(BLUE))
    argv = [a.format(**files) for a in argv]
    code = run(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2 and doc["answer"] == "error" and doc["payload"] == {}
    assert needle in doc["diagnostics"][0]
    assert captured.err == doc["diagnostics"][0] + "\n"


@pytest.mark.parametrize("argv", [
    ["nego-iterate", "sans_spe"], ["spe-exists", "inf_spe"],
    ["eps-min", "sans_spe"],
    ["rational-verify", "fig_first_example", "--machine", "machine_1player",
     "--leader", "square", "--threshold", "9/10"],
    ["achaotic-verify", "chaos", "--leader=leader", "--threshold=0"]])
def test_max_zero_is_an_answer(capsys, argv):
    # no iterate at all: an answer, "unknown" where it needs one
    code, doc = run_cli(capsys, *argv, "--max", "0")
    assert code == 0 and doc["answer"] in ("yes", "no", "unknown"), doc


# a mean-payoff game with a chance vertex, on which no requirement is
# defined: the negotiation commands once ended in KeyError: 'c'
CHANCE_MP = {"players": ["circle"], "mode": "mean-payoff", "init": "a",
             "vertices": [{"id": "a", "owner": "circle"},
                          {"id": "c", "owner": "chance"}],
             "edges": [{"from": "a", "to": "a", "rewards": {"circle": "0"}},
                       {"from": "a", "to": "c", "rewards": {"circle": "1"}},
                       {"from": "c", "to": "a", "prob": "1",
                        "rewards": {"circle": "2"}}]}


@pytest.mark.parametrize("command", ["validate", "nego-iterate",
                                     "spe-exists", "eps-min", "ne-exists"])
def test_chance_vertex_in_mean_payoff_is_an_error(tmp_path, capsys,
                                                  command):
    path = tmp_path / "chance_mp.json"
    path.write_text(json.dumps(CHANCE_MP))
    code = run([command, str(path)])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2 and doc["answer"] == "error" and doc["payload"] == {}
    assert doc["diagnostics"] == [
        "vertex c: no chance vertex in mean-payoff mode"]
    assert captured.err == doc["diagnostics"][0] + "\n"


def test_deviation_only_memory_update_must_not_read_the_output(tmp_path,
                                                              capsys):
    # circle's profile move a -> t1 never reaches b; at b square's memory
    # update depends on its output, which only circle's deviation reveals
    game = {"players": ["circle", "square"], "mode": "terminal",
            "init": "a",
            "vertices": [{"id": "a", "owner": "circle"},
                         {"id": "b", "owner": "square"},
                         {"id": "t1", "owner": "terminal"},
                         {"id": "tA", "owner": "terminal"},
                         {"id": "tB", "owner": "terminal"}],
            "edges": [{"from": "a", "to": "t1"}, {"from": "a", "to": "b"},
                      {"from": "b", "to": "tA"}, {"from": "b", "to": "tB"}],
            "terminals": {"t1": {"circle": "1", "square": "0"},
                          "tA": {"circle": "2", "square": "0"},
                          "tB": {"circle": "0", "square": "1"}}}
    reads = [("q0", "a", "q0", "t1"), ("q1", "a", "q1", "t1"),
             ("q0", "b", "q0", "tA"), ("q0", "b", "q1", "tB"),
             ("q1", "b", "q1", "tA")]
    profile = {"states": ["q0", "q1"], "initial": "q0",
               "owners": ["circle", "square"],
               "transitions": [{"from": q, "reads": v, "to": q2, "emit": w}
                               for q, v, q2, w in reads]}
    gfile, pfile = tmp_path / "dev.json", tmp_path / "dev_profile.json"
    gfile.write_text(json.dumps(game))
    pfile.write_text(json.dumps(profile))
    code, doc = run_cli(capsys, "xrse-verify", str(gfile), "--profile",
                        str(pfile), "--pessimists", "all")
    assert code == 2 and doc["answer"] == "error"
    assert doc["diagnostics"] == ["nondeterministic memory update at (q0,b)"]


def test_witness_roundtrip_cli(tmp_path, capsys):
    code, doc = run_cli(capsys, "spe-exists", "inf_spe",
                        "--lower", "circle=1", "--lower", "square=1",
                        "--upper", "circle=1", "--upper", "square=1")
    assert code == 0 and doc["answer"] == "yes"
    wfile = tmp_path / "witness.json"
    wfile.write_text(json.dumps(doc["payload"]["witness"]))
    code, doc = run_cli(capsys, "spe-check-witness", "inf_spe",
                        "--witness", str(wfile),
                        "--lower", "circle=1", "--lower", "square=1",
                        "--upper", "circle=1", "--upper", "square=1")
    assert code == 0 and doc["answer"] == "yes"


def test_product_rejects_discounted(tmp_path, capsys):
    game = {
        "players": ["circle", "leader"], "mode": "discounted-sum",
        "init": "a", "discount": "1/2",
        "vertices": [{"id": "a", "owner": "circle"}],
        "edges": [{"from": "a", "to": "a",
                   "rewards": {"circle": "1"}}]}
    gfile = tmp_path / "ds.json"
    gfile.write_text(json.dumps(game))
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({
        "states": ["q0"], "initial": "q0", "owners": ["leader"],
        "transitions": [{"from": "q0", "reads": "a", "to": "q0"}]}))
    code, doc = run_cli(capsys, "product", str(gfile),
                        "--machine", str(mfile), "--leader", "leader")
    assert code == 2 and doc["answer"] == "error"


def test_requirement_file_commands(tmp_path, capsys):
    lam1 = tmp_path / "lam1.json"
    lam1.write_text(json.dumps({"a": "0", "b": "1", "c": "1"}))
    code, doc = run_cli(capsys, "nego", "fig_ne_spe",
                        "--requirement", str(lam1))
    assert code == 0
    assert doc["payload"]["nego"] == {"a": "1", "b": "1", "c": "1"}
    code, doc = run_cli(capsys, "fixed-point", "fig_ne_spe",
                        "--requirement", str(lam1), "--eps", "0")
    assert doc["answer"] == "no"
    lam2 = tmp_path / "lam2.json"
    lam2.write_text(json.dumps({"a": "1", "b": "1", "c": "1"}))
    code, doc = run_cli(capsys, "fixed-point", "fig_ne_spe",
                        "--requirement", str(lam2), "--eps", "0")
    assert doc["answer"] == "yes"


# -- golden CLI text ---------------------------------------------------------
#
# `cli_golden.json` holds stdout, stderr and exit code of the help texts,
# the usage errors and one run of every command.  argparse words its
# messages differently across Python versions, so the file records the
# version it was written with.  Rewrite it (only when the CLI's text is
# meant to change) with `PYTHONPATH=src python tests/test_cli.py`.

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "cli_golden.json")
COMMANDS = ["validate", "eval", "nego", "nego-iterate", "fixed-point",
            "ne-check", "ne-exists", "spe-exists", "spe-check-witness",
            "eps-min", "product", "rational-verify", "achaotic-verify",
            "xrse-exists", "xrse-constrained", "xrse-search", "xrse-verify",
            "er-eval", "erse-verify", "energy-ne-verify", "corpus-list"]
# a corpus game for which every required option is missing
MISSING_OPTIONS = {
    "eval": "fig_ne_spe", "fixed-point": "fig_ne_spe",
    "ne-check": "fig_ne_spe", "spe-check-witness": "inf_spe",
    "product": "fig_first_example", "rational-verify": "fig_first_example",
    "achaotic-verify": "chaos", "xrse-verify": "ex_extreme1",
    "er-eval": "lottery", "erse-verify": "lottery",
    "energy-ne-verify": "fig_ne_spe"}
RUNS = [
    ["validate", "sans_spe"],
    ["--format", "pretty", "eval", "fig_ne_spe", "--lasso", "a,b;c",
     "--player", "circle"],
    ["nego", "sans_spe"],
    ["nego-iterate", "sans_spe", "--max", "8"],
    ["nego-iterate", "fig_ne_spe"],
    ["ne-check", "fig_ne_spe", "--lasso", ";a"],
    ["ne-exists", "fig_ne_spe", "--lower", "circle=1", "--upper",
     "square=1"],
    ["spe-exists", "inf_spe", "--lower", "circle=1", "--upper", "circle=1",
     "--lower", "square=1", "--upper", "square=1"],
    ["spe-exists", "sans_spe", "--eps", "1/2", "--max", "4"],
    ["spe-exists", "fig_first_example", "--eps", "1"],
    ["spe-exists", "fig_ne_spe", "--lower", "circle=1"],
    ["eps-min", "sans_spe", "--precision", "6", "--max", "8"],
    ["product", "fig_first_example", "--machine", "machine_1player",
     "--leader", "square"],
    ["rational-verify", "fig_first_example", "--machine", "machine_1player",
     "--leader", "square", "--threshold", "9/10", "--concept", "nash"],
    ["rational-verify", "fig_first_example", "--leader", "square",
     "--threshold", "9/10"],
    ["achaotic-verify", "chaos", "--leader", "leader",
     "--threshold=-1/2"],
    ["xrse-exists", "ex_extreme1"],
    ["xrse-exists", "ex_extreme2", "--pessimists", "none"],
    ["xrse-constrained", "ex_extreme1", "--lower", "circle=1"],
    ["xrse-search", "ex_extreme2", "--memory-bound", "1", "--lower",
     "circle=1"],
    ["xrse-search", "ex_extreme1", "--memory-bound", "1", "--lower",
     "circle=1", "--lower", "square=1", "--upper", "circle=1", "--upper",
     "square=1"],
    ["xrse-verify", "ex_extreme1", "--profile", "machine_1player"],
    ["er-eval", "lottery", "--profile", "machine_1player", "--player",
     "circle", "--rho", "circle=1"],
    ["erse-verify", "lottery", "--profile", "machine_1player"],
    ["energy-ne-verify", "fig_ne_spe", "--profile", "machine_1player"],
    ["corpus-list"],
    ["validate", "no-such-game"],
    ["spe-exists", "sans_spe", "--eps=--"],
]


def golden_cases():
    cases = [[], ["--help"], ["frobnicate", "sans_spe"],
             ["--format", "yaml", "validate", "sans_spe"],
             ["rational-verify", "fig_first_example", "--leader", "square",
              "--threshold", "1", "--concept", "both"]]
    for cmd in COMMANDS:
        cases.append([cmd, "--help"])
        cases.append([cmd] if cmd != "corpus-list" else [cmd, "extra"])
        if cmd in MISSING_OPTIONS:
            cases.append([cmd, MISSING_OPTIONS[cmd]])
    return cases + RUNS


def replay(argv):
    """(stdout, stderr, exit code) of one `run`, at a fixed terminal
    width."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": list(argv), "stdout": out.getvalue(),
            "stderr": err.getvalue(), "code": code}


def test_cli_text_matches_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["python"] != list(sys.version_info[:2]):
        pytest.skip(f"golden text written by Python {golden['python']}")
    assert [case["argv"] for case in golden["cases"]] == golden_cases()
    for case in golden["cases"]:
        assert replay(case["argv"]) == case, case["argv"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"python": list(sys.version_info[:2]),
                   "cases": [replay(argv) for argv in golden_cases()]},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
