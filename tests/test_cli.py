import json
import os
import subprocess
import sys

import pytest

import equilibra
from equilibra.cli import run


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
    prof.write_text(json.dumps({
        "states": ["q0"], "initial": "q0", "owners": ["circle"],
        "transitions": [
            {"from": "q0", "reads": "a", "to": "q0"},
            {"from": "q0", "reads": "b", "to": "q0", "emit": "c"},
            {"from": "q0", "reads": "c", "to": "q0"}]}))
    code, doc = run_cli(capsys, "er-eval", "lottery", "--profile",
                        str(prof), "--player", "circle",
                        "--rho", "circle=0")
    assert code == 0 and doc["payload"]["value"] == "1"
    code, doc = run_cli(capsys, "er-eval", "lottery", "--profile",
                        str(prof), "--player", "circle",
                        "--rho", "circle=1")
    assert doc["payload"]["value"].startswith("0.02531780")


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


def test_console_script():
    # the child imports the same equilibra as this process, installed or not
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(equilibra.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-m", "equilibra.cli",
                          "validate", "fig_ne_spe"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0
    assert json.loads(res.stdout)["answer"] == "yes"


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
