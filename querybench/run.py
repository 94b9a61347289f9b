"""Query benchmark for equilibra: one command per workload run.

    python3 querybench/run.py --workload mp-sweep --seed 0 --seconds 30 \
        --trace 0

Run from the root of a checkout.  The benchmark writes the seeded games
and the query list under querybench/.work/, starts fresh worker processes
(worker.py) that import `equilibra` from the checkout's `src`, checks every
answer, prints each metric as `name value unit`, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 gives the end-to-end metrics of an untraced pass; --trace 1
gives the per-layer metrics of a traced pass plus trace.overhead_frac,
from an untraced replay of the same queries.  README.md explains the
workloads and the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 20
# setup_s is given in seconds on a machine where worker.reference() takes
# REF_S seconds (2.1-4.1 ms on the one this was tuned on): its unit must be
# seconds, and wall-clock set-up time moved by 26% between two sets of runs
# as the shared machine's speed changed.
REF_S = 0.003
ANSWERS = ("yes", "no", "unknown")
UNITS = {"setup_s": "s", "queries_per_ref": "1/ref", "latency_p50_ref": "ref",
         "latency_slow_gm_ref": "ref", "answered_frac": "1",
         "peak_rss_mb": "MB"}


def fail(message):
    print(f"querybench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(*argv, timeout):
    """Run worker.py in a fresh process from the checkout root."""
    try:
        proc = subprocess.run([sys.executable,
                               os.path.join(HERE, "worker.py"), *argv],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(argv[:2])} ran past {timeout:g} s")
    if proc.returncode != 0:
        fail(f"worker {' '.join(argv[:2])} failed:\n{proc.stderr}")
    return proc.stdout


def run_pass(work, name, queries_file, budget, timeout, *extra):
    out = os.path.join(work, f"{name}.jsonl")
    worker("--queries", queries_file, "--out", out, "--budget", str(budget),
           *extra, timeout=timeout)
    with open(out) as fh:
        lines = [json.loads(line) for line in fh]
    return lines[:-1], lines[-1]


def check(queries, records):
    """Returns (query id, problem) pairs; none when every answer that came
    back is well formed."""
    problems = []
    for rec in records:
        if rec["status"] == "budget":
            continue
        argv = queries[rec["id"]]["argv"]
        if rec["status"] == "crash":
            problems.append((rec["id"], f"{argv} crashed:\n{rec['stderr']}"))
            continue
        try:
            answer = json.loads(rec["stdout"])["answer"]
        except (ValueError, KeyError, TypeError):
            answer = None
        if rec["rc"] != 0 or answer not in ANSWERS:
            problems.append((rec["id"], f"{argv} answered {answer!r} "
                                        f"(exit {rec['rc']}): "
                                        f"{rec['stdout'][:300]}"))
    return problems


def witness_checks(queries, records, inputs, wrong):
    """Independent re-verification queries for the `yes` answers that carry
    a witness: mean-payoff spe-exists via spe-check-witness, xrse-search via
    xrse-verify."""
    checks = []
    for rec in records:
        if rec["status"] != "ok" or rec["id"] in wrong:
            continue
        argv = queries[rec["id"]]["argv"]
        doc = json.loads(rec["stdout"])
        if doc["answer"] != "yes":
            continue
        path = os.path.join(os.path.relpath(inputs, ROOT),
                            f"witness-{rec['id']}.json")
        flags = [a for a in argv[2:] if a.startswith(("--lower", "--upper",
                                                      "--eps"))]
        if argv[0] == "spe-exists" and "witness" in doc["payload"]:
            body = doc["payload"]["witness"]
            check_argv = ["spe-check-witness", argv[1], "--witness", path,
                          *flags]
        elif argv[0] == "xrse-search":
            body = doc["payload"]["profile"]
            check_argv = ["xrse-verify", argv[1], "--profile", path,
                          *[a for a in argv if a.startswith("--pessimists")]]
        else:
            continue
        with open(os.path.join(ROOT, path), "w") as fh:
            json.dump(body, fh)
        checks.append({"id": rec["id"], "kind": "check", "round": 0,
                       "argv": check_argv})
    return checks


def digest_check(name, seed, records, work):
    """Write this run's stdout digests; at the default seed, compare them
    with the committed reference."""
    digests = {r["id"]: hashlib.sha256(r["stdout"].encode()).hexdigest()
               for r in records if r["status"] == "ok"}
    with open(os.path.join(work, "digests.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "digests": digests}, fh,
                  indent=0, sort_keys=True)
    if seed != DEFAULT_SEED:
        return []
    path = os.path.join(HERE, "digests", f"{name}.json")
    if not os.path.exists(path):
        return [(None, f"no reference digests at {path}")]
    with open(path) as fh:
        reference = json.load(fh)["digests"]
    return [(qid, "stdout digest differs from the reference")
            for qid, d in digests.items()
            if qid in reference and reference[qid] != d]


def round_rates(queries, records, time_of):
    """Queries answered within the budget (and correctly) per unit of
    `time_of(record)`, one rate per round."""
    answered, spent = {}, {}
    for rec in records:
        r = queries[rec["id"]]["round"]
        answered[r] = answered.get(r, 0) + rec["answered"]
        spent[r] = spent.get(r, 0.0) + time_of(rec)
    return [answered[r] / spent[r] for r in spent]


def in_refs(rec):
    """A query's wall time in durations of the reference computation timed
    next to it."""
    return rec["seconds"] / rec["ref_s"]


def slow_gm(times):
    """Geometric mean of the slower half."""
    return statistics.geometric_mean(sorted(times)[len(times) // 2:])


def tail(times, pct):
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "equilibra", "cli.py")):
        fail(f"no equilibra sources under {os.path.join(ROOT, 'src')}")
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    work = os.path.join(HERE, ".work",
                        f"{wl.name}-{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")  # games and witnesses
    os.makedirs(inputs)
    query_list = wl.build(args.seed, os.path.relpath(inputs, ROOT))
    queries = {q["id"]: q for q in query_list}
    queries_file = os.path.join(work, "queries.json")
    with open(queries_file, "w") as fh:
        json.dump(query_list, fh)
    timeout = args.seconds + wl.budget_s + 120
    lines = []

    if args.trace == 0:
        # half the probes before the pass and half after, so that the
        # median spans the run rather than one moment of the machine
        def probe():
            return json.loads(worker("--probe", timeout=60))
        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        records, summary = run_pass(work, "pass", queries_file, wl.budget_s,
                                    timeout, "--seconds", str(args.seconds))
        setups.append(summary)
        setups += [probe() for _ in range(SETUP_PROBES // 2)]
    else:
        trace_file = os.path.join(work, "trace.json")
        records, summary = run_pass(work, "traced", queries_file,
                                    wl.budget_s, timeout,
                                    "--seconds", str(args.seconds),
                                    "--trace-out", trace_file)
        # replay the queries that took the first half of the traced pass
        limit, traced_s, traced_refs = 0, 0.0, 0.0
        while limit < len(records) and traced_s < args.seconds / 2:
            traced_s += records[limit]["seconds"]
            traced_refs += in_refs(records[limit])
            limit += 1
        replayed, _ = run_pass(work, "replay", queries_file, wl.budget_s,
                               timeout, "--limit", str(limit))
        untraced_refs = sum(in_refs(r) for r in replayed)
        with open(trace_file) as fh:
            trace = json.load(fh)
        if trace["spans_dropped"]:
            lines.append(f"# span log full: {trace['spans_dropped']} spans "
                         f"not stored (the totals are exact)")

    problems = check(queries, records)
    checks = witness_checks(queries, records, inputs,
                            {qid for qid, _ in problems})
    if checks:
        checks_file = os.path.join(work, "checks.json")
        with open(checks_file, "w") as fh:
            json.dump(checks, fh)
        check_records, _ = run_pass(work, "checks", checks_file, 120,
                                    120 * len(checks) + 60)
        for rec in check_records:
            if rec["status"] != "ok" or \
                    json.loads(rec["stdout"])["answer"] != "yes":
                problems.append((rec["id"], f"witness does not re-verify: "
                                 f"{rec['status']} {rec['stdout'][:300]}"))
    problems += digest_check(wl.name, args.seed, records, work)

    wrong = {qid for qid, _ in problems}
    for rec in records:
        rec["answered"] = rec["status"] == "ok" and rec["id"] not in wrong
    attempted = len(records)
    answered = sum(rec["answered"] for rec in records)
    times = [r["seconds"] for r in records]
    norm = [in_refs(r) for r in records]
    lines.append(f"# workload {wl.name} seed {args.seed}: {attempted} "
                 f"queries in {summary['pass_s']:.2f} s, budget "
                 f"{wl.budget_s:g} s, {len(checks)} witnesses re-verified")
    if args.trace == 0:
        metrics = {
            "setup_s": REF_S * statistics.median(
                s["setup_s"] / s["setup_ref_s"] for s in setups),
            "queries_per_ref": statistics.median(
                round_rates(queries, records, in_refs)),
            "latency_p50_ref": statistics.median(norm),
            "latency_slow_gm_ref": slow_gm(norm),
            "answered_frac": answered / attempted,
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        units = UNITS
        rate = statistics.median(round_rates(queries, records,
                                             lambda r: r["seconds"]))
        ref_s = statistics.median(r["ref_s"] for r in records)
        setup_wall_s = statistics.median(s["setup_s"] for s in setups)
        lines += [f"setup_wall_s {setup_wall_s:.6g} s",
                  f"ref_s {ref_s:.6g} s",
                  f"queries_per_s {rate:.6g} 1/s",
                  f"latency_p50_s {statistics.median(times):.6g} s",
                  f"latency_slow_gm_s {slow_gm(times):.6g} s",
                  f"queries_per_s_pass {answered / summary['pass_s']:.6g} 1/s",
                  f"latency_tail_s {tail(times, wl.tail_pct):.6g} s",
                  f"latency_tail_pct {wl.tail_pct:g} %",
                  f"failed_frac {1 - answered / attempted:.6g} 1",
                  f"query_count {attempted} count"]
    else:
        metrics = dict(trace["metrics"])
        metrics["trace.overhead_frac"] = traced_refs / untraced_refs - 1
        units = {k: ("s" if k.endswith("_s") else
                     "1" if k.endswith("_frac") else "count")
                 for k in metrics}
    out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    for k, v in out.items():
        lines.append(f"{k} {v['value']:.6g} {v['unit']}")
    for qid, problem in problems:
        print(f"querybench: {qid}: {problem}", file=sys.stderr)
    if not problems:
        shutil.rmtree(inputs)  # kept only to rerun a failing query by hand
    print("\n".join(lines))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": attempted - answered, "metrics": out}))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
