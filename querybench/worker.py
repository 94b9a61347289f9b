"""One benchmark pass in a fresh process.

    python3 worker.py --queries FILE --out FILE [--seconds S] [--budget B]
                      [--limit N] [--trace-out FILE]
    python3 worker.py --probe

The worker imports `equilibra.cli` from the checkout's `src` (that import
is the set-up time), then answers the queries in order, in-process,
through `equilibra.cli.run(argv)`, capturing each query's stdout.  It
starts no new round of queries once `--seconds` have passed, so a pass
holds whole rounds (or stops after `--limit` queries).  A SIGALRM budget
of `--budget` seconds stops a runaway query.  Between queries, at most
every REF_EVERY_S seconds, the worker times a fixed reference computation
that does not touch `equilibra`; each query's record carries the median of
the last three timings, so that run.py can express query times in
durations of the reference, which follow the machine's momentary speed.
Each query becomes one JSON line in `--out`; a final line holds the pass
totals.  With `--trace-out` the layers are traced (see spans.py).
`--probe` only measures and prints the import time, and a timing of the
reference taken right after it.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REF_EVERY_S = 0.5


class BudgetExceeded(BaseException):
    """Raised by the SIGALRM handler; a BaseException so that no handler in
    the program under test can swallow it."""


def import_cli():
    """Import equilibra.cli from the checkout; returns (module, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import equilibra.cli as cli
    elapsed = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"equilibra imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli, elapsed


def reference():
    """A fixed pure-Python computation, independent of `equilibra`:
    Fraction arithmetic and comparisons, tuple hashing and dict updates,
    the kind of work the queries spend their time on."""
    rng = random.Random(1)
    acc = Fraction(0)
    seen = {}
    for i in range(500):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        acc = max(acc, a) if i % 3 else acc + a / 7
        seen[i % 41, a] = seen.get((i % 41, a), 0) + 1
    return acc, len(seen)


def time_reference():
    """The fastest of three timings of reference(), in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--queries")
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=float("inf"))
    ap.add_argument("--budget", type=float, default=60.0)
    ap.add_argument("--limit", type=int)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    cli, setup_s = import_cli()
    setup_ref_s = time_reference()
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return

    with open(args.queries) as fh:
        queries = json.load(fh)
    if args.limit is not None:
        queries = queries[:args.limit]
    tracer = None
    if args.trace_out:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans
        tracer = spans.Tracer()
        tracer.install()

    install_budget(tracer)
    with open(args.out, "w") as out:
        pass_start = time.perf_counter()
        done = 0
        refs, last_ref = [], 0.0
        for k, query in enumerate(queries):
            now = time.perf_counter()
            if k and query["round"] != queries[k - 1]["round"] and \
                    now - pass_start >= args.seconds:
                break
            if not refs or now - last_ref >= REF_EVERY_S:
                refs = refs[-2:] + [time_reference()]
                last_ref = time.perf_counter()
            out.write(json.dumps(dict(run_one(cli, query, args.budget,
                                              tracer, k),
                                      ref_s=statistics.median(refs),
                                      id=query["id"])) + "\n")
            done += 1
        pass_s = time.perf_counter() - pass_start
        out.write(json.dumps({
            "summary": True, "setup_s": setup_s,
            "setup_ref_s": setup_ref_s, "pass_s": pass_s,
            "attempted": done,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}) + "\n")
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(args.trace_out + ".spans")
        with open(args.trace_out, "w") as fh:
            json.dump({"metrics": tracer.metrics(),
                       "spans_dropped": tracer.dropped}, fh)


def install_budget(tracer):
    """Make SIGALRM stop the running query.  An alarm that lands in the
    tracer's span bookkeeping is put off by 0.1 ms, so that a stop never
    leaves a span half written."""
    def on_alarm(signum, frame):
        if tracer is not None:
            if tracer.in_bookkeeping(frame):
                signal.setitimer(signal.ITIMER_REAL, 1e-4)
                return
            tracer.record_kill()
        raise BudgetExceeded()

    signal.signal(signal.SIGALRM, on_alarm)


def run_one(cli, query, budget, tracer, k):
    """Answer one query; returns its record (status, rc, seconds, stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    status, rc = "ok", None
    if tracer is not None:
        tracer.begin_query(k)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = cli.run(query["argv"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        status = "budget"
    except Exception:
        status = "crash"
        stderr.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_query()
    return {"status": status, "rc": rc, "seconds": seconds,
            "stdout": stdout.getvalue() if status == "ok" else "",
            "stderr": stderr.getvalue()[-2000:] if status == "crash" else ""}


if __name__ == "__main__":
    main()
