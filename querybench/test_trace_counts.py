"""The outside-in tracer counts what cProfile counts.

Run with `PYTHONPATH=src python -m pytest querybench/test_trace_counts.py`.
"""

import contextlib
import cProfile
import io
import os
import pstats
import signal
import sys
import time
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import worker  # noqa: E402
from equilibra import cli, negotiation, simplex, spe, zerosum  # noqa: E402

# one small mean-payoff query that reaches negotiation, the LP and Karp
QUERY = ["spe-exists", "inf_spe", "--lower", "circle=1"]
COUNTED = {"negotiation.nego_mp": negotiation.nego_mp,
           "simplex.lp_minimize": simplex.lp_minimize,
           "zerosum.karp_min_mean": zerosum.karp_min_mean}


def answer(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0


def traced(argv):
    tracer = spans.Tracer()
    tracer.install()
    try:
        answer(argv)
    finally:
        tracer.uninstall()
    return tracer


def test_traced_calls_equal_cprofile_ncalls():
    prof = cProfile.Profile()
    prof.runcall(answer, QUERY)
    ncalls = {}
    for (path, line, func), (_, nc, _, _, _) in \
            pstats.Stats(prof).stats.items():
        for name, fn in COUNTED.items():
            code = fn.__code__
            if (path, line, func) == (code.co_filename, code.co_firstlineno,
                                      code.co_name):
                ncalls[name] = nc
    metrics = traced(QUERY).metrics()
    for name in COUNTED:
        assert ncalls.get(name, 0) > 0, name
        assert metrics[f"{name}.calls"] == ncalls[name], name


def test_uninstall_restores_every_alias():
    traced(QUERY)
    assert spe.nego_mp is negotiation.nego_mp is COUNTED[
        "negotiation.nego_mp"]
    assert negotiation.lex_min_vertex is simplex.lex_min_vertex
    assert cli.spe_exists_mp is spe.spe_exists_mp


def check_span_log(tracer, path):
    """Write the span log, read it back and check that every span nests in
    its parent and that the self times it gives equal the tracer's totals."""
    tracer.write_spans(str(path))
    header, rows = spans.load_spans(str(path))
    assert header["dropped"] == 0 and len(rows) == sum(tracer.calls)
    child = [0.0] * len(rows)
    for k, (name, parent, _, start, end) in enumerate(rows):
        assert 0 < start <= end, (k, name)
        if parent >= 0:
            assert parent < k and rows[parent][3] <= start <= end <= \
                rows[parent][4], (k, name)
            child[parent] += end - start
    self_s = {}
    for k, (name, _, _, start, end) in enumerate(rows):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[k]
    metrics = tracer.metrics()
    for name, total in self_s.items():
        assert abs(total - metrics[f"{name}.self_s"]) < 1e-6, name


def test_span_log_matches_totals_and_charges_callbacks(tmp_path):
    tracer = traced(["spe-exists", "fig_ne_spe"])
    metrics = tracer.metrics()
    # the colour callbacks negotiation hands to solve_parity are its own
    assert metrics["negotiation.callbacks.calls"] > 0
    assert metrics["zerosum.solve_parity.calls"] > 0
    check_span_log(tracer, tmp_path / "spans")


def test_budget_stop_in_bookkeeping_keeps_span_log_whole(tmp_path,
                                                         monkeypatch):
    """Deliver the budget alarm inside `Tracer._open`, between its array
    appends: the stop must wait until the span is written, and the span
    log read back afterwards must still line up."""
    tracer = spans.Tracer()
    real = time.perf_counter
    opened = []

    def perf_counter():
        frame = sys._getframe(1)
        if frame.f_code is spans.Tracer._open.__code__:
            opened.append(frame)
            if len(opened) == 50:
                signal.getsignal(signal.SIGALRM)(signal.SIGALRM, frame)
        return real()

    monkeypatch.setattr(spans, "time",
                        types.SimpleNamespace(perf_counter=perf_counter))
    tracer.install()
    try:
        worker.install_budget(tracer)
        record = worker.run_one(cli, {"argv": QUERY}, 60.0, tracer, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        tracer.uninstall()
    assert len(opened) >= 50
    assert record["status"] == "budget"
    assert sum(tracer.kills.values()) == 1
    check_span_log(tracer, tmp_path / "spans")
