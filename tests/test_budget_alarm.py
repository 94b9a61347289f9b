"""The benchmark's budget stop (`querybench/worker.py`) against an alarm
that is handled inside a gc callback.

Python runs a signal handler at the next bytecode boundary, and while the
collector runs its Python callbacks that boundary lies inside one of them.
The collector reports what a callback raises as unraisable and goes on, so
a `BudgetExceeded` raised there never reaches `run_one`: the query runs to
its end and is recorded `ok`.  The test delivers the alarm inside its own
callback, so the loss shows on every run rather than only when a collection
happens to overlap a timed alarm.
"""

import gc
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "querybench"))

import worker  # noqa: E402


class OneCollection:
    """A stand-in for `equilibra.cli`: its query runs one collection, and
    the alarm goes off inside the collector's callback."""

    @staticmethod
    def run(argv):
        def on_gc(phase, info):
            if phase == "start":
                signal.raise_signal(signal.SIGALRM)

        gc.callbacks.append(on_gc)
        try:
            gc.collect(0)
        finally:
            gc.callbacks.remove(on_gc)
        return 0


@pytest.mark.xfail(strict=True, reason="install_budget raises inside the "
                   "gc callback, where the exception is dropped "
                   "(ROADMAP item 1)")
@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")
def test_budget_stop_inside_a_gc_callback_stops_the_query():
    try:
        worker.install_budget(None)
        record = worker.run_one(OneCollection, {"argv": []}, 60.0, None, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert record["status"] == "budget"
