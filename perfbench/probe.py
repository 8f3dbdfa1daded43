"""Host-speed probe: a fixed pure-Python loop on the spare core.

On a shared host the same CLI invocation can take 30-50 % longer for
minutes at a time, and CPU time grows with wall time, so neither shows
the program's own cost.  The probe runs blocks of fixed work in a second
process while the CLI runs on the other core; the number of blocks it
completes over an interval is that interval in reference seconds
(``RATE_REF`` blocks per reference second).  When the host slows down,
the probe slows down with the CLI, so time counted this way moves less
than raw wall time.  It assumes the CLI itself uses one core (BLAS
threads are pinned to 1).
"""

import multiprocessing
import os

BLOCK = 13000           # loop iterations per block: 1 ms on a 2-core Xeon
RATE_REF = 1000.0       # blocks per reference second


def _spin(count, stop, parent):
    while not stop.is_set() and os.getppid() == parent:
        s = 0
        for i in range(BLOCK):
            s += i * i
        count.value += 1


class Probe:
    """Counts blocks in a child process until ``close``."""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self.count = ctx.RawValue("q", 0)
        self._stop = ctx.Event()
        self._proc = ctx.Process(target=_spin, daemon=True,
                                 args=(self.count, self._stop, os.getpid()))
        self._proc.start()

    def blocks(self):
        return self.count.value

    def close(self):
        self._stop.set()
        self._proc.join(10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()


def usable():
    """The probe needs a core of its own besides the CLI's."""
    return len(os.sched_getaffinity(0)) >= 2
