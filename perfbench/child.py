"""One CLI invocation, run as a child process of ``run.py``.

``python child.py RECORD (plain|trace) CLI-ARGS...`` imports
``tracefem.cli`` (from ``PYTHONPATH``), then either wraps only
``cli.Pipeline.__init__`` to time set-up (``plain``) or installs the span
tracer (``trace``), calls ``cli.main`` with the remaining arguments,
restores every wrapper and writes a JSON record to RECORD.  A traced record
also holds the tracing cost expected from the span count: spans times the
cost of one wrapped call, measured after the run.  The exit code is the
CLI's.
"""

import json
import sys
import time

from tracer import Tracer, self_times, wrapper_cost


def _plain(cli, argv):
    original = cli.Pipeline.__init__
    setup = []

    def timed_init(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            original(self, *args, **kwargs)
        finally:
            setup.append(time.perf_counter() - t0)

    cli.Pipeline.__init__ = timed_init
    try:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        in_process = time.perf_counter() - t0
    finally:
        cli.Pipeline.__init__ = original
    return rc, {"in_process_s": in_process, "setup_s": sum(setup),
                "pipelines": len(setup)}


def _trace(cli, argv):
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        in_process = time.perf_counter() - t0
    finally:
        tracer.restore()
    spans = tracer.spans
    setup = [s[2] - s[1] for s in spans if s[0] == "cli.Pipeline"]
    per_call = wrapper_cost()
    return rc, {"in_process_s": in_process, "setup_s": sum(setup),
                "pipelines": len(setup),
                "self_sum_s": sum(self_times(spans)),
                "wrapper_call_s": per_call,
                "wrapper_cost_s": len(spans) * per_call,
                "spans": [[n, a - t0, b - t0, p] for n, a, b, p in spans],
                "counts": dict(tracer.counts)}


def _resolved_config(cli, argv):
    from tracefem.errors import TraceFemError
    try:
        cfg = cli.load_config(argv[argv.index("--config") + 1])
    except (ValueError, IndexError, TraceFemError):
        return None
    for flag in ("--out", "--seed"):
        if flag in argv:
            cfg[flag[2:]] = argv[argv.index(flag) + 1]
    return cfg


def _versions():
    import platform
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv):
    record, mode, cli_args = argv[0], argv[1], argv[2:]
    from tracefem import cli
    rc, rec = (_trace if mode == "trace" else _plain)(cli, cli_args)
    rec["rc"] = rc
    rec["config"] = _resolved_config(cli, cli_args)
    rec["versions"] = _versions()
    rec["tracefem_file"] = cli.__file__
    with open(record, "w") as fh:
        json.dump(rec, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
