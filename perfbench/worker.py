"""Child process of the graphgenus benchmark.

Two modes, both run with the run's scratch directory as working
directory and ``src/`` of the checkout first on the import path:

* ``once ROOT [--trace] -- ARGV...``: a fresh interpreter that imports
  graphgenus, runs one ``cli.main(ARGV)`` and prints one JSON reply.
* ``serve ROOT WORKLOAD SEED [--trace]``: imports graphgenus, writes the
  workload's input files, warms up, prints ``{"ready": ...}`` and then
  answers one JSON message per input line until end of input:
  ``{"pass": true}`` runs the whole request list in this process, one
  request after another, and returns ``{"pass_s", "replies"}``;
  ``{"argv": [...]}`` runs one request; ``{"stats": true}`` reports the
  peak resident set.

A reply is ``{"code", "out", "err", "exc", "seconds"}``, plus the folded
spans and counters when tracing.
"""
from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def _load(root: str, trace: bool):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        idx = tracer.begin(spans.IMPORT_SPAN)
    import graphgenus
    from graphgenus import cli
    if tracer is not None:
        tracer.end(idx)
        tracer.install(graphgenus)
    if not os.path.abspath(graphgenus.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"graphgenus was imported from {graphgenus.__file__}, not {src}")
    return graphgenus, cli, tracer


def call(cli, argv, tracer=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a traceback the CLI let escape
        code, exc = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - start
    reply = {"code": code, "out": out.getvalue(), "err": err.getvalue(),
             "exc": exc, "seconds": seconds}
    if tracer is not None:
        reply["spans"], reply["counts"] = tracer.fold()
    return reply


def warm_up(cli, workload, requests) -> None:
    """Fill the caches a long-lived process keeps between requests."""
    from graphgenus import graph_algebra, lie_oracle
    if workload == "warm-mix":
        graph_algebra.ihx_relations(2)
        graph_algebra.ihx_relations(3)
        for req in requests:
            call(cli, req.argv)
    elif workload == "oracle-weights":
        for name in ("sl2", "gl2", "gl3"):
            lie_oracle.builtin(name)
        for req in requests:
            for fname in req.files:
                with open(fname, encoding="utf-8") as fh:
                    graph_algebra.parse_vector(fh.read())


def serve(root, workload, seed, trace) -> None:
    proto = sys.stdout
    graphgenus, cli, tracer = _load(root, trace)
    import gen
    requests = gen.workload(workload, seed)
    gen.write_files(requests, ".")
    warm_up(cli, workload, requests)
    ready = {"ready": True,
             "degree_bound": graphgenus.degree_bound(),
             "env_max_k": os.environ.get("GRAPHGENUS_MAX_K")}
    if tracer is not None:
        ready["spans"], ready["counts"] = tracer.fold()
    proto.write(json.dumps(ready) + "\n")
    proto.flush()
    for line in sys.stdin:
        msg = json.loads(line)
        if "pass" in msg:
            start = time.perf_counter()
            replies = [call(cli, req.argv, tracer) for req in requests]
            reply = {"pass_s": time.perf_counter() - start, "replies": replies}
        elif "argv" in msg:
            reply = call(cli, msg["argv"], tracer)
        else:
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


def once(root, argv, trace) -> None:
    proto = sys.stdout
    _, cli, tracer = _load(root, trace)
    # when tracing, the import span is folded into this reply
    proto.write(json.dumps(call(cli, argv, tracer)) + "\n")


def main(argv) -> None:
    trace = "--trace" in (argv[:argv.index("--")] if "--" in argv else argv)
    if argv[0] == "once":
        once(argv[1], argv[argv.index("--") + 1:], trace)
    elif argv[0] == "serve":
        serve(argv[1], argv[2], int(argv[3]), trace)
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
