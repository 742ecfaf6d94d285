"""Benchmark of graphgenus through its public CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  One client sends one request at a time, closed loop: the next
goes out when the previous reply is in.  For cold-degree3 the client is
this process and each request a fresh interpreter; for the warm
workloads the client loop runs inside the one worker process, which
calls ``cli.main`` in-process and returns a pass's replies at once, so
no pipe round trip lands in the timings.  Inputs come from ``gen.py``
and the seed; every reply is checked by ``referee.py`` after the pass.

Workloads (why each exists is in BENCHMARK.json):

* cold-degree3: dim, wheeling, ihx emit and reduce at k = 3, each in a
  fresh interpreter, one after another, as a CLI user pays for them.
* oracle-weights: one warm process answering seeded ``oracle`` requests.
* warm-mix: one warm process answering a seeded shuffled stream of
  normalize, reduce, genus, analyze and omega requests, plus malformed
  input that must exit 2.

A pass is one run through the workload's fixed request list; passes
repeat until ``--seconds`` have gone by.  With ``--trace 0`` the last
line of output is the JSON result with the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half traced, and the
result holds the per-layer metrics.  ``--workload all`` runs every
workload in turn and prints each report.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import referee  # noqa: E402
import spans  # noqa: E402

SETUPS = {"cold-degree3": 5, "oracle-weights": 3, "warm-mix": 3}
REQUEST_TIMEOUT = 150.0


# ---------------------------------------------------------------------------
# statistics


def tail(samples):
    """(value, percentile, n) at the highest percentile with at least ten
    samples beyond it, by nearest rank; the maximum when n <= 10."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# workers


def _worker_cmd(*args):
    return [sys.executable, str(HERE / "worker.py"), *args]


class Server:
    """A long-lived worker; its set-up time runs from spawn to ready."""

    def __init__(self, workload, seed, trace, cwd, deadline):
        cmd = _worker_cmd("serve", str(ROOT), workload, str(seed))
        if trace:
            cmd.append("--trace")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                        self.proc.kill)
        self.watchdog.start()
        self.ready = self._read()
        self.setup_s = time.perf_counter() - start

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker ended without replying")
        return json.loads(line)

    def send(self, message):
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        self.watchdog.cancel()
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_once(req, trace, cwd):
    """One request in a fresh interpreter; latency is spawn to exit."""
    cmd = _worker_cmd("once", str(ROOT), *(["--trace"] if trace else []), "--", *req.argv)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=REQUEST_TIMEOUT)
    seconds = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"code": None, "out": "", "err": proc.stderr,
                "exc": f"worker exited {proc.returncode}", "seconds": seconds}
    reply = json.loads(lines[-1])
    reply["seconds"] = seconds
    return reply


# ---------------------------------------------------------------------------
# one phase: set-ups, then timed passes


class Phase:
    def __init__(self):
        self.setup_s: list[float] = []
        self.passes: list[tuple[float, list[dict]]] = []
        self.ready: dict = {}
        self.maxrss_kb = 0
        self.defects: list[str] = []


def run_phase(workload, seed, seconds, trace, requests, cwd, setups, deadline):
    phase = Phase()
    cold = workload == "cold-degree3"
    server = None
    try:
        for i in range(setups):
            server = Server(workload, seed, trace, cwd, deadline)
            phase.setup_s.append(server.setup_s)
            phase.ready = server.ready
            if cold or i < setups - 1:
                server.close()
                server = None
        start = time.perf_counter()
        while True:
            if cold:
                t0 = time.perf_counter()
                replies = [run_once(req, trace, cwd) for req in requests]
                phase.passes.append((time.perf_counter() - t0, replies))
            else:
                reply = server.send({"pass": True})
                phase.passes.append((reply["pass_s"], reply["replies"]))
            if time.perf_counter() - start >= seconds:
                break
        if cold:
            phase.maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            phase.maxrss_kb = server.send({"stats": True})["maxrss_kb"]
            if workload == "warm-mix":
                for title, argv, text in gen.KNOWN_DEFECTS:
                    fname = f"defect{len(phase.defects)}.txt"
                    (Path(cwd) / fname).write_text(text, encoding="utf-8")
                    problem = referee.check_defect(server.send({"argv": argv + [fname]}))
                    phase.defects.append(f"{title}: {problem or 'fixed'}")
    finally:
        if server is not None:
            server.close()
    return phase


def check_phase(requests, phase):
    """(attempted, failed, reasons): every reply of the first pass goes to
    the referee; later passes must repeat the first pass's replies."""
    first = phase.passes[0][1]
    reasons = {}
    for i, (req, reply) in enumerate(zip(requests, first)):
        problem = referee.check(req, reply)
        if problem:
            reasons[i] = f"{req.kind} {' '.join(req.argv)}: {problem}"
    bad_groups = referee.check_groups(requests, first)
    for i, req in enumerate(requests):
        if req.meta.get("group") in bad_groups:
            reasons.setdefault(i, f"re-presentations of {req.meta['group']} disagree")
    attempted = failed = 0
    for _, replies in phase.passes:
        for i, reply in enumerate(replies):
            attempted += 1
            same = all(reply.get(k) == first[i].get(k) for k in ("code", "out", "exc"))
            if i in reasons or not same:
                failed += 1
                if not same:
                    reasons.setdefault(i, f"{requests[i].kind}: reply differs between passes")
    return attempted, failed, sorted(reasons.values())


# ---------------------------------------------------------------------------
# metrics


def end_to_end(phase):
    latencies = [r["seconds"] * 1000 for _, replies in phase.passes for r in replies]
    value, pct, n = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(phase.setup_s), "s", f"median of {len(phase.setup_s)} set-ups"),
        "pass_s": (statistics.median(p for p, _ in phase.passes), "s",
                   f"median of {len(phase.passes)} passes"),
        "latency_ms.p50": (statistics.median(latencies), "ms", f"{n} samples"),
        "latency_ms.tail": (value, "ms", f"p{pct:.1f}, {n} samples"),
        "peak_rss_mb": (phase.maxrss_kb / 1024, "MB", "ru_maxrss of the worker"),
    }
    return metrics


def per_layer(untraced, traced):
    npass = len(traced.passes)
    totals = {name: [0, 0.0] for name in spans.NAMES + (spans.IMPORT_SPAN,)}
    counts = dict.fromkeys(spans.COUNTERS, 0)
    for _, replies in traced.passes:
        for reply in replies:
            for name, (calls, self_s) in reply.get("spans", {}).items():
                totals[name][0] += calls
                totals[name][1] += self_s
            for key, value in reply.get("counts", {}).items():
                counts[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = (calls / npass, "count", "per pass")
        metrics[f"{name}.self_s"] = (self_s / npass, "s", "per pass")
    c = counts
    cf = "graph_core.canonical_form"
    metrics[f"{cf}.repeat_ratio"] = (ratio(c["canon_repeat"], c["canon_calls"]), "ratio",
                                     f"of {c['canon_calls']} calls")
    metrics[f"{cf}.class_repeat_ratio"] = (ratio(c["canon_class_repeat"], c["canon_calls"]),
                                           "ratio", f"of {c['canon_calls']} calls")
    metrics["graph_core.weld_all.none_ratio"] = (ratio(c["weld_none"], c["weld_calls"]),
                                                 "ratio", f"of {c['weld_calls']} welds")
    metrics["graph_algebra.enumerate_trivalent.useful_ratio"] = (
        ratio(c["enum_classes"], c["enum_canon_calls"]), "ratio",
        f"{c['enum_classes']} classes / {c['enum_canon_calls']} canonical_form calls")
    metrics["graph_algebra.RelationSet.rank_ratio"] = (
        ratio(c["rel_rank"], c["rel_in"]), "ratio",
        f"rank {c['rel_rank']} / {c['rel_in']} relations")

    setup_spans = traced.ready.get("spans", {})
    setup_counts = traced.ready.get("counts", {})
    calls, self_s = setup_spans.get(cf, (0, 0.0))
    metrics[f"setup.{cf}.calls"] = (calls, "count", "during one traced set-up")
    metrics[f"setup.{cf}.self_s"] = (self_s, "s", "during one traced set-up")
    metrics[f"setup.{cf}.repeat_ratio"] = (
        ratio(setup_counts.get("canon_repeat", 0), calls), "ratio", f"of {calls} calls")

    traced_pass = statistics.median(p for p, _ in traced.passes)
    untraced_pass = statistics.median(p for p, _ in untraced.passes)
    attributed = sum(s for _, s in totals.values()) / npass
    mean_pass = sum(p for p, _ in traced.passes) / npass
    metrics["trace.pass_s"] = (traced_pass, "s", f"median of {npass} traced passes")
    metrics["trace.untraced_pass_s"] = (untraced_pass, "s",
                                        f"median of {len(untraced.passes)} passes")
    metrics["trace.overhead_s"] = (traced_pass - untraced_pass, "s",
                                   "traced minus untraced pass_s")
    metrics["trace.self_sum_s"] = (attributed, "s", "all self times, per pass")
    metrics["trace.attributed_share"] = (ratio(attributed, mean_pass), "ratio",
                                         "self-time sum / mean traced pass")
    return metrics


# ---------------------------------------------------------------------------
# environment and inputs


def environment(seed, ready):
    src = ROOT / "src" / "graphgenus"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "GRAPHGENUS_MAX_K": ready.get("env_max_k") or "unset",
        "degree_bound": ready.get("degree_bound"),
        "seed": seed,
    }


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def input_properties(requests):
    vertices, legs = {}, {}
    seen_pres, seen_class = set(), set()
    repeated = isomorphic = total = 0
    for req in requests:
        for g, key in req.graphs:
            total += 1
            n = len(g[0])
            nl = sum(1 for k in g[0] if k == 1)
            vertices[n] = vertices.get(n, 0) + 1
            legs[nl] = legs.get(nl, 0) + 1
            repeated += g in seen_pres
            isomorphic += key in seen_class
            seen_pres.add(g)
            seen_class.add(key)
    share = (lambda x: round(x / total, 3)) if total else (lambda x: 0.0)
    return {"requests_per_pass": len(requests), "graphs_per_pass": total,
            "vertex_histogram": dict(sorted(vertices.items())),
            "leg_histogram": dict(sorted(legs.items())),
            "repeated_presentation_share": share(repeated),
            "isomorphic_presentation_share": share(isomorphic)}


# ---------------------------------------------------------------------------
# running a workload


def run_workload(workload, seed, seconds, trace):
    requests = gen.workload(workload, seed)
    scratch = ROOT / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + 170
    try:
        if trace:
            untraced = run_phase(workload, seed, seconds / 2, False, requests, scratch, 1, deadline)
            main = run_phase(workload, seed, seconds / 2, True, requests, scratch, 1, deadline)
            phases = [untraced, main]
            metrics = per_layer(untraced, main)
        else:
            main = run_phase(workload, seed, seconds, False, requests, scratch,
                             SETUPS[workload], deadline)
            phases = [main]
            metrics = end_to_end(main)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    attempted = failed = 0
    reasons: list[str] = []
    for phase in phases:
        a, f, r = check_phase(requests, phase)
        attempted, failed = attempted + a, failed + f
        reasons += [x for x in r if x not in reasons]
    lines = [f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}",
             "env " + json.dumps(environment(seed, main.ready)),
             "inputs " + json.dumps(input_properties(requests))]
    for name, (value, unit, note) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit} ({note})")
    lines.append(f"failed_ratio {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    lines += [f"failure {r}" for r in reasons[:20]]
    lines += [f"known_defect {d}" for d in main.defects]
    if not trace:
        lines += _latency_by_kind(requests, main)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    return lines, result


def _latency_by_kind(requests, phase):
    by_kind: dict[str, list[float]] = {}
    for _, replies in phase.passes:
        for req, reply in zip(requests, replies):
            by_kind.setdefault(req.kind, []).append(reply["seconds"] * 1000)
    return [f"kind {kind}: {len(v)} samples, median {statistics.median(v):.4g} ms, max {max(v):.4g} ms"
            for kind, v in sorted(by_kind.items())]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "graphgenus" / "__init__.py").is_file():
        print(f"no graphgenus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src" / "graphgenus"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        lines, results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
