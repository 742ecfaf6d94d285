"""Shared helpers: random graph presentations and an in-process CLI runner."""
from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

from graphgenus.graph_core import Graph, OrientedGraph, perm_sign
from graphgenus.cli import main as cli_main


def relabel(rng, g: Graph) -> tuple[Graph, int, list[int]]:
    """Random re-presentation of g, its predicted relative sign, and the
    vertex relabelling sigma (v goes to sigma[v]).

    Applies the relabelling, per-edge direction flips, and an edge order
    shuffle.  The sign is the relabelling parity times -1 per flip; the
    edge order permutes flag pairs as blocks and never contributes.
    """
    sigma = list(range(g.n))
    rng.shuffle(sigma)
    sign = perm_sign(sigma)
    edges = []
    for a, b in g.edges:
        na, nb = sigma[a], sigma[b]
        if rng.random() < 0.5:
            na, nb = nb, na
            sign = -sign
        edges.append((na, nb))
    rng.shuffle(edges)
    valences = [0] * g.n
    for v, k in enumerate(g.valences):
        valences[sigma[v]] = k
    return Graph(tuple(valences), tuple(edges)), sign, sigma


def represent(rng, g: Graph) -> tuple[Graph, int]:
    """``relabel`` without sigma: the re-presentation and its sign."""
    return relabel(rng, g)[:2]


def random_unitrivalent(rng, max_vertices: int = 8) -> Graph:
    """Random unitrivalent multigraph presentation, possibly disconnected."""
    while True:
        n3 = rng.randint(1, max_vertices // 2)
        max_legs = max_vertices - n3
        # flag count 3*n3 + n1 must be even
        n1 = rng.choice([m for m in range(max_legs + 1) if (3 * n3 + m) % 2 == 0])
        flags = []
        for v in range(n3):
            flags += [v] * 3
        for v in range(n3, n3 + n1):
            flags.append(v)
        for _ in range(40):
            rng.shuffle(flags)
            edges = list(zip(flags[0::2], flags[1::2]))
            if all(a != b for a, b in edges):
                return Graph((3,) * n3 + (1,) * n1, tuple(edges))
        # degenerate draw (e.g. single trivalent vertex), resample sizes


def check_automorphisms(og: OrientedGraph):
    """Every recorded automorphism maps the canonical graph's valences and
    edge multiset onto themselves, and keeps the orientation of a nonzero
    class: relabelling parity times -1 per edge it turns around."""
    g = og.graph
    for tau in og.automorphisms:
        assert sorted(tau) == list(range(g.n))
        assert all(g.valences[tau[v]] == g.valences[v] for v in range(g.n))
        images = [(tau[a], tau[b]) for a, b in g.edges]
        assert sorted(tuple(sorted(e)) for e in images) == sorted(g.edges)
        if og.sign_state:
            reversals = sum(1 for a, b in images if a > b)
            assert perm_sign(list(tau)) * (-1) ** reversals == 1


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()
