"""Seeded inputs for the graphgenus benchmark.

Stdlib only and independent of graphgenus: a graph is a pair
``(valences, edges)`` of tuples in the package's text-format semantics
(vertex labels are the vertex order, each edge is a directed pair).
The program under test sees only the files and argument lists built
here; the metadata kept beside each request is what the referee in
``referee.py`` checks the replies against.

Every workload has a fixed composition: the number of requests of each
kind, size and algebra is the same for every seed.  The seed chooses the
graphs, their presentations, the coefficients and the order, so that
runs with different seeds do the same amount of work per pass.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("cold-degree3", "oracle-weights", "warm-mix")

THETA = ((3, 3), ((0, 1), (0, 1), (0, 1)))

# The nonzero degree-k classes (the columns of the IHX row reduction),
# as the package presents them canonically.  They serve only as
# starting points that are re-presented at random.
BASIS = {
    2: (
        ((3,) * 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        ((3,) * 4, ((0, 2), (0, 2), (0, 2), (1, 3), (1, 3), (1, 3))),
        ((3,) * 4, ((0, 2), (0, 2), (0, 3), (1, 2), (1, 3), (1, 3))),
    ),
    3: (
        ((3,) * 6, ((0, 2), (0, 3), (0, 3), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (4, 5))),
        ((3,) * 6, ((0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5))),
        ((3,) * 6, ((0, 2), (0, 3), (0, 4), (1, 5), (1, 5), (1, 5), (2, 3), (2, 4), (3, 4))),
        ((3,) * 6, ((0, 3), (0, 3), (0, 3), (1, 4), (1, 4), (1, 4), (2, 5), (2, 5), (2, 5))),
        ((3,) * 6, ((0, 3), (0, 3), (0, 3), (1, 4), (1, 4), (1, 5), (2, 4), (2, 5), (2, 5))),
        ((3,) * 6, ((0, 3), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (2, 5))),
        ((3,) * 6, ((0, 3), (0, 3), (0, 4), (1, 3), (1, 5), (1, 5), (2, 4), (2, 4), (2, 5))),
    ),
}

# (basis index, edge index) whose IHX relation is sent as input: each
# relates two nonzero classes.  Fixed, so that the work does not depend
# on the seed.
RELATION_SOURCES = {2: ((0, 0),), 3: ((0, 0), (0, 4))}

# Chern numbers of compact irreducible hyperkähler manifolds, keyed by
# the analyze flag names.
MANIFOLDS = (
    ("K3", 1, {"c2": 24}),
    ("K3[2]", 2, {"c2sq": 828, "c4": 324}),
    ("Kum2", 2, {"c2sq": 756, "c4": 108}),
    ("K3[3]", 3, {"c2cube": 36800, "c2c4": 14720, "c6": 3200}),
    ("Kum3", 3, {"c2cube": 30208, "c2c4": 6784, "c6": 448}),
    ("OG6", 3, {"c2cube": 30720, "c2c4": 7680, "c6": 1920}),
)
TOP_CLASS = {1: "c2", 2: "c4", 3: "c6"}


@dataclass
class Request:
    """One CLI call: its argv, the files it reads, and what to expect."""

    kind: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    # (presentation, class key): presentations with equal keys are
    # isomorphic by construction
    graphs: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# graphs


def perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def represent(rng, g):
    """Random re-presentation of g and the sign s with g' = s * g.

    Relabels the vertices, reverses edges at random and shuffles the edge
    list.  The sign is the relabeling parity times -1 per reversal; the
    edge order never contributes.
    """
    valences, edges = g
    n = len(valences)
    sigma = list(range(n))
    rng.shuffle(sigma)
    sign = perm_sign(sigma)
    out = []
    for a, b in edges:
        na, nb = sigma[a], sigma[b]
        if rng.random() < 0.5:
            na, nb = nb, na
            sign = -sign
        out.append((na, nb))
    rng.shuffle(out)
    new_val = [0] * n
    for v, k in enumerate(valences):
        new_val[sigma[v]] = k
    return (tuple(new_val), tuple(out)), sign


def random_graph(rng, n3: int, n1: int = 0):
    """Loop-free unitrivalent multigraph from a random flag pairing."""
    flags = [v for v in range(n3) for _ in range(3)] + list(range(n3, n3 + n1))
    while True:
        rng.shuffle(flags)
        edges = tuple(zip(flags[0::2], flags[1::2]))
        if all(a != b for a, b in edges):
            return (3,) * n3 + (1,) * n1, edges


def wheel(n: int):
    hub = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    return (3,) * n + (1,) * n, tuple(hub + spokes)


def union(g, h):
    shift = len(g[0])
    return g[0] + h[0], g[1] + tuple((a + shift, b + shift) for a, b in h[1])


def invariant(g):
    """Certificate equal for isomorphic graphs, so graphs with different
    certificates are never isomorphic: colour refinement started from
    each vertex's valence and closed-walk counts of length 2..6."""
    valences, edges = g
    n = len(valences)
    adj = [[0] * n for _ in range(n)]
    for a, b in edges:
        adj[a][b] += 1
        adj[b][a] += 1
    walks = [[int(i == j) for j in range(n)] for i in range(n)]
    closed = [[] for _ in range(n)]
    for _ in range(6):
        walks = [[sum(walks[i][m] * adj[m][j] for m in range(n)) for j in range(n)]
                 for i in range(n)]
        for v in range(n):
            closed[v].append(walks[v][v])
    colour = [(valences[v], tuple(closed[v])) for v in range(n)]
    rounds = []
    for _ in range(n):
        sigs = [(colour[v], tuple(sorted((colour[u], adj[v][u]) for u in range(n) if adj[v][u])))
                for v in range(n)]
        rounds.append(tuple(sorted(sigs)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if len(set(new)) == len(set(colour)):
            break
        colour = new
    return n, tuple(rounds)


def distinct_pool(count: int, draw, exclude=()):
    """`count` graphs from repeated draws, pairwise non-isomorphic and not
    isomorphic to any graph in `exclude`."""
    pool, seen = [], {invariant(g) for g in exclude}
    for _ in range(1000):
        g = draw()
        key = invariant(g)
        if key not in seen:
            seen.add(key)
            pool.append(g)
            if len(pool) == count:
                return pool
    raise RuntimeError("could not draw enough distinct graphs")


def flags_at(g, v):
    return [2 * e + end for e, pair in enumerate(g[1]) for end in (0, 1) if pair[end] == v]


def cyclic_sign(g, cyclic=None) -> int:
    """s with orientation(cyclic data) = s * orientation(presentation).

    Flags are numbered 2*edge + end (end 0 = tail).  The presentation's
    orientation lists flags edge by edge; the cyclic one lists them vertex
    by vertex in label order, each vertex block in its cyclic order
    (sorted when ``cyclic`` gives none for it).
    """
    seq = []
    for v in range(len(g[0])):
        seq.extend(cyclic[v] if cyclic and v in cyclic else flags_at(g, v))
    return perm_sign(seq)


def ihx_relation(g, t):
    """Terms (graph, sign) of the Jacobi relation at edge t of trivalent g.

    With x = tail and y = head of t, rotate the cyclic orders so that x
    reads (a, b, t) and y reads (t, c, d); the relation is
    [ab|cd] + [bc|ad] + [ca|bd] = 0 in cyclic-orientation terms, where
    [pq|rs] puts flags p, q at x and r, s at y.  Terms that would hold a
    self-loop are zero and left out.
    """
    x, y = g[1][t]
    rx = flags_at(g, x)
    while rx[-1] != 2 * t:
        rx.append(rx.pop(0))
    ry = flags_at(g, y)
    while ry[0] != 2 * t + 1:
        ry.append(ry.pop(0))
    a, b = rx[0], rx[1]
    c, d = ry[1], ry[2]
    terms = []
    for (p, q), (r, s) in (((a, b), (c, d)), ((b, c), (a, d)), ((c, a), (b, d))):
        ends = [list(e) for e in g[1]]
        for flag, v in ((p, x), (q, x), (r, y), (s, y)):
            ends[flag // 2][flag % 2] = v
        if any(u == w for u, w in ends):
            continue
        h = (g[0], tuple(tuple(e) for e in ends))
        cyclic = {v: tuple(flags_at(h, v)) for v in range(len(h[0]))}
        cyclic[x] = (p, q, 2 * t)
        cyclic[y] = (2 * t + 1, r, s)
        terms.append((h, cyclic_sign(h, cyclic)))
    return terms


# ---------------------------------------------------------------------------
# text


def format_graph(g) -> str:
    parts = ["graph", "{", "vertices", str(len(g[0])), ";"]
    for v, k in enumerate(g[0]):
        if k == 1:
            parts += ["valence", str(v), "1", ";"]
    for a, b in g[1]:
        parts += ["edge", str(a), str(b), ";"]
    parts.append("}")
    return " ".join(parts)


def format_vector(terms) -> str:
    return "".join(f"coeff {c} {format_graph(g)}\n" for g, c in terms)


def rational(rng) -> Fraction:
    q = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return q if rng.random() < 0.5 else -q


# ---------------------------------------------------------------------------
# request lists


class _RequestList:
    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"{name}:{seed}")
        self.requests: list[Request] = []

    def add(self, kind, argv, text=None, **meta):
        files = {}
        if text is not None:
            name = f"in{len(self.requests):04d}.txt"
            files[name] = text
            argv = argv + [name]
        req = Request(kind, argv, files, meta)
        self.requests.append(req)
        return req

    def vector(self, kind, argv, parts, **meta):
        """File of re-presented (class key, graph, coefficient) parts."""
        terms, graphs = [], []
        for key, g, c in parts:
            h, s = represent(self.rng, g)
            terms.append((h, c * s))
            graphs.append((h, key))
        req = self.add(kind, argv, format_vector(terms), **meta)
        req.graphs = graphs
        req.meta["terms"] = [(c, h) for h, c in terms]
        return req

    def relation(self, kind, argv, k, source, **meta):
        b, t = source
        scale = rational(self.rng)
        parts = [((k, "rel", b, t, i), h, scale * s)
                 for i, (h, s) in enumerate(ihx_relation(BASIS[k][b], t))]
        return self.vector(kind, argv, parts, relation=True, k=k, **meta)

    def combos(self, kind, argv, k, per, **meta):
        """One vector per basis class i, holding classes i..i+per-1
        (cyclically): every request's set of classes, and so its work,
        is the same for every seed."""
        basis = BASIS[k]
        for i in range(len(basis)):
            picks = [(i + j) % len(basis) for j in range(per)]
            parts = [((k, j), basis[j], rational(self.rng)) for j in picks]
            self.vector(kind, argv, parts, k=k, **meta)


def cold_degree3(seed: int) -> list[Request]:
    b = _RequestList("cold-degree3", seed)
    b.add("dim", ["dim", "--k", "3"], expect_out="3\n")
    b.add("wheeling", ["wheeling", "--k", "3"],
          expect_out="PASS (residual 0 modulo IHX)\n")
    b.add("ihx", ["ihx", "emit", "--k", "3"], k=3)
    parts = [((3, j), g, rational(b.rng)) for j, g in enumerate(BASIS[3])]
    for i, (h, s) in enumerate(ihx_relation(BASIS[3][1], 2)):
        parts.append(((3, "rel", 1, 2, i), h, s))
    b.vector("reduce", ["reduce", "--k", "3"], parts, k=3)
    return b.requests


def oracle_weights(seed: int) -> list[Request]:
    b = _RequestList("oracle-weights", seed)
    for alg in ("sl2", "gl2", "gl3"):
        argv = ["oracle", "--algebra", alg]
        b.vector("oracle", argv, [((1, 0), THETA, rational(b.rng))], algebra=alg, k=1)
        b.combos("oracle", argv, 2, 2, algebra=alg)
        for source in RELATION_SOURCES[2]:
            b.relation("oracle", argv, 2, source, algebra=alg)
        if alg != "gl3":  # gl3 at degree 3 costs minutes per graph
            # sl2 weighs the whole degree-3 basis in each request: these
            # equal-cost requests sit at the median latency and keep it steady
            b.combos("oracle", argv, 3, len(BASIS[3]) if alg == "sl2" else 2, algebra=alg)
            for source in RELATION_SOURCES[3]:
                b.relation("oracle", argv, 3, source, algebra=alg)
    b.rng.shuffle(b.requests)
    return b.requests


def _volume(rng) -> str:
    q = Fraction(rng.randint(1, 40), rng.randint(1, 7))
    return f"{q}*pi^2" if rng.random() < 0.5 else str(q)


def warm_mix(seed: int) -> list[Request]:
    b = _RequestList("warm-mix", seed)
    rng = b.rng

    # normalize: trivalent graphs on 8, 10, 12 vertices, three classes
    # per size and eight presentations per size
    for n in (8, 10, 12):
        pool = distinct_pool(3, lambda: random_graph(rng, n))
        for i in range(8):
            j = i % len(pool)
            h, s = represent(rng, pool[j])
            req = b.add("normalize", ["normalize"], format_graph(h) + "\n",
                        group=("tri", n, j), base=pool[j], pred=s)
            req.graphs = [(h, ("tri", n, j))]
    # normalize: unitrivalent graphs with at most six legs; more legs
    # make canonicalisation seconds long
    w2, w4, w6 = wheel(2), wheel(4), wheel(6)
    uni = [w2, w4, w6, union(w2, w2), union(w2, w4), union(union(w2, w2), w2)]
    uni += distinct_pool(6, lambda: random_graph(
        rng, rng.choice((2, 4, 6)), rng.choice((2, 4, 6))), exclude=uni)
    for i in range(16):
        j = i % len(uni)
        h, s = represent(rng, uni[j])
        req = b.add("normalize", ["normalize"], format_graph(h) + "\n",
                    group=("uni", j), base=uni[j], pred=s)
        req.graphs = [(h, ("uni", j))]

    # reduce: each vector twice, in two presentations; relations reduce to 0
    for k, count in ((2, 3), (3, 4)):
        for i in range(count):
            picks = rng.sample(range(len(BASIS[k])), 2)
            coeffs = [rational(rng) for _ in picks]
            for _ in range(2):
                parts = [((k, j), BASIS[k][j], c) for j, c in zip(picks, coeffs)]
                b.vector("reduce", ["reduce", "--k", str(k)], parts, k=k,
                         group=("vec", k, i))
        for source in RELATION_SOURCES[k]:
            b.relation("reduce", ["reduce", "--k", str(k)], k, source)

    for series in ("ahat", "sqrt-ahat", "todd"):
        for k in range(2, 9):
            b.add("genus", ["genus", "--series", series, "--k", str(k)],
                  series=series, k=k)

    for name, k, chern in MANIFOLDS:
        for delta in (0, rng.choice((-3, -2, -1, 1, 2, 3))):
            values = dict(chern)
            values[TOP_CLASS[k]] += delta
            argv = ["analyze", "--k", str(k), "--vol", _volume(rng)]
            for flag, value in values.items():
                argv += [f"--{flag}", str(value)]
            b.add("analyze", argv, k=k, chern=values, manifold=name)

    for k in (1, 2, 3):
        for _ in range(2):
            b.add("omega", ["omega", "--k", str(k)], k=k)

    # malformed input: each must exit 2 with a one-line message
    k3 = ["analyze", "--k", "1", "--c2", "24"]
    b.add("malformed", k3 + ["--vol", "0"])
    b.add("malformed", k3 + ["--vol", "1*pi^3"])
    b.add("malformed", ["analyze", "--k", "2", "--vol", "1", "--c2sq", "828"])
    b.add("malformed", ["genus", "--series", "euler", "--k", "2"])
    b.add("malformed", ["normalize"], "graph { vertices 2 ; edge 0 1 ; edge 0 1 ; edge 0 5 ; }\n")
    b.add("malformed", ["reduce", "--k", "2"],
          "coeff 2/x " + format_graph(BASIS[2][0]) + "\n")

    rng.shuffle(b.requests)
    return b.requests


# Known defects are probed once per run outside the timed stream and
# reported on their own, so the workload itself has no failing request.
KNOWN_DEFECTS = (
    ("coeff 1/0 in a vector file",
     ["reduce", "--k", "2"], "coeff 1/0 " + format_graph(BASIS[2][0]) + "\n"),
)


def workload(name: str, seed: int) -> list[Request]:
    makers = {"cold-degree3": cold_degree3, "oracle-weights": oracle_weights,
                "warm-mix": warm_mix}
    return makers[name](seed)


def write_files(requests, directory) -> None:
    for req in requests:
        for fname, text in req.files.items():
            with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
