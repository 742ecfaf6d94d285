"""Oriented unitrivalent multigraphs with exact sign bookkeeping.

A graph is stored as a *presentation*: vertex labels 0..n-1 double as
the vertex ordering, and every edge is a directed pair (tail, head).
That data is one of the two equivalent orientation encodings (vertex
order + edge directions); the other encoding is a cyclic order of the
three flags at every trivalent vertex.  A flag is (edge index, end)
with end 0 = tail, 1 = head.

Conversion between the encodings is a permutation-parity computation
between two orderings of the full flag set:

* edge expansion: flags listed edge by edge, tail before head;
* vertex expansion: flags grouped by vertex in label order, each
  trivalent block in its cyclic order (univalent blocks are single
  flags and carry no local data).

Blocks at a vertex have odd size (1 or 3), so permuting vertices moves
the parity by the sign of the permutation, and reversing one edge
flips it; that is exactly the sign law of the homology of oriented
graphs.  Reorderings of the edge list move flags in blocks of two and
never change the parity, which is why the edge list order is not part
of the orientation data.

Self-loops are rejected at construction; operations that would create
one report it so callers can drop the term as zero.
"""
from __future__ import annotations

from functools import cache
from itertools import groupby, permutations, product
from typing import Iterable, NamedTuple, Optional

from .scalars import Record

Flag = tuple[int, int]


class GraphError(ValueError):
    """Base class for graph construction and orientation errors; make_graph
    names the faulty ``edge`` (an index) or ``vertex`` for the parser."""

    def __init__(self, message: str = "", edge: Optional[int] = None,
                 vertex: Optional[int] = None):
        super().__init__(message)
        self.edge, self.vertex = edge, vertex


class SelfLoop(GraphError):
    pass


class ValenceMismatch(GraphError):
    pass


class BadIndex(GraphError):
    pass


class OddWheel(GraphError):
    pass


class InvalidOrientation(GraphError):
    pass


def perm_sign(perm: list[int]) -> int:
    """Sign of a permutation given as the list of images of 0..n-1."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class Graph(NamedTuple):
    """Unitrivalent multigraph presentation (labels = vertex order); a
    named tuple, so it compares and hashes as (valences, edges)."""

    valences: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.valences)

    def degree(self, v: int) -> int:
        return sum((a == v) + (b == v) for a, b in self.edges)

    def legs(self) -> tuple[int, ...]:
        """Univalent vertices, ascending."""
        return tuple(v for v, k in enumerate(self.valences) if k == 1)

    @property
    def is_trivalent(self) -> bool:
        return all(k == 3 for k in self.valences)

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, by least vertex."""
        parent = list(range(self.n))

        for a, b in self.edges:
            parent[_find(parent, a)] = _find(parent, b)
        groups: dict[int, list[int]] = {}
        for v in range(self.n):
            groups.setdefault(_find(parent, v), []).append(v)
        return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda t: t[0])


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def make_graph(vertex_count: int,
               valences: Iterable[int],
               edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Validated constructor for a unitrivalent presentation: edges first
    (index range, self-loop), then vertices (valence 1 or 3, incidences)."""
    valences = tuple(valences)
    edges = tuple((int(a), int(b)) for a, b in edge_list)
    if vertex_count != len(valences):
        raise ValenceMismatch(
            f"vertex count {vertex_count} != {len(valences)} valence entries")
    counts = [0] * vertex_count
    for e, (a, b) in enumerate(edges):
        if not (0 <= a < vertex_count and 0 <= b < vertex_count):
            raise BadIndex(f"edge ({a}, {b}) references a missing vertex", edge=e)
        if a == b:
            raise SelfLoop(f"edge ({a}, {b}) is a self-loop", edge=e)
        counts[a] += 1
        counts[b] += 1
    for v, k in enumerate(valences):
        if k not in (1, 3):
            raise ValenceMismatch(f"vertex {v} has valence {k}, expected 1 or 3",
                                  vertex=v)
        if counts[v] != k:
            raise ValenceMismatch(
                f"vertex {v} has valence {k} but {counts[v]} incidences", vertex=v)
    return Graph(valences, edges)


def empty_graph() -> Graph:
    return Graph((), ())


def line() -> Graph:
    """Single edge with two univalent ends."""
    return Graph((1, 1), ((0, 1),))


def theta() -> Graph:
    """Two trivalent vertices joined by a triple edge."""
    return Graph((3, 3), ((0, 1), (0, 1), (0, 1)))


# ---------------------------------------------------------------------------
# orientation encodings


def _incidence(g: Graph) -> list[list[Flag]]:
    """The flags at every vertex, ascending."""
    at: list[list[Flag]] = [[] for _ in range(g.n)]
    for e, (a, b) in enumerate(g.edges):
        at[a].append((e, 0))
        at[b].append((e, 1))
    return at


def _expansion_sign(vertex_seq: list[Flag]) -> int:
    """Parity of a vertex expansion against the edge expansion."""
    return perm_sign([2 * e + end for e, end in vertex_seq])


def to_cyclic(g: Graph) -> tuple[dict[int, tuple[Flag, ...]], int]:
    """Cyclic data of the stored presentation.

    Returns (cyclic orders at trivalent vertices, sign) such that the
    presentation's orientation equals sign times the orientation the
    cyclic data describes.
    """
    at = _incidence(g)
    sign = _expansion_sign([f for flags in at for f in flags])
    cyclic = {v: tuple(at[v]) for v in range(g.n) if g.valences[v] == 3}
    return cyclic, sign


def from_cyclic(g: Graph, cyclic: dict[int, tuple[Flag, ...]]) -> int:
    """Sign s with: orientation(cyclic data) = s * orientation(g as stored).

    ``g`` supplies the structure (and stored directions); ``cyclic``
    supplies flag triples, and a vertex it omits keeps its flags in
    incidence order.  Any rotation of a triple describes the same
    orientation.
    """
    at = _incidence(g)
    vertex_seq = [f for v in range(g.n) for f in cyclic.get(v, at[v])]
    if sorted(vertex_seq) != [(e, end) for e in range(len(g.edges)) for end in (0, 1)]:
        raise InvalidOrientation("cyclic data does not list each flag exactly once")
    return _expansion_sign(vertex_seq)


# ---------------------------------------------------------------------------
# canonical form


class OrientedGraph(Record):
    """Canonical presentation plus the sign relating the input to it.

    sign_state 0 marks a graph with an orientation-reversing
    automorphism: its class is zero in the homology.  ``automorphisms``
    holds vertex permutations of ``graph`` (tau[v] is the image of v)
    that the canonical search met on its way; they generate the whole
    automorphism group (see ``canonical_form``), and they take no part
    in equality, hashing or repr.
    """

    __slots__ = ("graph", "sign_state", "automorphisms")

    def __init__(self, graph: Graph, sign_state: int,
                 automorphisms: frozenset[tuple[int, ...]] = frozenset()):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "sign_state", sign_state)
        object.__setattr__(self, "automorphisms", automorphisms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.graph, self.sign_state) == (other.graph, other.sign_state)

    def __hash__(self):
        return hash((self.graph, self.sign_state))

    def __repr__(self):
        return f"OrientedGraph(graph={self.graph!r}, sign_state={self.sign_state!r})"


@cache
def canonical_form(g: Graph) -> OrientedGraph:
    """Least relabeled presentation, with the relating sign.

    The canonical presentation sorts valences ascending (so univalent
    vertices take the low labels), directs every edge low -> high and
    lists edges sorted.  A numbering gives each vertex a position in its
    valence block; the key of position p is the ascending tuple of
    positions below p adjacent to the vertex there, and the least key
    sequence over all numberings wins.

    Lazy numbering.  (a) In a least numbering each block opens with a
    run of () keys, and its members form a maximal independent set S of
    the block's vertices with no neighbour in an earlier block: at the
    first non-empty key every other such vertex has an earlier
    neighbour, or its () would be less.  (b) The keys inside the run do
    not depend on the order of S, and a member's position enters a key
    only once a neighbour is numbered.  Exchanging the positions of two
    members that no numbered vertex touches changes no earlier key, so in
    a least numbering, when v is numbered its untouched run neighbours
    take the next free positions of their run, those with more edges to
    v first (more copies of the smaller number make v's key less); only
    members tied in run and multiplicity may come in either order.  So
    least numberings correspond one to one to (S, the order of the other
    vertices, the order inside each tie).  The search walks exactly
    these: a run level adds an untouched vertex above the previous member
    to the set (key ()), cutting off a set that can no longer become
    maximal (every untouched vertex passed over needs a later member
    among its neighbours); a numbered level tries candidates in
    (key, label) order, cut off once a key exceeds the best key's at a
    prefix that matches it, and branches over the tie orders.

    Twin edges.  If adjacent u < v of one valence have the same other
    neighbours, swapping them is an automorphism; it is recorded with
    its sign at once, and v never joins a run.  A least numbering whose
    S holds such a v is carried by the swap onto one whose S holds u
    instead, lexicographically earlier, so every least numbering is a
    product of recorded swaps applied to one whose runs avoid the barred
    ends.

    Automorphisms.  Two numberings with equal keys differ by an
    automorphism, whose effect on the orientation is the ratio of their
    signs; if it is -1 the class is zero.  Every least leaf records one
    against the first least leaf below the latest closed run (the best
    leaf for the first such), and the result carries them relabelled onto
    the canonical presentation.  A candidate is skipped when found
    automorphisms that fix every numbered vertex and map the unnumbered
    run members onto themselves map an explored sibling u onto it, v
    (McKay, "Practical graph isomorphism", 1981); a least leaf whose
    automorphism against its reference does that at the node where
    their paths part returns to that node.  At a numbered level such an
    s fixes the node's state, and keys read the run only as a set, so it
    maps u's subtree onto v's with the same keys.  At a run level with
    set S, a set X through v meets [0, v) in S only, while s^-1(X) holds
    S and u < v, so the least vertex in one set and not the other lies
    in s^-1(X): it comes earlier in the lexicographic order of sorted
    sets.  By induction on that order, with the recorded swaps for
    barred ends (which also lower it), every leaf below v is a product
    of recorded automorphisms applied to an explored leaf.

    Zero detection survives the pruning.  The automorphism group acts
    freely and transitively on the least numberings, every skipped one
    is a product of recorded automorphisms applied to an explored one,
    and explored ones are related to the first by recorded ones.  So the
    recorded automorphisms generate the group, and if none reverses the
    orientation, no automorphism does.
    """
    n = g.n
    base_sign = 1
    norm_edges = []
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for a, b in g.edges:
        if a > b:
            a, b = b, a
            base_sign = -base_sign
        norm_edges.append((a, b))
        neighbors[a].append(b)
        neighbors[b].append(a)

    blocks = [[v for v in range(n) if g.valences[v] == k] for k in (1, 3)]
    legs = len(blocks[0])
    pos = [-1] * n
    # the run a vertex joined (0 the legs', 1 the trivalent one) or -1,
    # and the depths at which it joined and got its position (n: not yet)
    run = [-1] * n
    joined = [n] * n
    at = [n] * n
    # neighbours, with multiplicity, that have a position or joined a run
    touched = [0] * n
    next_free = [0, legs]
    keys: list[list[int]] = []
    # per level, the vertex placed and the run neighbours it numbered, in
    # order (None at a run level)
    path: list = []
    best_key: list[list[int]] = []
    best_pos: list[int] = []
    best_path: list = []
    best_sign = 0
    # position and path of the first least leaf below the latest closed run
    ref: Optional[tuple[list[int], list]] = None
    autos: list[list[int]] = []
    zero = False

    def leaf_sign() -> int:
        reversals = len([1 for a, b in norm_edges if pos[a] > pos[b]])
        return perm_sign(pos) * (-1 if reversals % 2 else 1)

    def lazy_key(v: int) -> tuple[list[int], int, list[tuple[int, int]]]:
        """(v's key, v, v's unnumbered run neighbours with their edge
        multiplicities in the order they are numbered: by run, higher
        multiplicity first)."""
        nbrs = neighbors[v]
        key = [pos[x] for x in nbrs if pos[x] >= 0]
        if len(key) == len(nbrs):
            key.sort()
            return key, v, []
        fresh = [x for x in nbrs if pos[x] < 0 <= run[x]]
        if len(fresh) == 1:
            key.append(next_free[run[fresh[0]]])
            fresh = [(fresh[0], 1)]
        elif fresh:
            mult = dict.fromkeys(fresh, 0)
            for x in fresh:
                mult[x] += 1
            fresh = sorted(mult.items(), key=lambda xm: (run[xm[0]], -xm[1]))
            free = list(next_free)
            for x, m in fresh:
                key += [free[run[x]]] * m
                free[run[x]] += 1
        key.sort()
        return key, v, fresh

    def numberings(members: list[tuple[int, int]]) -> list[tuple[int, ...]]:
        """Every order of the members that gives their numbering vertex
        its least key: those tied in run and multiplicity permuted."""
        if len(members) < 2:
            return [tuple(x for x, _ in members)]
        groups = groupby(members, key=lambda xm: (run[xm[0]], xm[1]))
        return [tuple(x for grp in choice for x, _ in grp)
                for choice in product(*(permutations(grp) for _, grp in groups))]

    def run_candidates(block: list[int], last: int) -> Optional[list[int]]:
        """Untouched vertices above ``last`` that may join the run next;
        None when the run can no longer become maximal.  Every untouched
        vertex passed over needs a later member among its neighbours."""
        out: list[int] = []
        bound, blocked = n, False
        for x in block:
            if pos[x] >= 0 or run[x] >= 0 or touched[x]:
                continue
            if x > last and not barred[x]:
                if x > bound:
                    break
                out.append(x)
            blocked = True
            bound = min(bound, max([y for y in neighbors[x] if g.valences[y] == g.valences[x]
                                    and pos[y] < 0 > run[y] and not touched[y] | barred[y]],
                                   default=-1))
        return out if out or not blocked else None

    def stabilizes(s: list[int], depth: int) -> bool:
        """s fixes every vertex numbered above ``depth`` and maps the run
        members not numbered there onto themselves."""
        for u in range(n):
            if at[u] < depth:
                if s[u] != u:
                    return False
            elif joined[u] < depth and not at[s[u]] >= depth > joined[s[u]]:
                return False
        return True

    def leaf(state: int) -> int:
        """Record a leaf.  After an automorphism, the depth of the node
        to resume at, else n + 1."""
        nonlocal best_key, best_pos, best_path, best_sign, ref, zero
        if state < 0:
            best_key, best_pos, best_path, best_sign = list(keys), list(pos), list(path), leaf_sign()
            ref = (best_pos, best_path)
            return n + 1
        if ref is None:
            ref_pos, ref_path = best_pos, best_path
            ref = (list(pos), list(path))
        else:
            ref_pos, ref_path = ref
        order = [0] * n
        for v, p in enumerate(pos):
            order[p] = v
        sigma = [order[p] for p in ref_pos]
        autos.append(sigma)
        zero = zero or leaf_sign() != best_sign
        split = next(d for d in range(n) if path[d] != ref_path[d])
        if sigma[ref_path[split][0]] == path[split][0] and stabilizes(sigma, split):
            return split
        return n + 1

    def descend(depth: int, state: int, last: Optional[int]) -> int:
        """state -1: the prefix beats the best key (or there is none
        yet); 0: it equals the best key's prefix.  ``last`` is the latest
        member of the block's open run, -1 before the first, None once
        the run is closed.  Returns the depth of the node to resume at
        when an automorphism maps an explored branch onto the current
        one, else n + 1."""
        nonlocal ref
        if depth == n:
            return leaf(state)
        block = blocks[depth >= legs]
        if last is not None:
            joining = run_candidates(block, last)
            if joining is None:
                return n + 1
            if joining:
                cands = [([], v, None) for v in joining]
            else:
                ref = last = None
        if last is None:
            cands = sorted([lazy_key(v) for v in block if pos[v] < 0 > run[v]])
        # after the last leg the trivalent block opens with its run
        opening = -1 if depth + 1 == legs else None
        explored: list[int] = []
        # orbits of the found automorphisms that stabilize the node,
        # merged in as the search below finds them
        orbits, merged = [], 0
        for key_v, v, members in cands:
            child = state
            if state == 0:
                if key_v > best_key[depth]:
                    break
                if key_v < best_key[depth]:
                    child = -1
            if explored and merged < len(autos):
                orbits = orbits or list(range(n))
                for s in autos[merged:]:
                    if stabilizes(s, depth):
                        for x in range(n):
                            orbits[_find(orbits, x)] = _find(orbits, s[x])
                merged = len(autos)
            if orbits:
                root = _find(orbits, v)
                if root in [_find(orbits, u) for u in explored]:
                    continue
            before = best_key
            keys.append(key_v)
            for u in neighbors[v]:
                touched[u] += 1
            if last is not None:
                run[v], joined[v] = int(depth >= legs), depth
                path.append((v, None))
                back = descend(depth + 1, child, v if opening is None else opening)
                path.pop()
                run[v], joined[v] = -1, n
            else:
                pos[v], at[v] = depth, depth
                for order in numberings(members):
                    for x in order:
                        pos[x], at[x] = next_free[run[x]], depth
                        next_free[run[x]] += 1
                    path.append((v, order))
                    back = descend(depth + 1, child, opening)
                    path.pop()
                    for x in order:
                        next_free[run[x]] -= 1
                        pos[x], at[x] = -1, n
                    if best_key is not before:
                        child = 0
                    if back < depth:
                        break
                pos[v], at[v] = -1, n
            for u in neighbors[v]:
                touched[u] -= 1
            keys.pop()
            if back < depth:
                return back
            explored.append(v)
            if best_key is not before:
                state = 0
        return n + 1

    # swapping the ends of an edge whose other neighbours agree is an
    # automorphism; the higher end never joins a run (see the docstring)
    barred = [False] * n
    for u, v in set(norm_edges):
        if (g.valences[u] == g.valences[v] and sorted([x for x in neighbors[u] if x != v])
                == sorted([x for x in neighbors[v] if x != u])):
            swap = list(range(n))
            swap[u], swap[v] = v, u
            autos.append(swap)
            barred[v] = True
            # the transposition is odd, so an even number of turned edges reverses
            zero = zero or sum(1 for a, b in norm_edges if swap[a] > swap[b]) % 2 == 0
    descend(0, -1, -1)

    # the least key determines the sorted edge list uniquely
    canon_edges = sorted((lo, hi) for hi, lows in enumerate(best_key) for lo in lows)
    canon = Graph(tuple(sorted(g.valences)), tuple(canon_edges))
    # canonical vertex i is best_order[i]: carry every automorphism over
    best_order = [0] * n
    for v, p in enumerate(best_pos):
        best_order[p] = v
    carried = frozenset(tuple(best_pos[sigma[v]] for v in best_order) for sigma in autos)
    return OrientedGraph(canon, 0 if zero else base_sign * best_sign, carried)


def is_isomorphic(g1: Graph, g2: Graph) -> Optional[int]:
    """Sign relating the two orientations, 0 for a zero class, None if
    the underlying graphs are not isomorphic."""
    c1 = canonical_form(g1)
    c2 = canonical_form(g2)
    if c1.graph != c2.graph:
        return None
    if c1.sign_state == 0 or c2.sign_state == 0:
        return 0
    return c1.sign_state * c2.sign_state


def concat(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union presentation: g2 shifted after g1.

    Unitrivalent components have an even number of vertices, so the
    concatenation order never contributes a sign.
    """
    shift = g1.n
    edges = tuple(g1.edges) + tuple((a + shift, b + shift) for a, b in g2.edges)
    return Graph(tuple(g1.valences) + tuple(g2.valences), edges)


def graph_sort_key(g: Graph):
    return (g.n, g.valences, g.edges)


# ---------------------------------------------------------------------------
# wheels


def wheel(n: int) -> Graph:
    """2n-vertex wheel: an n-cycle hub with one pendant spoke per hub
    vertex, presented in its planar orientation (anticlockwise cyclic
    order previous hub edge, next hub edge, spoke at every hub vertex).

    Odd wheels carry an orientation-reversing symmetry and are zero;
    they are rejected.
    """
    if n % 2 != 0 or n < 2:
        raise OddWheel(f"wheel size must be even and >= 2, got {n}")
    hub_edges = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    g = Graph((3,) * n + (1,) * n, tuple(hub_edges + spokes))
    cyclic: dict[int, tuple[Flag, ...]] = {}
    for i in range(n):
        prev = (i - 1) % n
        cyclic[i] = ((prev, 1), (i, 0), (n + i, 0))
    s = from_cyclic(g, cyclic)
    if s == -1:
        # re-present with one reversed spoke so the stored presentation
        # carries the planar orientation itself
        edges = list(g.edges)
        a, b = edges[n]
        edges[n] = (b, a)
        g = Graph(g.valences, tuple(edges))
    return g


# ---------------------------------------------------------------------------
# welding (leg joining) on the incidence table

def _restrict(g: Graph, keep: list[int]) -> tuple[Graph, dict[int, int]]:
    """The presentation on the vertices ``keep``, relabelled in that
    order, with the edges between them in their stored order; the map
    sends each kept edge's old index to its new one."""
    relabel = {v: i for i, v in enumerate(keep)}
    edge_map: dict[int, int] = {}
    edges = []
    for e, (a, b) in enumerate(g.edges):
        if a in relabel and b in relabel:
            edge_map[e] = len(edges)
            edges.append((relabel[a], relabel[b]))
    return Graph(tuple(g.valences[v] for v in keep), tuple(edges)), edge_map


def weld_all(g: Graph, pairs: list[tuple[int, int]]) -> Optional[tuple[Graph, int]]:
    """Join legs pairwise, merging the two pendant edges of each pair.

    Welding keeps the cyclic order at every surviving trivalent vertex,
    which is the presentation-independent way to transport the
    orientation.  Returns (graph, sign) against the new stored
    presentation, or None when a pair closes into a vertex-free circle
    or produces a self-loop (those terms are zero).
    """
    # the flags at every vertex, edited in place: a welded leg's row
    # empties, and the merged edge's flag replaces the dropped one's
    at = _incidence(g)
    s0 = _expansion_sign([f for flags in at for f in flags])
    ends = [list(e) for e in g.edges]
    for u, w in pairs:
        if u == w or not at[u] or not at[w]:
            raise BadIndex(f"bad weld pair ({u}, {w})")
        if g.valences[u] != 1 or g.valences[w] != 1:
            raise BadIndex(f"weld pair ({u}, {w}) must name univalent vertices")
        ((e, ue),), ((f, wf),) = at[u], at[w]
        if e == f:
            return None  # the pair closes a circle with no vertices
        b = ends[f][1 - wf]
        if ends[e][1 - ue] == b:
            return None  # would be a self-loop
        # edge e survives with its end at u re-pointed at b; edge f still
        # ends at the dead leg w, so _restrict drops it
        ends[e][ue] = b
        at[u] = at[w] = []
        at[b][at[b].index((f, 1 - wf))] = (e, ue)

    keep = [v for v in range(g.n) if at[v]]
    g2, emap = _restrict(Graph(g.valences, tuple(map(tuple, ends))), keep)
    s1 = from_cyclic(g2, {i: tuple((emap[e], end) for e, end in at[v])
                          for i, v in enumerate(keep) if g.valences[v] == 3})
    return g2, s0 * s1


# ---------------------------------------------------------------------------
# text format


class GraphParseError(GraphError):
    def __init__(self, message: str, lineno: int):
        super().__init__(f"{message} at line {lineno}")
        self.message = message
        self.lineno = lineno


def _tokenize(text: str) -> tuple[list[str], list[int]]:
    """The whitespace-separated words of text and the line of each."""
    words: list[str] = []
    lines: list[int] = []
    for lineno, linetext in enumerate(text.splitlines(), start=1):
        split = linetext.split()
        words += split
        lines += [lineno] * len(split)
    return words, lines


def _parse_error(words: list[str], lines: list[int], j: int,
                 expect: str | None = None) -> GraphParseError:
    """The error for word j, which is not ``expect``; with no ``expect``,
    for the first of words[j:] that is not an integer."""
    while expect is None and j < len(words):
        try:
            int(words[j])
        except ValueError:
            return GraphParseError(f"expected an integer, found {words[j]!r}", lines[j])
        j += 1
    if j >= len(words):
        return GraphParseError("unexpected end of input", lines[-1] if lines else 1)
    return GraphParseError(f"expected {expect!r}, found {words[j]!r}", lines[j])


def parse_graph_block(words: list[str], lines: list[int], i: int) -> tuple[Graph, int]:
    """Read the ``graph { ... }`` block at word i and build it through
    make_graph; returns the graph and the index of the word after it.

    Checked here, before anything is allocated: the vertex count lies in
    0..2E for E edges (every vertex needs an edge end), and valence lines
    name existing vertices.  make_graph's errors come back at the line of
    the offending statement."""
    n = len(words)
    for j, expect in ((i, "graph"), (i + 1, "{")):
        if j >= n or words[j] != expect:
            raise _parse_error(words, lines, j, expect)
    start_line = count_line = lines[i]
    i += 2
    vertex_count: int | None = None
    declared: dict[int, tuple[int, int]] = {}  # vertex -> (valence, line)
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    while True:  # one statement per turn
        if i >= n:
            raise GraphParseError("unterminated graph block", lines[-1])
        word = words[i]
        if word == "}":
            i += 1
            break
        lineno = lines[i]
        if word not in ("edge", "valence", "vertices"):
            raise GraphParseError(f"unknown statement {word!r}", lineno)
        try:
            if word == "edge":
                edges.append((int(words[i + 1]), int(words[i + 2])))
                edge_lines.append(lineno)
                i += 3
            elif word == "valence":
                declared[int(words[i + 1])] = (int(words[i + 2]), lineno)
                i += 3
            else:
                vertex_count, count_line = int(words[i + 1]), lineno
                i += 2
        except (ValueError, IndexError):
            raise _parse_error(words, lines, i + 1) from None
        if i >= n or words[i] != ";":
            raise _parse_error(words, lines, i, ";")
        i += 1
    if vertex_count is None:
        raise GraphParseError("graph block must declare vertices", start_line)
    if not 0 <= vertex_count <= 2 * len(edges):
        raise GraphParseError(f"vertex count {vertex_count} outside "
                              f"0..{2 * len(edges)} (two ends per edge)", count_line)
    for v, (_, lineno) in declared.items():
        if not 0 <= v < vertex_count:
            raise GraphParseError(f"valence names missing vertex {v}", lineno)
    # undeclared vertices are trivalent
    valences = [declared[v][0] if v in declared else 3 for v in range(vertex_count)]
    try:
        return make_graph(vertex_count, valences, edges), i
    except GraphError as exc:
        name = type(exc).__name__
        if exc.edge is not None:
            raise GraphParseError(name, edge_lines[exc.edge]) from None
        if exc.vertex in declared:
            raise GraphParseError(f"{name}: {exc}", declared[exc.vertex][1]) from None
        raise GraphParseError(f"{name}: {exc}; undeclared vertices are trivalent, "
                              "so valence 1 must be declared", start_line) from None


def parse_graph(text: str) -> Graph:
    words, lines = _tokenize(text)
    g, i = parse_graph_block(words, lines, 0)
    if i < len(words):
        raise GraphParseError(f"trailing input {words[i]!r}", lines[i])
    return g


def format_graph(g: Graph) -> str:
    parts = ["graph", "{", "vertices", str(g.n), ";"]
    for v, k in enumerate(g.valences):
        if k == 1:
            parts += ["valence", str(v), "1", ";"]
    for a, b in g.edges:
        parts += ["edge", str(a), str(b), ";"]
    parts.append("}")
    return " ".join(parts)


def format_oriented(og: OrientedGraph) -> str:
    sign = {1: "+1", -1: "-1", 0: "0"}[og.sign_state]
    return f"sign {sign}\n{format_graph(og.graph)}"
