"""Checks of every reply against referees that are not the timed path.

Nothing here imports graphgenus.  Graph weights come from the ribbon
expansion of the gl(N) weight system: with the trace form,
f_abc = tr(a[b,c]) = tr(abc) - tr(acb), so expanding every vertex into
its two cyclic orders writes the weight of a trivalent graph as a signed
sum, over rotation systems, of N^(boundary cycles).  That gives an
integer polynomial in N; sl2 with the trace form of its defining
representation agrees with gl2 on graphs with vertices.  Weights are
IHX-invariant, so they check reductions, relations and oracle values.
"""
from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import gen

ALGEBRA_N = {"sl2": 2, "gl2": 2, "gl3": 3}

# sqrt(A-hat) and A-hat of a hyperkähler manifold (odd Chern classes
# vanish) as polynomials in the even Chern numbers, derived from the
# roots +-x_i with sympy.
SQRT_AHAT = {
    1: {"c2": Fraction(1, 24)},
    2: {"c2sq": Fraction(7, 5760), "c4": Fraction(-1, 1440)},
    3: {"c2cube": Fraction(31, 967680), "c2c4": Fraction(-11, 241920),
        "c6": Fraction(1, 60480)},
}
AHAT = {
    1: {"c2": Fraction(1, 12)},
    2: {"c2sq": Fraction(1, 240), "c4": Fraction(-1, 720)},
    3: {"c2cube": Fraction(1, 6048), "c2c4": Fraction(-1, 6720),
        "c6": Fraction(1, 30240)},
}
# b_2n of (1/2) log(sinh(x/2)/(x/2))
B_COEFF = {1: Fraction(1, 48), 2: Fraction(-1, 5760), 3: Fraction(1, 362880)}

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_HERE, "reference", "genus.json"), encoding="utf-8") as _fh:
    # genus outputs recorded at the commit that introduced the benchmark
    GENUS_REFERENCE = json.load(_fh)


# ---------------------------------------------------------------------------
# text of the program's output


def parse_graphs(text: str):
    """[(coefficient or sign, graph)] from vector or normalize text."""
    toks = text.split()
    out, i = [], 0
    while i < len(toks):
        coeff = Fraction(1)
        if toks[i] in ("coeff", "sign"):
            coeff = Fraction(toks[i + 1])
            i += 2
        if toks[i:i + 2] != ["graph", "{"]:
            raise ValueError(f"expected a graph block at token {i}")
        i += 2
        n, legs, edges = 0, set(), []
        while toks[i] != "}":
            word = toks[i]
            if word == "vertices":
                n = int(toks[i + 1])
                i += 3
            elif word == "valence":
                if toks[i + 2] != "1":
                    raise ValueError("unexpected valence declaration")
                legs.add(int(toks[i + 1]))
                i += 4
            elif word == "edge":
                edges.append((int(toks[i + 1]), int(toks[i + 2])))
                i += 4
            else:
                raise ValueError(f"unknown statement {word!r}")
        i += 1
        valences = tuple(1 if v in legs else 3 for v in range(n))
        out.append((coeff, (valences, tuple(edges))))
    return out


# ---------------------------------------------------------------------------
# gl(N) weights


def weight_poly(g) -> dict[int, int]:
    """gl(N) weight of a trivalent presentation as {power of N: coeff}."""
    valences, edges = g
    n = len(valences)
    if any(k != 3 for k in valences):
        raise ValueError("weights need a trivalent graph")
    if n == 0:
        return {0: 1}
    sign = gen.cyclic_sign(g)
    fwd = [0] * (2 * len(edges))
    bwd = [0] * (2 * len(edges))
    vertex_of = [0] * (2 * len(edges))
    for v in range(n):
        d = gen.flags_at(g, v)
        for i in range(3):
            fwd[d[i]] = d[(i + 1) % 3]
            bwd[d[(i + 1) % 3]] = d[i]
            vertex_of[d[i]] = v
    darts = range(len(fwd))
    poly: dict[int, int] = {}
    # reversing every vertex keeps the face count and, n being even, the
    # sign, so fix the last vertex and double
    for mask in range(1 << (n - 1)):
        rot = [bwd[d] if mask >> vertex_of[d] & 1 else fwd[d] for d in darts]
        seen = [False] * len(rot)
        faces = 0
        for start in darts:
            if seen[start]:
                continue
            faces += 1
            d = start
            while not seen[d]:
                seen[d] = True
                d = rot[d ^ 1]
        term = -2 if bin(mask).count("1") % 2 else 2
        poly[faces] = poly.get(faces, 0) + term * sign
    return {f: c for f, c in poly.items() if c}


def vector_poly(terms) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for coeff, g in terms:
        for f, c in weight_poly(g).items():
            out[f] = out.get(f, Fraction(0)) + coeff * c
    return {f: c for f, c in out.items() if c}


def evaluate(poly, N: int) -> Fraction:
    return sum((Fraction(c) * N ** f for f, c in poly.items()), Fraction(0))


# ---------------------------------------------------------------------------
# per-request checks; each returns None or the reason for failure


def _analyze_expected(req):
    k, chern = req.meta["k"], req.meta["chern"]
    sqrt_a = sum(c * chern[m] for m, c in SQRT_AHAT[k].items())
    ahat = sum(c * chern[m] for m, c in AHAT[k].items())
    euler = chern[gen.TOP_CLASS[k]]
    b = 48 ** k * math.factorial(k) * sqrt_a
    lines = [f"sqrt_ahat {sqrt_a}", f"ahat {ahat}", f"euler {euler}", f"b_theta_k {b}"]
    verdicts = [("odd_chern_vanish", "pass"),
                ("ahat_equals_k_plus_1", "pass" if ahat == k + 1 else "fail"),
                ("sqrt_ahat_positive", "pass" if sqrt_a > 0 else "fail")]
    if k == 2:
        verdicts += [("a1_squared_below_12", "pass" if Fraction(chern["c2sq"], 144) < 12 else "fail"),
                     ("euler_below_3024", "pass" if euler < 3024 else "fail"),
                     ("beauville_euler_at_most_324", "info-yes" if euler <= 324 else "info-no")]
    lines += [f"verdicts.{key} {value}" for key, value in verdicts]
    code = 1 if any(v == "fail" for _, v in verdicts) else 0
    return code, lines


def _omega_expected(k: int) -> str:
    lines = [f"b{2 * n} = {B_COEFF[n]}" for n in range(1, k + 1)]
    terms = ["1"]
    for total in range(1, k + 1):
        for parts in _partitions(total):
            coeff = Fraction(1)
            labels = []
            for n in sorted(set(parts)):
                m = parts.count(n)
                coeff *= B_COEFF[n] ** m / math.factorial(m)
                labels.append(f"w{2 * n}" + (f"^{m}" if m > 1 else ""))
            terms.append(f"({coeff})" + "*".join(labels))
    return "\n".join(lines) + "\nomega = " + " + ".join(terms) + "\n"


def _partitions(total, smallest=1):
    if total == 0:
        return [()]
    return [(p,) + rest for p in range(smallest, total + 1)
            for rest in _partitions(total - p, p)]


def check(req, reply) -> str | None:
    if reply.get("exc"):
        return f"raised {reply['exc']}"
    code, out = reply["code"], reply["out"]
    kind, meta = req.kind, req.meta
    if kind == "malformed":
        if code != 2 or out:
            return f"malformed input gave exit {code}, expected 2"
        return None
    if kind == "analyze":
        want_code, lines = _analyze_expected(req)
        got = out.splitlines()
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        got_lines = [ln for ln in got if not ln.startswith(("c_theta", "norm_R_sq"))]
        if got_lines != lines:
            return f"report {got_lines} != {lines}"
        return None
    if code != 0:
        return f"exit {code}: {reply['err'].strip()[:200]}"
    if "expect_out" in meta:
        return None if out == meta["expect_out"] else f"output {out!r}"
    if kind == "genus":
        want = GENUS_REFERENCE[meta["series"]][str(meta["k"])]
        return None if out == want else "genus polynomial differs from the reference"
    if kind == "omega":
        want = _omega_expected(meta["k"])
        return None if out == want else f"omega output {out!r} != {want!r}"
    if kind == "oracle":
        want = evaluate(vector_poly(req.meta["terms"]), ALGEBRA_N[meta["algebra"]])
        return None if Fraction(out.strip()) == want else f"weight {out.strip()} != {want}"
    if kind == "ihx":
        terms = parse_graphs(out)
        if not terms or any(g[0] != (3,) * 2 * meta["k"] for _, g in terms):
            return "relations must be nonempty sums of degree-k trivalent graphs"
        return None if not vector_poly(terms) else "relations do not weigh zero in gl(N)"
    if kind == "reduce":
        terms = parse_graphs(out)
        if meta.get("relation"):
            return None if terms == [(0, ((), ()))] else "relation did not reduce to 0"
        if any(g[0] != (3,) * 2 * meta["k"] for c, g in terms if c):
            return "normal form leaves degree k"
        want = vector_poly(req.meta["terms"])
        got = vector_poly([(c, g) for c, g in terms if c])
        return None if got == want else "normal form changes the gl(N) weight"
    if kind == "normalize":
        ((sign, canon),) = parse_graphs(out)
        base = meta["base"]
        if sorted(canon[0]) != sorted(base[0]) or len(canon[1]) != len(base[1]):
            return "canonical graph has other vertices or edges"
        if all(k == 3 for k in base[0]):
            scaled = {f: meta["pred"] * sign * c for f, c in weight_poly(canon).items()}
            if weight_poly(base) != {f: c for f, c in scaled.items() if c}:
                return "sign disagrees with the gl(N) weight"
        return None
    return f"no referee for {kind}"


def check_groups(requests, replies) -> set:
    """Groups whose re-presentations disagree.

    normalize: the canonical graph and the sign times the predicted
    relabel sign must be the same for all; reduce: the normal form must.
    """
    groups: dict = {}
    for req, reply in zip(requests, replies):
        group = req.meta.get("group")
        if group is None or reply.get("exc") or reply["code"] != 0:
            continue
        if req.kind == "normalize":
            sign_line, graph_line = reply["out"].split("\n", 1)
            key = (graph_line, int(sign_line.split()[1]) * req.meta["pred"])
        else:
            key = reply["out"]
        groups.setdefault(group, set()).add(key)
    return {g for g, keys in groups.items() if len(keys) > 1}


def check_defect(reply) -> str | None:
    """Known-defect probe: the contract says exit 2 with a message."""
    if reply.get("exc"):
        return f"{reply['exc']} escapes cli.main"
    if reply["code"] != 2:
        return f"exit {reply['code']}, expected 2"
    return None
