"""Workload definitions, the seeded quiver generator and the output checks.

Each workload is dominated by a different package layer, so a change to one
layer shows on one workload and is predicted flat on another:

* tables-cold: every structure constant once on a cold context, A3 at q=3
  up to dimension 5.  The quiver enumerators (subrepresentations,
  quotients) and the F_p kernel under them dominate; the Hall layer is idle.
* hall-identities: the algebra, Green, bialgebra, antipode and hexagon
  suites on D4 at q=2 up to dimension 4.  The same counts as tables-cold,
  but re-queried through the pair-count cache, with exact rational
  accumulation in the Hall layer taking a large share.
* sequence-groupoids: the sequence-groupoid suites on A2 at q=2 up to
  dimension 3.  The Aut(E) loops of the categorified layer dominate, and
  the engine suite is the only traffic for the groupoid layer.
"""

import json
import random
from fractions import Fraction

# Underlying graphs; edge k becomes arrow k.  Seed 0 gives exactly the
# bundled quivers a3-source, d4 and a2.
GRAPHS = {
    "A2": (2, ((0, 1),)),
    "A3": (3, ((1, 0), (1, 2))),
    "D4": (4, ((0, 1), (0, 2), (0, 3))),
}

HALL_SUITES = ("algebra", "green", "bialgebra", "antipode", "hexagon")
SEQUENCE_SUITES = ("ext", "riedtmann", "bilinearity", "spans", "bsim",
                   "coherence", "engine")
ALL_SUITES = HALL_SUITES + SEQUENCE_SUITES

WORKLOADS = {
    "tables-cold": {"graph": "A3", "q": 3, "max_dim": 5, "suites": None},
    "hall-identities": {"graph": "D4", "q": 2, "max_dim": 4, "suites": HALL_SUITES},
    "sequence-groupoids": {"graph": "A2", "q": 2, "max_dim": 3,
                           "suites": SEQUENCE_SUITES},
}


def quiver_bytes(graph, seed):
    """The seeded orientation and vertex relabelling of a graph, as JSON bytes."""
    n, edges = GRAPHS[graph]
    perm = list(range(n))
    flips = [False] * len(edges)
    if seed != 0:
        rng = random.Random(seed)
        rng.shuffle(perm)
        flips = [rng.random() < 0.5 for _ in edges]
    arrows = [[perm[t], perm[s]] if flip else [perm[s], perm[t]]
              for (s, t), flip in zip(edges, flips)]
    return (json.dumps({"vertices": n, "arrows": arrows}) + "\n").encode()


def argv_lists(workload, quiver_path, seed):
    """The CLI calls of one pass, without --out."""
    spec = WORKLOADS[workload]
    common = ["--quiver", quiver_path, "--q", str(spec["q"]),
              "--max-dim", str(spec["max_dim"])]
    if spec["suites"] is None:
        return [["tables"] + common]
    out = []
    for suite in spec["suites"]:
        extra = ["--seed", str(seed)] if suite == "engine" else []
        out.append(["verify", suite] + common + extra)
    return out


# ---- arithmetic the checks share -------------------------------------------

def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def gl_order(d, q):
    out = 1
    for i in range(d):
        out *= q ** d - q ** i
    return out


def _vectors(n, total):
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _vectors(n - 1, total - first):
            yield (first,) + rest


def _parse_label(label):
    dims, _, index = label[1:].partition("#")
    return tuple(int(x) for x in dims.split(".")), int(index)


def _fraction(text):
    num, den = text.split("/")
    return Fraction(int(num), int(den))


# ---- report checks -----------------------------------------------------------

def check_verify_report(doc, suite, stderr_counts):
    """Failures in the report of one verify call, and its instance count."""
    problems = []
    if doc.get("ok") is not True:
        problems.append('report has "ok" other than true')
    reports = doc.get("suites", [])
    if len(reports) != 1:
        return problems + [f"{len(reports)} suite reports, expected 1"], 0
    rep = reports[0]
    instances = rep.get("instances", 0)
    problems.extend(rep.get("failures", []))
    if not instances:
        problems.append("no instances")
    if stderr_counts.get(suite, (None,))[0] != instances:
        problems.append("instance counts on stderr and in the report disagree")
    return problems, instances


def check_tables(doc, quiver, q, max_dim, rng, samples=200):
    """Check structure-constant tables by routes the program does not take.

    * Class census: by Gabriel's theorem the number of classes of dimension
      d is the number of ways to write d as a sum of positive roots, the
      vectors of Tits form 1.
    * Orbit count: |Aut E| is read off the ratio of a product and a
      coproduct coefficient (P/(aut M aut N) against P/aut E), and then
      sum_E |GL_d|/|Aut E| must equal q^(sum over arrows d_s d_t), the size
      of the representation space.
    * Unit and counit laws, and associativity on a seeded sample of triples.
    Returns (problems, entries emitted).
    """
    n = quiver["vertices"]
    arrows = [tuple(a) for a in quiver["arrows"]]
    product = {tuple(k[1:-1].split("],[")): {e["class"]: _fraction(e["coeff"])
                                              for e in v}
               for k, v in doc["product"].items()}
    coproduct = {k[1:-1]: {(e["left"], e["right"]): _fraction(e["coeff"])
                           for e in v}
                 for k, v in doc["coproduct"].items()}
    entries = sum(len(v) for v in product.values()) + \
        sum(len(v) for v in coproduct.values())
    problems = []

    labels = sorted(coproduct, key=lambda l: (sum(_parse_label(l)[0]), _parse_label(l)))
    by_dim = {}
    for label in labels:
        by_dim.setdefault(_parse_label(label)[0], []).append(label)

    def tits(d):
        return sum(x * x for x in d) - sum(d[s] * d[t] for s, t in arrows)

    vectors = [d for total in range(max_dim + 1) for d in _vectors(n, total)]
    ways = dict.fromkeys(vectors, 0)
    ways[(0,) * n] = 1
    for r in (d for d in vectors if sum(d) and tits(d) == 1):
        for w in vectors:                      # multisets of positive roots
            v = tuple(a - b for a, b in zip(w, r))
            if min(v) >= 0:
                ways[w] += ways[v]
    for d in vectors:
        if ways[d] != len(by_dim.get(d, [])):
            problems.append(f"census {d}: {len(by_dim.get(d, []))} classes, "
                            f"{ways[d]} Kostant partitions")

    zero = labels[0]
    for label in labels:                       # unit and counit laws
        one = {label: 1}
        if product[(zero, label)] != one or product[(label, zero)] != one or \
                coproduct[label].get((zero, label)) != 1 or \
                coproduct[label].get((label, zero)) != 1:
            problems.append(f"{label}: unit or counit law fails")

    aut = {}
    for label in labels:
        d = _parse_label(label)[0]
        if sum(d) == 0:
            aut[label] = Fraction(1)
            continue
        if sum(d) == 1:
            aut[label] = Fraction(q - 1)
            continue
        values = set()
        for (sub, quo), c in coproduct[label].items():
            if sub in aut and quo in aut and sum(_parse_label(sub)[0]) \
                    and sum(_parse_label(quo)[0]):
                f = product.get((quo, sub), {}).get(label)
                if not f:
                    problems.append(f"{label}: coproduct term {sub}|{quo} has no product term")
                    continue
                values.add(f * aut[quo] * aut[sub] / c)
        if len(values) != 1 or next(iter(values)).denominator != 1:
            problems.append(f"{label}: inconsistent |Aut| {sorted(values)}")
            aut[label] = Fraction(1)
        else:
            aut[label] = values.pop()
    for d, group in by_dim.items():
        gl = 1
        for x in d:
            gl *= gl_order(x, q)
        if sum(Fraction(gl) / aut[l] for l in group) != \
                q ** sum(d[s] * d[t] for s, t in arrows):
            problems.append(f"orbit sizes of dimension {d} do not fill the space")

    def mul(x, y):
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for e, ce in product[(a, b)].items():
                    out[e] = out.get(e, 0) + ca * cb * ce
        return {k: v for k, v in out.items() if v}

    grade = {label: sum(_parse_label(label)[0]) for label in labels}
    nonzero = [label for label in labels if grade[label]]
    for _ in range(samples):
        a = rng.choice([l for l in nonzero if grade[l] <= max_dim - 2])
        b = rng.choice([l for l in nonzero if grade[l] <= max_dim - grade[a] - 1])
        c = rng.choice([l for l in nonzero if grade[l] <= max_dim - grade[a] - grade[b]])
        x, y, z = {a: 1}, {b: 1}, {c: 1}
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            problems.append(f"associativity fails on {a}|{b}|{c}")
    return problems, entries
