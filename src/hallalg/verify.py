"""Named verification suites with uniform reports.

Every suite returns {"check", "instances", "failures", "scope_note", ...};
failure strings start with the instance id they come from, and an `only`
filter replays a single instance.  Reports carry no timing data so that
identical configurations produce byte-identical output.
"""

import inspect
from fractions import Fraction

from .quiver import dim_total, dim_vectors_with_total
from .hall import HallVector, format_coeff
from . import cathall
from . import groupoids as gpd


HEXAGON_ENTRY_BOUND = 5    # largest grade entry of the hexagon triples on two vertices
HEXAGON_MAX_GRADES = 50    # the entry bound shrinks until at most this many grades remain
BSIM_CAP = 2               # total-dimension cap of the braiding span's base
COHERENCE_CAP = 2          # total-dimension cap of the coherence polytopes
ENGINE_SPAN_TRIALS = 50
ENGINE_EQUIV_TRIALS = 20


def _want(only, instance):
    return only is None or only == instance


def suite_algebra(ctx, hall, max_dim, only=None):
    """Associativity, coassociativity, grading, unit and counit laws."""
    failures = []
    instances = 0
    labels = [c.label for c in ctx.classes_up_to(max_dim)]
    totals = {l: dim_total(hall.grade(l)) for l in labels}
    for la in labels:
        for lb in labels:
            if totals[la] + totals[lb] > max_dim:
                continue
            for lc in labels:
                if totals[la] + totals[lb] + totals[lc] > max_dim:
                    continue
                inst = f"assoc:{la}|{lb}|{lc}"
                if not _want(only, inst):
                    continue
                instances += 1
                va, vb, vc = (HallVector.basis(x) for x in (la, lb, lc))
                left = hall.product(hall.product(va, vb, max_dim), vc, max_dim)
                right = hall.product(va, hall.product(vb, vc, max_dim), max_dim)
                if left != right:
                    failures.append(f"{inst}: products differ")
    for le in labels:
        inst = f"coassoc:{le}"
        if _want(only, inst):
            instances += 1
            if _coassoc_residual(hall, le):
                failures.append(f"{inst}: coproduct not coassociative")
        inst = f"grading:{le}"
        if _want(only, inst):
            instances += 1
            ge = hall.grade(le)
            for (ln, lm), _ in hall.coproduct_basis(le).items():
                if tuple(a + b for a, b in zip(hall.grade(ln), hall.grade(lm))) != ge:
                    failures.append(f"{inst}: coproduct term breaks the grading")
                    break
        inst = f"counit:{le}"
        if _want(only, inst):
            instances += 1
            t = hall.coproduct(HallVector.basis(le))
            if hall.counit_tensor_left(t) != HallVector.basis(le) or \
               hall.counit_tensor_right(t) != HallVector.basis(le):
                failures.append(f"{inst}: (counit x id) Delta != id")
        inst = f"unit:{le}"
        if _want(only, inst):
            instances += 1
            v = HallVector.basis(le)
            if hall.product(hall.unit(), v, max_dim) != v or \
               hall.product(v, hall.unit(), max_dim) != v:
                failures.append(f"{inst}: unit law fails")
    for la in labels:
        for lb in labels:
            if totals[la] + totals[lb] > max_dim:
                continue
            inst = f"prodgrade:{la}|{lb}"
            if not _want(only, inst):
                continue
            instances += 1
            gsum = tuple(a + b for a, b in zip(hall.grade(la), hall.grade(lb)))
            for le, _ in hall.product_basis(la, lb).items():
                if hall.grade(le) != gsum:
                    failures.append(f"{inst}: product term breaks the grading")
                    break
    return {"check": "algebra", "instances": instances, "failures": failures,
            "scope_note": "exact rational identities"}


def _coassoc_residual(hall, label):
    t = hall.coproduct_basis(label)
    left = {}
    right = {}
    for (ln, lm), c in t.items():
        for (la, lb), c2 in hall.coproduct_basis(ln).items():
            key = (la, lb, lm)
            left[key] = left.get(key, 0) + c * c2
        for (la, lb), c2 in hall.coproduct_basis(lm).items():
            key = (ln, la, lb)
            right[key] = right.get(key, 0) + c * c2
    keys = set(left) | set(right)
    return any(left.get(k, 0) != right.get(k, 0) for k in keys)


def suite_green(ctx, hall, max_dim, only=None):
    """Green's formula residual on every admissible quadruple."""
    failures = []
    instances = 0
    labels = [c.label for c in ctx.classes_up_to(max_dim)]
    by_grade = {}
    for l in labels:
        by_grade.setdefault(hall.grade(l), []).append(l)
    pairs_by_total = {}
    for lm in labels:
        for ln in labels:
            g = tuple(a + b for a, b in zip(hall.grade(lm), hall.grade(ln)))
            if sum(g) <= max_dim:
                pairs_by_total.setdefault(g, []).append((lm, ln))
    for g, pairs in sorted(pairs_by_total.items()):
        for lm, ln in pairs:
            for lx, ly in pairs:
                inst = f"green:{lm}|{ln}|{lx}|{ly}"
                if not _want(only, inst):
                    continue
                instances += 1
                res = hall.green_residual(lm, ln, lx, ly)
                if res != 0:
                    failures.append(f"{inst}: residual {format_coeff(res)}")
    return {"check": "green", "instances": instances, "failures": failures,
            "scope_note": "exact rational identities"}


def suite_bialgebra(ctx, hall, max_dim, only=None):
    failures = []
    instances = 0
    labels = [c.label for c in ctx.classes_up_to(max_dim)]
    for lm in labels:
        for ln in labels:
            if dim_total(hall.grade(lm)) + dim_total(hall.grade(ln)) > max_dim:
                continue
            inst = f"bialgebra:{lm}|{ln}"
            if not _want(only, inst):
                continue
            instances += 1
            res = hall.bialgebra_residual(lm, ln, max_dim)
            if not res.is_zero():
                failures.append(f"{inst}: residual has {len(res.coeffs)} terms")
    return {"check": "bialgebra", "instances": instances, "failures": failures,
            "scope_note": "braided tensor product on H (x) H"}


def suite_antipode(ctx, hall, max_dim, only=None):
    """Both antipode axioms for the canonical S, plus the comparison report."""
    failures = []
    instances = 0
    for cls in ctx.classes_up_to(max_dim):
        inst = f"antipode:{cls.label}"
        if not _want(only, inst):
            continue
        instances += 1
        left, right = hall.antipode_axiom_residuals(cls.label, max_dim)
        if not left.is_zero():
            failures.append(f"{inst}: left axiom residual nonzero")
        if not right.is_zero():
            failures.append(f"{inst}: right axiom residual nonzero")
    comparison = hall.antipode_comparison(max_dim)
    return {"check": "antipode", "instances": instances, "failures": failures,
            "scope_note": "canonical antipode axioms; comparison emitted either way",
            "comparison": comparison}


def suite_hexagon(ctx, hall, max_dim, only=None):
    """Hexagon coefficient identity and braid invertibility.

    The braiding coefficient must be multiplicative in each slot of the
    Euler form (checked over all grades with entries <= entry_bound), and
    braid followed by inverse braid must be the identity on basis tensors.
    The entry bound is 5 on two vertices and shrinks on larger quivers to
    keep the triple count bounded; the bound used is reported.
    """
    failures = []
    instances = 0
    n = ctx.quiver.n
    entry_bound = HEXAGON_ENTRY_BOUND
    while entry_bound > 1 and (entry_bound + 1) ** n > HEXAGON_MAX_GRADES:
        entry_bound -= 1
    grades = []
    for total in range(entry_bound * n + 1):
        for d in dim_vectors_with_total(n, total):
            if max(d, default=0) <= entry_bound:
                grades.append(d)
    for u in grades:
        for v in grades:
            for w in grades:
                inst = "hex:" + "|".join(".".join(map(str, g)) for g in (u, v, w))
                if not _want(only, inst):
                    continue
                instances += 1
                vw = tuple(a + b for a, b in zip(v, w))
                if hall.braid_coeff(u, vw) != hall.braid_coeff(u, v) * hall.braid_coeff(u, w):
                    failures.append(f"{inst}: first hexagon coefficient fails")
                uv = tuple(a + b for a, b in zip(u, v))
                if hall.braid_coeff(uv, w) != hall.braid_coeff(u, w) * hall.braid_coeff(v, w):
                    failures.append(f"{inst}: second hexagon coefficient fails")
    labels = [c.label for c in ctx.classes_up_to(max_dim)]
    for la in labels:
        for lb in labels:
            inst = f"braidinv:{la}|{lb}"
            if not _want(only, inst):
                continue
            instances += 1
            t = HallVector.basis(la, lb)
            if hall.braid_inverse(hall.braid(t)) != t:
                failures.append(f"{inst}: braid then inverse is not the identity")
    return {"check": "hexagon", "instances": instances, "failures": failures,
            "entry_bound": entry_bound,
            "scope_note": "coefficient level, exact"}


def suite_ext(ctx, max_dim, only=None):
    failures = []
    instances = 0
    classes = ctx.classes_up_to(max_dim)
    for cm in classes:
        for cn in classes:
            if dim_total(cm.dim) + dim_total(cn.dim) > max_dim:
                continue
            inst = f"ext:{cm.label}|{cn.label}"
            if not _want(only, inst):
                continue
            instances += 1
            r = cathall.ext_cardinality_check(ctx, cm.rep, cn.rep)
            if not r["equal"]:
                failures.append(
                    f"{inst}: {format_coeff(r['lhs'])} != {format_coeff(r['rhs'])}")
    return {"check": "ext-cardinality", "instances": instances, "failures": failures,
            "scope_note": "triple-morphism convention"}


def suite_riedtmann(ctx, max_dim, only=None):
    failures = []
    instances = 0
    classes = ctx.classes_up_to(max_dim)
    for cm in classes:
        for cn in classes:
            total = tuple(a + b for a, b in zip(cm.dim, cn.dim))
            if sum(total) > max_dim:
                continue
            for ce in ctx.classify(total):
                inst = f"riedtmann:{cm.label}|{cn.label}|{ce.label}"
                if not _want(only, inst):
                    continue
                instances += 1
                r = cathall.riedtmann_check(ctx, cm.rep, cn.rep, ce.rep)
                if not r["equal"]:
                    failures.append(
                        f"{inst}: {format_coeff(r['lhs'])} != {format_coeff(r['rhs'])}")
    return {"check": "riedtmann", "instances": instances, "failures": failures,
            "scope_note": "independent cocycle enumeration on the right side"}


def suite_bilinearity(ctx, max_dim, only=None):
    failures = []
    instances = 0
    classes = ctx.classes_up_to(max_dim)
    for c1 in classes:
        for c2 in classes:
            for cn in classes:
                if dim_total(c1.dim) + dim_total(c2.dim) + dim_total(cn.dim) > max_dim:
                    continue
                inst = f"bilin1:{c1.label}|{c2.label}|{cn.label}"
                if _want(only, inst):
                    instances += 1
                    r = cathall.ext_bilinearity_first(ctx, c1.rep, c2.rep, cn.rep)
                    if not (r["equal"] and r["skeleton_bijection"] and r["round_trip"]):
                        failures.append(f"{inst}: {r['lhs']} vs {r['rhs']}, "
                                        f"bijection {r['skeleton_bijection']}")
                inst = f"bilin2:{cn.label}|{c1.label}|{c2.label}"
                if _want(only, inst):
                    instances += 1
                    r = cathall.ext_bilinearity_second(ctx, cn.rep, c1.rep, c2.rep)
                    if not (r["equal"] and r["skeleton_bijection"] and r["round_trip"]):
                        failures.append(f"{inst}: {r['lhs']} vs {r['rhs']}, "
                                        f"bijection {r['skeleton_bijection']}")
    return {"check": "ext-bilinearity", "instances": instances, "failures": failures,
            "scope_note": "fixed-end cardinalities; skeleton bijection via extension classes"}


def suite_spans(ctx, hall, max_dim, only=None):
    """Degroupoidified multiplication/comultiplication spans against the algebra.

    An `only` id runs just the side its prefix names.
    """
    reps = [side(ctx, hall, max_dim, only) for prefix, side in
            (("mult:", cathall.mult_matrix_against_hall),
             ("comult:", cathall.comult_matrix_against_hall))
            if only is None or only.startswith(prefix)]
    return {"check": "spans", "instances": sum(r["instances"] for r in reps),
            "failures": [f for r in reps for f in r["failures"]],
            "scope_note": "matrix entries vs structure constants, exact"}


def suite_bsim(ctx, hall, max_dim, only=None):
    """Braiding span versus EXT, and its matrix versus the algebraic braiding."""
    bound = min(max_dim, BSIM_CAP)
    base = cathall.build_A0(ctx, bound)
    span = cathall.BraidingSpan(ctx, base, base)
    rep = cathall.bsim_ext_check(ctx, span, only)
    failures = list(rep["failures"])
    matrix = None
    instances = rep["instances"]
    for i, x in enumerate(base):
        for j, y in enumerate(base):
            lx = ctx.class_of(x).label
            ly = ctx.class_of(y).label
            inst = f"braidmatrix:{lx}|{ly}"
            if not _want(only, inst):
                continue
            instances += 1
            if matrix is None:
                matrix = span.matrix()
            got = matrix.get(((ly, lx), (lx, ly)), Fraction(0))
            want = hall.braid_coeff(x.dim, y.dim)
            if got != want:
                failures.append(f"{inst}: span {format_coeff(got)} != "
                                f"braiding {format_coeff(want)}")
    return {"check": "bsim-ext", "instances": instances, "failures": failures,
            "bound": bound, "scope_note": "object/cardinality level"}


def suite_coherence(ctx, max_dim, only=None):
    bound = min(max_dim, COHERENCE_CAP)
    failures = []
    instances = 0
    for name in cathall.COHERENCE_NAMES:
        if only is not None and not only.startswith(name):
            continue
        rep = cathall.coherence_check(ctx, name, bound, only)
        instances += rep["instances"]
        failures.extend(rep["failures"])
    return {"check": "coherence", "instances": instances, "failures": failures,
            "bound": bound,
            "scope_note": "object/cardinality level; 2-cell equalities out of scope"}


def suite_engine(seed, only=None):
    """Randomized groupoid-engine properties with a fixed seed.

    Functoriality of degroupoidification on composable span pairs, the two
    cardinality formulas on every constructed groupoid, vector addition and
    scaling, and equivalence implying equal cardinality.
    """
    rng = gpd.RandomGroupoids(seed)
    failures = []
    instances = 0

    def check_cards(G, inst):
        if G.cardinality() != G.cardinality_alt():
            failures.append(f"{inst}: cardinality formulas disagree")

    for k in range(ENGINE_SPAN_TRIALS):
        inst = f"engine:span:{k}"
        # random draws happen unconditionally so --only replays exactly
        X, Y, Z = rng.groupoid(), rng.groupoid(), rng.groupoid()
        s = rng.span(X, Y)
        t = rng.span(Y, Z)
        psi = rng.span(X, X).left
        v2 = rng.span(X, X).left
        lam_order = rng.rng.choice((1, 2, 3))
        if not _want(only, inst):
            continue
        instances += 1
        for G in (X, Y, Z, s.apex, t.apex):
            check_cards(G, inst)
        ts = gpd.compose_spans(t, s)
        check_cards(ts.apex, inst)
        e_ts, _, _ = gpd.degroupoidify_span(ts)
        e_t, _, _ = gpd.degroupoidify_span(t)
        e_s, _, _ = gpd.degroupoidify_span(s)
        if e_ts != gpd.matrix_product(e_t, e_s):
            failures.append(f"{inst}: composite matrix != matrix product")
        sv = gpd.apply_span(s, psi)
        if gpd.degroupoidify_vector(sv) != gpd.apply_matrix(
                e_s, gpd.degroupoidify_vector(psi)):
            failures.append(f"{inst}: span application != matrix application")
        lhs = gpd.degroupoidify_vector(gpd.add_vectors(psi, v2))
        rhs = gpd.degroupoidify_vector(psi)
        for key, val in gpd.degroupoidify_vector(v2).items():
            rhs[key] = rhs.get(key, Fraction(0)) + val
        if lhs != {k2: v for k2, v in rhs.items() if v}:
            failures.append(f"{inst}: vector addition not additive")
        lam = gpd.group_groupoid(gpd.cyclic_table(lam_order))
        lhs = gpd.degroupoidify_vector(gpd.scale_vector(lam, psi))
        rhs = {k2: lam.cardinality() * v for k2, v in
               gpd.degroupoidify_vector(psi).items()}
        if lhs != {k2: v for k2, v in rhs.items() if v}:
            failures.append(f"{inst}: vector scaling off")
    for k in range(ENGINE_EQUIV_TRIALS):
        inst = f"engine:equiv:{k}"
        G = rng.groupoid()
        comps = []
        for cls in G.iso_class_partition():
            rep = cls[0]
            comps.append((rng.rng.randint(1, 3), G.aut_order(rep)))
        if not _want(only, inst):
            continue
        instances += 1
        H = None
        for m, aut in comps:
            piece = gpd.connected_groupoid(m, gpd.cyclic_table(aut))
            H = piece if H is None else gpd.coproduct_groupoid(H, piece)[0]
        if not gpd.equivalent(G, H):
            failures.append(f"{inst}: rebuilt groupoid not equivalent")
        elif G.cardinality() != H.cardinality():
            failures.append(f"{inst}: equivalent groupoids with different cardinality")
    for k in range(10):
        inst = f"engine:discrete:{k}"
        nx, ny, nb = rng.rng.randint(1, 4), rng.rng.randint(1, 4), rng.rng.randint(1, 3)
        A = gpd.discrete_groupoid(nx)
        B = gpd.discrete_groupoid(ny)
        X = gpd.discrete_groupoid(nb)
        fmap = [rng.rng.randrange(nb) for _ in range(nx)]
        gmap = [rng.rng.randrange(nb) for _ in range(ny)]
        if not _want(only, inst):
            continue
        instances += 1
        f = gpd.GroupoidFunctor(A, X, fmap, fmap)
        g = gpd.GroupoidFunctor(B, X, gmap, gmap)
        P, _, _ = gpd.weak_pullback(f, g)
        expected = sum(1 for a in range(nx) for b in range(ny) if fmap[a] == gmap[b])
        if not P.is_discrete() or P.n_objects() != expected:
            failures.append(f"{inst}: discrete pullback is not the fibered product")
    return {"check": "engine", "instances": instances, "failures": failures,
            "seed": seed, "scope_note": "seeded randomized properties"}


def suite_gabriel(ctx, max_dim, only=None):
    """Positive roots against indecomposable classes inside a scan box."""
    failures = []
    instances = 0
    if not ctx.quiver.is_dynkin:
        return {"check": "gabriel", "instances": 0, "failures": [],
                "scope_note": "skipped: quiver is not simply-laced Dynkin"}
    roots = ctx.positive_roots()
    box_total = min(max_dim, 4)
    box_entry = 2
    roots_in_box = [r for r in roots
                    if sum(r) <= box_total and max(r, default=0) <= box_entry]
    inst = "gabriel:count"
    if _want(only, inst):
        instances += 1
        inds = ctx.indecomposable_classes(box_total, max_entry=box_entry)
        if len(inds) != len(roots_in_box):
            failures.append(f"{inst}: {len(inds)} indecomposables vs "
                            f"{len(roots_in_box)} roots in box")
        if sorted(c.dim for c in inds) != sorted(roots_in_box):
            failures.append(f"{inst}: dimension vectors differ from the root system")
    return {"check": "gabriel", "instances": instances, "failures": failures,
            "roots": len(roots), "scope_note": f"scan box: total <= {box_total}, "
            f"entries <= {box_entry}"}


SUITE_ORDER = ("algebra", "green", "bialgebra", "antipode", "hexagon", "ext",
               "riedtmann", "bilinearity", "spans", "bsim", "coherence",
               "engine", "gabriel")


def run_suite(name, ctx, hall, max_dim, seed, only=None):
    """Run suite_<name>, passing whichever of ctx, hall, max_dim, seed it takes."""
    if name not in SUITE_ORDER:
        raise ValueError(f"unknown suite {name!r}; options: {SUITE_ORDER} or 'all'")
    suite = globals()[f"suite_{name}"]
    given = {"ctx": ctx, "hall": hall, "max_dim": max_dim, "seed": seed}
    args = [given[p] for p in inspect.signature(suite).parameters if p in given]
    return suite(*args, only=only)
