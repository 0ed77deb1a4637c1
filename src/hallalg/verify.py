"""Named verification suites with uniform reports.

Every suite is a plain loop over instance ids under one Run, and returns
{"check", "instances", "failures", ...} followed by its own keys; failure
strings start with the instance id they come from, and an `only` filter
replays a single instance, or every instance of one check.  Reports carry
no timing data so that identical configurations produce byte-identical
output.
"""

import functools
import inspect
from fractions import Fraction

from .linalg import BudgetError
from .quiver import dim_add, dim_vectors_with_total
from .hall import HallVector, format_coeff
from . import cathall
from . import groupoids as gpd


HEXAGON_ENTRY_BOUND = 5    # largest grade entry of the hexagon triples on two vertices
HEXAGON_MAX_GRADES = 50    # the entry bound shrinks until at most this many grades remain
BSIM_CAP = 2               # total-dimension cap of the braiding span's base
COHERENCE_CAP = 2          # total-dimension cap of the coherence polytopes
ENGINE_SPAN_TRIALS = 50
ENGINE_EQUIV_TRIALS = 20


class Run:
    """One suite run: which instances `only` selects, how many ran, what failed.

    `only` is an instance id, or the part of ids before their first ':',
    which selects every instance of that check (`assoc`, `shuffle-1-3`).
    """

    def __init__(self, only=None):
        self.only = only
        self.instances = 0
        self.failures = []
        self.current = None

    def selects(self, inst):
        """Whether `only` selects inst; if so, inst becomes current."""
        if self.only is not None and self.only not in (inst, inst.partition(":")[0]):
            return False
        self.current = inst
        return True

    def want(self, inst):
        """selects(inst), counting inst as one more instance."""
        if not self.selects(inst):
            return False
        self.instances += 1
        return True

    def fail(self, msg):
        self.failures.append(f"{self.current}: {msg}")


def _suite(check):
    """Make body(run, ...) -> own report keys into suite_<name>(..., only=None).

    The report is check, instances and failures, then the body's keys.  A
    BudgetError leaving the body names the suite and its current instance.
    """
    def wrap(body):
        @functools.wraps(body)
        def suite(*args, only=None, **kwargs):
            run = Run(only)
            try:
                own = body(run, *args, **kwargs)
            except BudgetError as exc:
                exc.where = f", in suite {body.__name__[len('suite_'):]}" + (
                    f", instance '{run.current}'" if run.current else "")
                raise
            return {"check": check, "instances": run.instances,
                    "failures": run.failures, **own}
        return suite
    return wrap


@_suite("algebra")
def suite_algebra(run, ctx, hall, max_dim):
    """Associativity, coassociativity, grading, unit and counit laws."""
    for triple in ctx.class_tuples(max_dim, 3):
        if not run.want("assoc:" + "|".join(c.label for c in triple)):
            continue
        va, vb, vc = (HallVector.basis(c.label) for c in triple)
        left = hall.product(hall.product(va, vb, max_dim), vc, max_dim)
        right = hall.product(va, hall.product(vb, vc, max_dim), max_dim)
        if left != right:
            run.fail("products differ")
    for le in (c.label for c in ctx.classes_up_to(max_dim)):
        if run.want(f"coassoc:{le}") and _coassoc_residual(hall, le):
            run.fail("coproduct not coassociative")
        if run.want(f"grading:{le}"):
            ge = hall.grade(le)
            for (ln, lm), _ in hall.coproduct_basis(le).items():
                if tuple(a + b for a, b in zip(hall.grade(ln), hall.grade(lm))) != ge:
                    run.fail("coproduct term breaks the grading")
                    break
        if run.want(f"counit:{le}"):
            # coproduct_basis is |G_e| Delta([E])
            t = HallVector(hall.coproduct_basis(le))
            e = HallVector.basis(le).scale(hall.grade_order(hall.grade(le)))
            if hall.counit_tensor(t, 0) != e or hall.counit_tensor(t, 1) != e:
                run.fail("(counit x id) Delta != id")
        if run.want(f"unit:{le}"):
            v = HallVector.basis(le)
            if hall.product(hall.unit(), v, max_dim) != v or \
               hall.product(v, hall.unit(), max_dim) != v:
                run.fail("unit law fails")
    for ca, cb in ctx.class_tuples(max_dim, 2):
        if not run.want(f"prodgrade:{ca.label}|{cb.label}"):
            continue
        gsum = tuple(a + b for a, b in zip(ca.dim, cb.dim))
        for le, _ in hall.product_basis(ca.label, cb.label).items():
            if hall.grade(le) != gsum:
                run.fail("product term breaks the grading")
                break
    return {"scope_note": "exact rational identities"}


def _coassoc_residual(hall, label):
    """Whether (Delta x 1)Delta[E] and (1 x Delta)Delta[E] differ.

    On numerators over grade orders, the key (x, y, z) carries
    left / (|G_e| |G_{x+y}|) and right / (|G_e| |G_{y+z}|), so the two
    sides agree exactly when left |G_{y+z}| = right |G_{x+y}|.
    """
    left = {}
    right = {}
    for (ln, lm), c in hall.coproduct_basis(label).items():
        for (la, lb), c2 in hall.coproduct_basis(ln).items():
            key = (la, lb, lm)
            left[key] = left.get(key, 0) + c * c2
        for (la, lb), c2 in hall.coproduct_basis(lm).items():
            key = (ln, la, lb)
            right[key] = right.get(key, 0) + c * c2
    order = hall.grade_order
    for key in left.keys() | right.keys():
        x, y, z = (hall.grade(k) for k in key)
        if left.get(key, 0) * order(dim_add(y, z)) != right.get(key, 0) * order(dim_add(x, y)):
            return True
    return False


@_suite("green")
def suite_green(run, ctx, hall, max_dim):
    """Green's formula residual on every admissible quadruple, one row
    (M, N) at a time: the row is computed at its first selected instance."""
    pairs_by_total = {}
    for cm, cn in ctx.class_tuples(max_dim, 2):
        g = tuple(a + b for a, b in zip(cm.dim, cn.dim))
        pairs_by_total.setdefault(g, []).append((cm.label, cn.label))
    for g, pairs in sorted(pairs_by_total.items()):
        for lm, ln in pairs:
            row = None
            for lx, ly in pairs:
                if run.want(f"green:{lm}|{ln}|{lx}|{ly}"):
                    if row is None:
                        row = hall.green_residual(lm, ln)
                    num = row[0].get((lx, ly))
                    if num:
                        run.fail(f"residual {format_coeff(Fraction(num, row[1]))}")
    return {"scope_note": "exact rational identities"}


@_suite("bialgebra")
def suite_bialgebra(run, ctx, hall, max_dim):
    for cm, cn in ctx.class_tuples(max_dim, 2):
        if run.want(f"bialgebra:{cm.label}|{cn.label}"):
            res, _ = hall.bialgebra_residual(cm.label, cn.label, max_dim)
            if not res.is_zero():
                run.fail(f"residual has {len(res.coeffs)} terms")
    return {"scope_note": "braided tensor product on H (x) H"}


@_suite("antipode")
def suite_antipode(run, ctx, hall, max_dim):
    """The right antipode axiom m(1 x S)Delta = unit.counit for the canonical
    S, plus the comparison report.  The left axiom is the recursion that
    defines S, so it is not checked again."""
    for cls in ctx.classes_up_to(max_dim):
        if not run.want(f"antipode:{cls.label}"):
            continue
        if not hall.antipode_residual(cls.label, max_dim).is_zero():
            run.fail("right axiom residual nonzero")
    return {"scope_note": "canonical antipode axioms; comparison emitted either way",
            "comparison": hall.antipode_comparison(max_dim)}


@_suite("hexagon")
def suite_hexagon(run, ctx, hall, max_dim):
    """Hexagon coefficient identity and braid invertibility.

    The braiding coefficient must be multiplicative in each slot of the
    Euler form (checked over all grades with entries <= entry_bound), and
    braid followed by inverse braid must be the identity on basis tensors.
    The entry bound is 5 on two vertices and shrinks on larger quivers to
    keep the triple count bounded; the bound used is reported.
    """
    n = ctx.quiver.n
    entry_bound = HEXAGON_ENTRY_BOUND
    while entry_bound > 1 and (entry_bound + 1) ** n > HEXAGON_MAX_GRADES:
        entry_bound -= 1
    grades = []
    for total in range(entry_bound * n + 1):
        for d in dim_vectors_with_total(n, total):
            if max(d, default=0) <= entry_bound:
                grades.append(d)
    names = {g: ".".join(map(str, g)) for g in grades}
    coeff = hall.braid_coeff
    for u in grades:
        for v in grades:
            prefix, uv, c_uv = f"hex:{names[u]}|{names[v]}|", dim_add(u, v), coeff(u, v)
            for w in grades:
                if not run.want(prefix + names[w]):
                    continue
                c_uw = coeff(u, w)
                if coeff(u, dim_add(v, w)) != c_uv * c_uw:
                    run.fail("first hexagon coefficient fails")
                if coeff(uv, w) != c_uw * coeff(v, w):
                    run.fail("second hexagon coefficient fails")
    labels = [c.label for c in ctx.classes_up_to(max_dim)]
    for la in labels:
        prefix = f"braidinv:{la}|"
        for lb in labels:
            if run.want(prefix + lb):
                t = HallVector.basis(la, lb)
                if hall.braid_inverse(hall.braid(t)) != t:
                    run.fail("braid then inverse is not the identity")
    return {"entry_bound": entry_bound, "scope_note": "coefficient level, exact"}


@_suite("ext-cardinality")
def suite_ext(run, ctx, max_dim):
    for cm, cn in ctx.class_tuples(max_dim, 2):
        if run.want(f"ext:{cm.label}|{cn.label}"):
            r = cathall.ext_cardinality_check(ctx, cm.rep, cn.rep)
            if not r["equal"]:
                run.fail(f"{format_coeff(r['lhs'])} != {format_coeff(r['rhs'])}")
    return {"scope_note": "triple-morphism convention"}


@_suite("riedtmann")
def suite_riedtmann(run, ctx, max_dim):
    for cm, cn in ctx.class_tuples(max_dim, 2):
        for ce in ctx.classify(tuple(a + b for a, b in zip(cm.dim, cn.dim))):
            if run.want(f"riedtmann:{cm.label}|{cn.label}|{ce.label}"):
                r = cathall.riedtmann_check(ctx, cm.rep, cn.rep, ce.rep)
                if not r["equal"]:
                    run.fail(f"{format_coeff(r['lhs'])} != {format_coeff(r['rhs'])}")
    return {"scope_note": "independent cocycle enumeration on the right side"}


@_suite("ext-bilinearity")
def suite_bilinearity(run, ctx, max_dim):
    for c1, c2, cn in ctx.class_tuples(max_dim, 3):
        for inst, check, reps in (
                (f"bilin1:{c1.label}|{c2.label}|{cn.label}",
                 cathall.ext_bilinearity_first, (c1.rep, c2.rep, cn.rep)),
                (f"bilin2:{cn.label}|{c1.label}|{c2.label}",
                 cathall.ext_bilinearity_second, (cn.rep, c1.rep, c2.rep))):
            if not run.want(inst):
                continue
            r = check(ctx, *reps)
            if not (r["equal"] and r["skeleton_bijection"] and r["round_trip"]):
                run.fail(f"{r['lhs']} vs {r['rhs']}, "
                         f"bijection {r['skeleton_bijection']}")
    return {"scope_note": "fixed-end cardinalities; skeleton bijection via extension classes"}


@_suite("spans")
def suite_spans(run, ctx, hall, max_dim):
    """Degroupoidified multiplication/comultiplication spans against the algebra."""
    cathall.mult_matrix_against_hall(run, ctx, hall, max_dim)
    cathall.comult_matrix_against_hall(run, ctx, hall, max_dim)
    return {"scope_note": "matrix entries vs structure constants, exact"}


@_suite("bsim-ext")
def suite_bsim(run, ctx, hall, max_dim):
    """Braiding span versus EXT, and its entries versus the algebraic braiding."""
    bound = min(max_dim, BSIM_CAP)
    classes = ctx.classes_up_to(bound)
    cathall.bsim_ext_check(run, ctx, classes)
    for cx in classes:
        for cy in classes:
            if not run.want(f"braidmatrix:{cx.label}|{cy.label}"):
                continue
            got, want = cathall.braiding_entry(ctx, cx, cy), hall.braid_coeff(cx.dim, cy.dim)
            if got != want:
                run.fail(f"span {format_coeff(got)} != braiding {format_coeff(want)}")
    return {"bound": bound, "scope_note": "object/cardinality level"}


@_suite("coherence")
def suite_coherence(run, ctx, max_dim):
    """The pentagon, the unitor triangle and the three shuffle polytopes.

    All checks operate at the object/cardinality level: they verify that
    the relevant composite object assignments agree up to componentwise
    isomorphism and that composite apex cardinalities coincide; 2-cell
    equalities are out of scope and flagged as such in the report.
    Instance ids are the check name for every object of pentagon-strict
    and unitor, and <check>:<a>|<b>|<c>|<d> for one shuffle quadruple.
    """
    bound = min(max_dim, COHERENCE_CAP)
    cathall.pentagon_strict_check(run, ctx, bound)
    cathall.unitor_check(run, ctx, bound)
    for name, shape in cathall.SHUFFLES.items():
        cathall.shuffle_check(run, ctx, name, shape, bound)
    return {"bound": bound,
            "scope_note": "object/cardinality level; 2-cell equalities out of scope"}


@_suite("engine")
def suite_engine(run, ctx, seed):
    """Randomized groupoid-engine properties with a fixed seed.

    Functoriality of degroupoidification on composable span pairs, the two
    cardinality formulas on every constructed groupoid, vector addition and
    scaling, and equivalence implying equal cardinality.  Only ctx's budget
    is read: it bounds every weak pullback.
    """
    rng = gpd.RandomGroupoids(seed)

    def check_cards(G):
        if G.cardinality() != G.cardinality_alt():
            run.fail("cardinality formulas disagree")

    for k in range(ENGINE_SPAN_TRIALS):
        # random draws happen unconditionally so --only replays exactly
        X, Y, Z = rng.groupoid(), rng.groupoid(), rng.groupoid()
        s = rng.span(X, Y)
        t = rng.span(Y, Z)
        psi = rng.span(X, X).left
        v2 = rng.span(X, X).left
        lam_order = rng.rng.choice((1, 2, 3))
        if not run.want(f"engine:span:{k}"):
            continue
        for G in (X, Y, Z, s.apex, t.apex):
            check_cards(G)
        ts = gpd.compose_spans(t, s, ctx.budget)
        check_cards(ts.apex)
        e_ts, _, _ = gpd.degroupoidify_span(ts)
        e_t, _, _ = gpd.degroupoidify_span(t)
        e_s, _, _ = gpd.degroupoidify_span(s)
        if e_ts != gpd.matrix_product(e_t, e_s):
            run.fail("composite matrix != matrix product")
        sv = gpd.apply_span(s, psi, ctx.budget)
        if gpd.degroupoidify_vector(sv) != gpd.apply_matrix(
                e_s, gpd.degroupoidify_vector(psi)):
            run.fail("span application != matrix application")
        lhs = gpd.degroupoidify_vector(gpd.add_vectors(psi, v2))
        rhs = gpd.degroupoidify_vector(psi)
        for key, val in gpd.degroupoidify_vector(v2).items():
            rhs[key] = rhs.get(key, Fraction(0)) + val
        if lhs != {k2: v for k2, v in rhs.items() if v}:
            run.fail("vector addition not additive")
        lam = gpd.group_groupoid(gpd.cyclic_table(lam_order))
        lhs = gpd.degroupoidify_vector(gpd.scale_vector(lam, psi))
        rhs = {k2: lam.cardinality() * v for k2, v in
               gpd.degroupoidify_vector(psi).items()}
        if lhs != {k2: v for k2, v in rhs.items() if v}:
            run.fail("vector scaling off")
    for k in range(ENGINE_EQUIV_TRIALS):
        G = rng.groupoid()
        comps = []
        for cls in G.iso_class_partition():
            rep = cls[0]
            comps.append((rng.rng.randint(1, 3), G.aut_order(rep)))
        if not run.want(f"engine:equiv:{k}"):
            continue
        H = None
        for m, aut in comps:
            piece = gpd.connected_groupoid(m, gpd.cyclic_table(aut))
            H = piece if H is None else gpd.coproduct_groupoid(H, piece)[0]
        if not gpd.equivalent(G, H):
            run.fail("rebuilt groupoid not equivalent")
        elif G.cardinality() != H.cardinality():
            run.fail("equivalent groupoids with different cardinality")
    for k in range(10):
        nx, ny, nb = rng.rng.randint(1, 4), rng.rng.randint(1, 4), rng.rng.randint(1, 3)
        A = gpd.discrete_groupoid(nx)
        B = gpd.discrete_groupoid(ny)
        X = gpd.discrete_groupoid(nb)
        fmap = [rng.rng.randrange(nb) for _ in range(nx)]
        gmap = [rng.rng.randrange(nb) for _ in range(ny)]
        if not run.want(f"engine:discrete:{k}"):
            continue
        f = gpd.GroupoidFunctor(A, X, fmap, fmap)
        g = gpd.GroupoidFunctor(B, X, gmap, gmap)
        P, _, _ = gpd.weak_pullback(f, g, ctx.budget)
        expected = sum(1 for a in range(nx) for b in range(ny) if fmap[a] == gmap[b])
        if not P.is_discrete() or P.n_objects() != expected:
            run.fail("discrete pullback is not the fibered product")
    return {"seed": seed, "scope_note": "seeded randomized properties"}


@_suite("gabriel")
def suite_gabriel(run, ctx, max_dim):
    """Gabriel's theorem on every grade 0 < |d| <= max_dim: the number of
    indecomposable classes of dimension d, read off the class counts, is 1
    when d is a positive root (Tits form <d, d> = 1) and 0 otherwise.  When
    `only` names one grade, the counts are read up to its total alone."""
    if not ctx.quiver.is_dynkin:
        return {"scope_note": "skipped: quiver is not simply-laced Dynkin"}
    ids = {d: "gabriel:" + ".".join(map(str, d))
           for total in range(1, max_dim + 1) for d in dim_vectors_with_total(ctx.quiver.n, total)}
    bound = max_dim if run.only in (None, "gabriel") else max(
        (sum(d) for d, inst in ids.items() if inst == run.only), default=0)
    counts = ctx.indecomposable_counts(bound)
    roots = 0
    for d, inst in ids.items():
        tits = ctx.euler_form(d, d)
        roots += tits == 1
        if run.want(inst) and counts[d] != (tits == 1):
            run.fail(f"{counts[d]} indecomposable classes, Tits form {tits}")
    return {"roots": roots, "scope_note": f"every grade of total <= {max_dim}; "
            "indecomposables by plethystic log of the class counts"}


SUITE_ORDER = ("algebra", "green", "bialgebra", "antipode", "hexagon", "ext",
               "riedtmann", "bilinearity", "spans", "bsim", "coherence",
               "engine", "gabriel")


def run_suite(name, ctx, hall, max_dim, seed, only=None):
    """Run suite_<name>, passing whichever of ctx, hall, max_dim, seed it takes."""
    if name not in SUITE_ORDER:
        raise ValueError(f"unknown suite {name!r}; options: {', '.join(SUITE_ORDER)} or all")
    suite = globals()[f"suite_{name}"]
    given = {"ctx": ctx, "hall": hall, "max_dim": max_dim, "seed": seed}
    args = [given[p] for p in inspect.signature(suite).parameters if p in given]
    return suite(*args, only=only)
