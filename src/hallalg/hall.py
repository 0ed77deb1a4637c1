"""The Hall algebra of a quiver, graded over its Grothendieck group.

Basis elements are isomorphism-class labels; coefficients are exact
rationals in the fixed field size q, kept as ints wherever no denominator
arises.  The product coefficients are the integer Hall numbers
P^E_{MN} / (aut M aut N).  The coproduct and the canonical antipode carry
denominators of one fixed form: every aut E of grade e divides the grade
order |G_e| = prod_v |GL_{e_v}(F_q)|, so both are kept as int numerators
over |G_e|, and the Hopf-object checks compare ints scaled to a common
denominator.  A Fraction is formed where a value leaves this layer (the
tables, the antipode comparison) and for the braiding's q^{-k}, inside
braid, braid_inverse and green_residual's coefficients.  Nothing here
truncates silently: every grade-increasing operation takes an explicit
bound and refuses to cross it.
"""

from fractions import Fraction
from itertools import product as iproduct
from math import lcm, prod

from .linalg import gl_order
from .quiver import dim_add, dim_total, kept, parse_label


class GradeBoundError(Exception):
    """An operation would produce a term above the stated grade bound."""


def label_sort_key(label):
    dim, index = parse_label(label)
    return (sum(dim), dim, index)


def format_coeff(c):
    """An exact rational as "numerator/denominator", the report format."""
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def q_power(q, k):
    """q**k exactly: an int for k >= 0, the Fraction 1/q**(-k) for k < 0."""
    return q ** k if k >= 0 else Fraction(1, q ** -k)


class HallVector:
    """Finite rational linear combination of basis keys.

    A key is an iso-class label (an element of the Hall algebra) or a tuple
    of labels (an element of a tensor power, e.g. [N] (x) [M] as (N, M)).
    A coefficient is an int, or a Fraction where a denominator arose; the
    two compare and hash alike, so equality ignores which one is stored.
    Zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def _of(cls, coeffs):
        """The vector of a {key: coeff} dict that stores no zero, taken as is."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def basis(cls, *labels):
        """[label], or the tensor [l1] (x) [l2] (x) ... for several labels."""
        return cls._of({labels[0] if len(labels) == 1 else labels: 1})

    @classmethod
    def combine(cls, terms):
        """sum of c * x over (x, c) in terms, each x a {key: coeff} dict.

        Accumulates into one dict, dropping a key whose sum cancels, so n
        terms cost O(total size) rather than the O(n^2) of repeated vector
        additions.
        """
        acc = {}
        for coeffs, c in terms:
            for k, v in coeffs.items():
                s = acc.get(k, 0) + v * c
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        return cls._of(acc)

    def __add__(self, other):
        return HallVector.combine(((self.coeffs, 1), (other.coeffs, 1)))

    def __sub__(self, other):
        return HallVector.combine(((self.coeffs, 1), (other.coeffs, -1)))

    def scale(self, c):
        return HallVector.combine(((self.coeffs, c),))

    def __eq__(self, other):
        return isinstance(other, HallVector) and self.coeffs == other.coeffs

    def __getitem__(self, key):
        return self.coeffs.get(key, 0)

    def is_zero(self):
        return not self.coeffs

    @staticmethod
    def _labels(key):
        """The labels of a key: the key itself, or the entries of a tuple key."""
        return (key,) if isinstance(key, str) else key

    def items(self):
        """(key, coeff) pairs sorted by the label_sort_key of each factor."""
        return sorted(self.coeffs.items(),
                      key=lambda kv: tuple(map(label_sort_key, self._labels(kv[0]))))

    def __repr__(self):
        if not self.coeffs:
            return "HallVector(0)"
        terms = " + ".join(f"{v}*" + "x".join(f"[{x}]" for x in self._labels(k))
                           for k, v in self.items())
        return f"HallVector({terms})"


class HallAlgebra:
    """Hall product, coproduct, braiding and antipodes over a RepCategory."""

    def __init__(self, rep_category):
        self.ctx = rep_category
        self.q = rep_category.q
        self._memo = {}           # qualified name -> {args: result} of each @kept method
        self._green_grade = (None, None, None)     # (grade, columns, inverse)

    # ---- grading helpers ----------------------------------------------------

    def zero_label(self):
        return self.ctx.classify((0,) * self.ctx.quiver.n)[0].label

    def grade(self, label):
        return self.ctx.class_by_label(label).dim

    @kept
    def grade_order(self, dim):
        """|G_d| = prod_v |GL_{d_v}(F_q)|, the group acting on the
        representations of dimension d: aut E times the orbit size of E
        for every class E of grade d."""
        return prod(gl_order(d, self.q) for d in dim)

    @kept
    def braid_coeff(self, grade_first, grade_second, sign=-1):
        """q^{-<first, second>}, the braiding's coefficient on [first] (x) [second];
        with sign=1, q^{<first, second>}, the inverse braiding's."""
        return q_power(self.q, sign * self.ctx.euler_form(grade_first, grade_second))

    def unit(self):
        return HallVector.basis(self.zero_label())

    def counit(self, x):
        return x[self.zero_label()]

    def counit_tensor(self, t, slot):
        """(counit x id) for slot 0, (id x counit) for slot 1, applied to a tensor."""
        z = self.zero_label()
        out = {}
        for key, v in t.coeffs.items():
            if key[slot] == z:
                rest = key[1 - slot]
                out[rest] = out.get(rest, 0) + v
        return HallVector(out)

    # ---- product and coproduct ----------------------------------------------

    @kept
    def product_basis(self, label_m, label_n):
        """[M] . [N] = sum_E P^E_{MN} / (aut M aut N) [E], as a coeff dict.

        Each coefficient is the Hall number g^E_{MN}, an int: the division
        is exact, and asserted so.
        """
        ctx = self.ctx
        cm, cn = ctx.class_by_label(label_m), ctx.class_by_label(label_n)
        out = {}
        for ce in ctx.classify(dim_add(cm.dim, cn.dim)):
            p = ctx.pair_count(cm, cn, ce)
            if p:
                g, r = divmod(p, cm.aut * cn.aut)
                assert not r, (label_m, label_n, ce.label)
                out[ce.label] = g
        return out

    def bounded_product_basis(self, label_m, label_n, bound):
        """product_basis(label_m, label_n), refused if its grade exceeds bound."""
        total = dim_total(self.grade(label_m)) + dim_total(self.grade(label_n))
        if total > bound:
            raise GradeBoundError(f"product grade {total} exceeds bound {bound}")
        return self.product_basis(label_m, label_n)

    def product(self, x, y, bound):
        """Bilinear extension of the basis product; grades must stay <= bound."""
        return HallVector.combine((self.bounded_product_basis(lm, ln, bound), cm * cn)
                                  for lm, cm in x.coeffs.items()
                                  for ln, cn in y.coeffs.items())

    @kept
    def factorizations(self, label_e):
        """{quotient label A: {sub label B: P^E_{AB}}} over every B <= E with
        E/B ~ A, the factorization index of E.

        Built once per class from the census of E at each sub-dimension.
        Quotient dimension vectors, then quotient and sub classes, come in
        label order.
        """
        ctx = self.ctx
        ce = ctx.class_by_label(label_e)
        out = {}
        for dim_a in iproduct(*(range(d + 1) for d in ce.dim)):
            dim_b = tuple(e - a for e, a in zip(ce.dim, dim_a))
            classes_a, classes_b = ctx.classify(dim_a), ctx.classify(dim_b)
            for (ia, ib), g in sorted(ctx.census(ce, dim_b).items()):
                ca, cb = classes_a[ia], classes_b[ib]
                out.setdefault(ca.label, {})[cb.label] = ca.aut * cb.aut * g
        return out

    @kept
    def coproduct_basis(self, label_e):
        """|G_e| Delta([E]) = sum P^E_{MN} orbit(E) [N] (x) [M], an int coeff dict.

        Delta([E]) carries P^E_{MN} / aut E, and aut E orbit(E) = |G_e|, so
        its numerators over the grade order |G_e| are ints.
        """
        orbit = self.ctx.class_by_label(label_e).orbit_size
        # tensor order is [N] (x) [M]: sub before quotient
        return {(ln, lm): p * orbit
                for lm, subs in self.factorizations(label_e).items() for ln, p in subs.items()}

    # ---- braiding -------------------------------------------------------------

    def braid(self, t):
        """[A] (x) [D] -> q^{-<gr A, gr D>} [D] (x) [A], extended linearly: one
        dict, as the swap is a bijection on keys and no q^k is 0."""
        grade, coeff = self.grade, self.braid_coeff
        return HallVector._of({(d, a): v * coeff(grade(a), grade(d))
                               for (a, d), v in t.coeffs.items()})

    def braid_inverse(self, t):
        grade, coeff = self.grade, self.braid_coeff
        return HallVector._of({(a, d): v * coeff(grade(a), grade(d), 1)
                               for (d, a), v in t.coeffs.items()})

    def tensor_product(self, s, t, bound):
        """Braided algebra structure on H (x) H, scaled to stay integral.

        ([B] (x) [A]) . ([D] (x) [C]) = q^{-<A, D>} [B][D] (x) [A][C]:
        the inner factors braid past each other.  q^{-k} is a fraction for
        k > 0, so the result is (q^K s.t, K), K >= 0 the largest exponent
        <A, D> over the term pairs: an int vector when s and t are.
        """
        grade, q = self.grade, self.q
        exponents = {(ga, gd): self.ctx.euler_form(ga, gd)
                     for ga in {grade(a) for _, a in s.coeffs}
                     for gd in {grade(d) for d, _ in t.coeffs}}
        top = max([0, *exponents.values()])
        out = {}
        for (b, a), cs in s.coeffs.items():
            ga = grade(a)
            for (d, c), ct in t.coeffs.items():
                coeff = cs * ct * q ** (top - exponents[ga, grade(d)])
                left = self.bounded_product_basis(b, d, bound)
                right = self.bounded_product_basis(a, c, bound)
                for lb, vb in left.items():
                    for la, va in right.items():
                        out[(lb, la)] = out.get((lb, la), 0) + vb * va * coeff
        return HallVector(out), top

    # ---- Green's formula and the bialgebra law ---------------------------------

    def _green_indexes(self, total):
        """The two indexes that the Green rows of grade total read, as
        (columns, inverse).

        columns lists (E, {(X, Y): P^E_{XY}}) over the classes E of grade
        total, read through pair_count.  inverse is {(A, C): [(X, g^X_{AC})]}
        over the classes X of every grade <= total, regrouped from their
        factorization indexes; the Hall number g^X_{AC} = P^X_{AC} /
        (aut A aut C) is an exact integer, asserted so.
        """
        ctx, cls = self.ctx, self.ctx.class_by_label
        splits = [(ctx.classify(dim_x), ctx.classify(tuple(t - x for t, x in zip(total, dim_x))))
                  for dim_x in iproduct(*(range(t + 1) for t in total))]
        columns = []
        for ce in ctx.classify(total):
            column = {(cx.label, cy.label): p for xs, ys in splits for cx in xs for cy in ys
                      if (p := ctx.pair_count(cx, cy, ce))}
            columns.append((ce, column))
        inverse = {}
        for xs, _ in splits:
            for cx in xs:
                for la, subs in self.factorizations(cx.label).items():
                    aut_a = cls(la).aut
                    for lc, p in subs.items():
                        g, r = divmod(p, aut_a * cls(lc).aut)
                        assert not r, (cx.label, la, lc)
                        inverse.setdefault((la, lc), []).append((cx.label, g))
        return columns, inverse

    def green_residual(self, label_m, label_n):
        """LHS minus RHS of Green's formula on the row (M, N), for every
        (X, Y) of grade m + n at once: ({(X, Y): int numerator}, denominator),
        only nonzero numerators stored.  The row is empty when it holds.

        The left side, sum_E P^E_{MN} P^E_{XY} / aut E, is the sum over E of
        P^E_{MN} / aut E times the pair-count column of E.  The right side,

            sum q^{-<A, D>} P^M_{AB} P^N_{CD} g^X_{AC} g^Y_{BD},

        scatters each pair of factorizations (A, B) of M and (C, D) of N over
        the X of the inverse index at (A, C) and the Y at (B, D).  Both sides
        are scaled to |G_{m+n}| q^K, q^K the largest denominator of the
        row's braiding coefficients: aut E divides |G_{m+n}|.  The indexes
        are kept for the last grade asked only, so rows are cheapest grade
        by grade, as verify green asks for them.
        """
        cls = self.ctx.class_by_label
        dim_n = cls(label_n).dim
        total = dim_add(cls(label_m).dim, dim_n)
        if self._green_grade[0] != total:
            self._green_grade = (total, *self._green_indexes(total))
        _, columns, inverse = self._green_grade
        f_m, f_n = self.factorizations(label_m), self.factorizations(label_n)
        dims_d = {lc: tuple(n - c for n, c in zip(dim_n, cls(lc).dim)) for lc in f_n}
        coeffs = {(la, lc): self.braid_coeff(cls(la).dim, dim_d)
                  for la in f_m for lc, dim_d in dims_d.items() if (la, lc) in inverse}
        top = max((c.denominator for c in coeffs.values()), default=1)
        order = self.grade_order(total)
        acc = {}
        for ce, column in columns:
            pe_mn = column.get((label_m, label_n))
            if pe_mn:
                w = pe_mn * (order // ce.aut) * top
                for key, p in column.items():
                    acc[key] = acc.get(key, 0) + w * p
        for (la, lc), coeff in coeffs.items():
            xs = inverse[la, lc]
            c = -order * coeff.numerator * (top // coeff.denominator)
            n_subs = f_n[lc]
            for lb, p_m in f_m[la].items():
                for ld, p_n in n_subs.items():
                    ys = inverse.get((lb, ld))
                    if ys:
                        w = c * p_m * p_n
                        for lx, g_x in xs:
                            w_x = w * g_x
                            for ly, g_y in ys:
                                acc[lx, ly] = acc.get((lx, ly), 0) + w_x * g_y
        return {key: v for key, v in acc.items() if v}, order * top

    def bialgebra_residual(self, label_m, label_n, bound):
        """Delta([M].[N]) - Delta([M]) . Delta([N]) in the braided sense, as
        (int numerators, denominator).

        The left side is sum_E g^E_{MN} Delta([E]), over |G_{m+n}|; the right
        side is tensor_product of the two basis coproducts, over
        |G_m| |G_n| q^K.  Both are scaled to |G_m| |G_n| |G_{m+n}| q^K.
        """
        g_m, g_n = self.grade(label_m), self.grade(label_n)
        order_m, order_n = self.grade_order(g_m), self.grade_order(g_n)
        order_mn = self.grade_order(dim_add(g_m, g_n))
        rhs, top = self.tensor_product(HallVector(self.coproduct_basis(label_m)),
                                       HallVector(self.coproduct_basis(label_n)), bound)
        scale = order_m * order_n * self.q ** top
        terms = [(self.coproduct_basis(le), g * scale) for le, g in
                 self.bounded_product_basis(label_m, label_n, bound).items()]
        terms.append((rhs.coeffs, -order_mn))
        return HallVector.combine(terms), scale * order_mn

    # ---- antipodes -------------------------------------------------------------

    def antipode_paper(self, x):
        """Basis-wise negation: the Lemma's S([M]) = -[M] read off every label."""
        return x.scale(-1)

    def _s_convolution(self, terms, bound, s_first):
        """sum c S([L]) . [O] (s_first) or c [O] . S([L]) over (L, O, c) in
        terms, times den = the lcm of the grade orders |G_l|; returns
        (int HallVector, den).  S([L]) is kept over |G_l|, so each term is
        scaled by den / |G_l|."""
        orders = {ls: self.grade_order(self.grade(ls)) for ls, _, _ in terms}
        den = lcm(*orders.values())
        acc = []
        for ls, lo, c in terms:
            scale = c * (den // orders[ls])
            for lk, v in self.antipode_canonical_basis(ls, bound).coeffs.items():
                basis = (self.bounded_product_basis(lk, lo, bound) if s_first
                         else self.bounded_product_basis(lo, lk, bound))
                acc.append((basis, scale * v))
        return HallVector.combine(acc), den

    @kept
    def antipode_canonical_basis(self, label, bound):
        """|G_e| S([E]) for the unique antipode of the connected graded
        bialgebra, by recursion, as an int HallVector.

        S([0]) = [0]; for positive grade, S([E]) = -[E] - sum of
        S([N]) . (coefficient) [M] over the reduced coproduct terms of [E].
        The sum is taken over the lcm of the sub grade orders, and the
        division by it is exact (asserted), since aut E S([E]) is integral
        (Xiao, J. Algebra 190, 1997).
        """
        if dim_total(self.grade(label)) > bound:
            raise GradeBoundError(
                f"antipode grade {dim_total(self.grade(label))} exceeds bound {bound}")
        z = self.zero_label()
        if label == z:
            return self.unit()
        reduced = [(ln, lm, c) for (ln, lm), c in self.coproduct_basis(label).items()
                   if ln != z and lm != z]
        conv, den = self._s_convolution(reduced, bound, s_first=True)
        order_e = self.grade_order(self.grade(label))
        total = HallVector.combine((({label: order_e * den}, -1), (conv.coeffs, -1)))
        out = HallVector()
        for k, v in total.coeffs.items():
            out.coeffs[k], r = divmod(v, den)
            assert not r, (label, k)
        return out

    def antipode_residual(self, label, bound):
        """The right antipode-axiom defect m(1 x S)Delta - unit.counit for the
        canonical S at a basis label, as an int HallVector: the defect times
        |G_e| times the lcm of the grade orders of the factors S applies to.

        The left defect m(S x 1)Delta - unit.counit is not computed: its
        convolution is the recursion that defines S in
        antipode_canonical_basis, so it vanishes by construction.
        """
        order_e = self.grade_order(self.grade(label))
        counit = self.counit(HallVector.basis(label))
        conv, den = self._s_convolution(
            [(lm, ln, c) for (ln, lm), c in self.coproduct_basis(label).items()], bound,
            s_first=False)
        return HallVector.combine(((conv.coeffs, 1),
                                   (self.unit().coeffs, -counit * order_e * den)))

    def antipode_comparison(self, bound):
        """Where basis-wise negation and the canonical antipode differ, by label."""
        divergences = []
        for cls in self.ctx.classes_up_to(bound):
            order = self.grade_order(cls.dim)
            paper = self.antipode_paper(HallVector.basis(cls.label))
            canonical = self.antipode_canonical_basis(cls.label, bound)
            if paper.scale(order) != canonical:
                divergences.append({
                    "label": cls.label,
                    "paper": {k: format_coeff(v) for k, v in paper.items()},
                    "canonical": {k: format_coeff(Fraction(v, order))
                                  for k, v in canonical.items()},
                })
        return {
            "agree": not divergences,
            "first_divergence": divergences[0]["label"] if divergences else None,
            "divergences": divergences,
        }

    # ---- structure-constant tables ---------------------------------------------

    def product_table(self, bound):
        """All basis products with grades within bound, label-sorted."""
        table = {}
        for cm, cn in self.ctx.class_tuples(bound, 2):
            entry = HallVector(self.product_basis(cm.label, cn.label))
            table[f"[{cm.label}],[{cn.label}]"] = [
                {"class": k, "coeff": format_coeff(v)} for k, v in entry.items()]
        return table

    def coproduct_table(self, bound):
        labels = [c.label for c in self.ctx.classes_up_to(bound)]
        table = {}
        for le in labels:
            order = self.grade_order(self.grade(le))
            entry = HallVector(self.coproduct_basis(le))
            table[f"[{le}]"] = [
                {"left": a, "right": b, "coeff": format_coeff(Fraction(v, order))}
                for (a, b), v in entry.items()]
        return table
