"""The Hall algebra of a quiver, graded over its Grothendieck group.

Basis elements are isomorphism-class labels; coefficients are exact
rationals in the fixed field size q.  The product counts extensions with
the aut(M) aut(N) correction, the coproduct the factorizations with the
aut(E) correction, and the braiding scales a swap by q to the negative
Euler form of the grades.  Nothing here truncates silently: every
grade-increasing operation takes an explicit bound and refuses to cross it.
"""

from fractions import Fraction

from .quiver import dim_add, dim_total


class GradeBoundError(Exception):
    """An operation would produce a term above the stated grade bound."""


def parse_label(label):
    """Grade (dimension vector) and class index encoded in a label."""
    dims, _, index = label[1:].partition("#")
    return tuple(int(x) for x in dims.split(".")), int(index)


def label_sort_key(label):
    dim, index = parse_label(label)
    return (sum(dim), dim, index)


def format_coeff(c):
    """An exact rational as "numerator/denominator", the report format."""
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def q_power(q, k):
    """q**k as an exact rational; negative k becomes 1/q**(-k)."""
    return Fraction(q) ** k


class HallVector:
    """Finite rational linear combination of basis keys.

    A key is an iso-class label (an element of the Hall algebra) or a tuple
    of labels (an element of a tensor power, e.g. [N] (x) [M] as (N, M)).
    Zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: Fraction(v) for k, v in (coeffs or {}).items() if v}

    @classmethod
    def basis(cls, *labels):
        """[label], or the tensor [l1] (x) [l2] (x) ... for several labels."""
        return cls({labels[0] if len(labels) == 1 else labels: Fraction(1)})

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
        out = cls.__new__(cls)
        out.coeffs = acc
        return out

    def __add__(self, other):
        return HallVector.combine(((self.coeffs, 1), (other.coeffs, 1)))

    def __sub__(self, other):
        return HallVector.combine(((self.coeffs, 1), (other.coeffs, -1)))

    def scale(self, c):
        return HallVector.combine(((self.coeffs, c),))

    def __eq__(self, other):
        return isinstance(other, HallVector) and self.coeffs == other.coeffs

    def __getitem__(self, key):
        return self.coeffs.get(key, Fraction(0))

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
        self._product_cache = {}
        self._coproduct_cache = {}
        self._antipode_cache = {}
        self._braid_cache = {}

    # ---- grading helpers ----------------------------------------------------

    def zero_label(self):
        return self.ctx.classify((0,) * self.ctx.quiver.n)[0].label

    def grade(self, label):
        return self.ctx.class_by_label(label).dim

    def q_power(self, k):
        """q**k as an exact rational; negative k becomes 1/q**(-k)."""
        return q_power(self.q, k)

    def braid_coeff(self, grade_first, grade_second):
        key = (grade_first, grade_second)
        if key not in self._braid_cache:
            self._braid_cache[key] = self.q_power(-self.ctx.euler_form(*key))
        return self._braid_cache[key]

    def unit(self):
        return HallVector.basis(self.zero_label())

    def counit(self, x):
        return x[self.zero_label()]

    def counit_tensor_left(self, t):
        """(counit x id) applied to a tensor."""
        z = self.zero_label()
        out = {}
        for (a, b), v in t.coeffs.items():
            if a == z:
                out[b] = out.get(b, Fraction(0)) + v
        return HallVector(out)

    def counit_tensor_right(self, t):
        z = self.zero_label()
        out = {}
        for (a, b), v in t.coeffs.items():
            if b == z:
                out[a] = out.get(a, Fraction(0)) + v
        return HallVector(out)

    # ---- product and coproduct ----------------------------------------------

    def product_basis(self, label_m, label_n):
        """[M] . [N] = sum_E P^E_{MN} / (aut M aut N) [E], as a coeff dict."""
        key = (label_m, label_n)
        if key in self._product_cache:
            return self._product_cache[key]
        ctx = self.ctx
        cm, cn = ctx.class_by_label(label_m), ctx.class_by_label(label_n)
        out = {}
        for ce in ctx.classify(dim_add(cm.dim, cn.dim)):
            p = ctx.pair_count(cm, cn, ce)
            if p:
                out[ce.label] = Fraction(p, cm.aut * cn.aut)
        self._product_cache[key] = out
        return out

    def product(self, x, y, bound):
        """Bilinear extension of the basis product; grades must stay <= bound."""
        terms = []
        for lm, cm in x.coeffs.items():
            for ln, cn in y.coeffs.items():
                total = dim_total(self.grade(lm)) + dim_total(self.grade(ln))
                if total > bound:
                    raise GradeBoundError(
                        f"product grade {total} exceeds bound {bound}")
                terms.append((self.product_basis(lm, ln), cm * cn))
        return HallVector.combine(terms)

    def coproduct_basis(self, label_e):
        """Delta([E]) = sum P^E_{MN} / aut E [N] (x) [M], as a coeff dict."""
        if label_e in self._coproduct_cache:
            return self._coproduct_cache[label_e]
        ctx = self.ctx
        ce = ctx.class_by_label(label_e)
        out = {}
        for dim_m in self._splittings(ce.dim):
            dim_n = tuple(e - m for e, m in zip(ce.dim, dim_m))
            for cm in ctx.classify(dim_m):
                for cn in ctx.classify(dim_n):
                    p = ctx.pair_count(cm, cn, ce)
                    if p:
                        # tensor order is [N] (x) [M]: sub before quotient
                        out[(cn.label, cm.label)] = Fraction(p, ce.aut)
        self._coproduct_cache[label_e] = out
        return out

    @staticmethod
    def _splittings(dim):
        from itertools import product as iproduct
        return iproduct(*(range(d + 1) for d in dim))

    def coproduct(self, x):
        return HallVector.combine((self.coproduct_basis(le), ce)
                                  for le, ce in x.coeffs.items())

    # ---- braiding -------------------------------------------------------------

    def braid(self, t):
        """[A] (x) [D] -> q^{-<gr A, gr D>} [D] (x) [A], extended linearly."""
        out = {}
        for (a, d), v in t.coeffs.items():
            c = self.braid_coeff(self.grade(a), self.grade(d))
            out[(d, a)] = out.get((d, a), Fraction(0)) + v * c
        return HallVector(out)

    def braid_inverse(self, t):
        out = {}
        for (d, a), v in t.coeffs.items():
            c = self.q_power(self.ctx.euler_form(self.grade(a), self.grade(d)))
            out[(a, d)] = out.get((a, d), Fraction(0)) + v * c
        return HallVector(out)

    def tensor_product(self, s, t, bound):
        """Braided algebra structure on H (x) H.

        ([B] (x) [A]) . ([D] (x) [C]) = q^{-<A, D>} [B][D] (x) [A][C]:
        the inner factors braid past each other.
        """
        out = {}
        for (b, a), cs in s.coeffs.items():
            for (d, c), ct in t.coeffs.items():
                coeff = cs * ct * self.braid_coeff(self.grade(a), self.grade(d))
                left = self.product(HallVector.basis(b), HallVector.basis(d), bound)
                right = self.product(HallVector.basis(a), HallVector.basis(c), bound)
                for lb, vb in left.coeffs.items():
                    for la, va in right.coeffs.items():
                        out[(lb, la)] = out.get((lb, la), 0) + vb * va * coeff
        return HallVector(out)

    # ---- Green's formula and the bialgebra law ---------------------------------

    def green_residual(self, label_m, label_n, label_x, label_y):
        """LHS minus RHS of Green's formula; identically zero when it holds."""
        ctx = self.ctx
        M, N, X, Y = (ctx.class_by_label(l) for l in (label_m, label_n, label_x, label_y))
        if dim_add(M.dim, N.dim) != dim_add(X.dim, Y.dim):
            return Fraction(0)
        total = dim_add(M.dim, N.dim)
        lhs = Fraction(0)
        for ce in ctx.classify(total):
            pe_mn = ctx.pair_count(M, N, ce)
            if not pe_mn:
                continue
            pe_xy = ctx.pair_count(X, Y, ce)
            if pe_xy:
                lhs += Fraction(pe_mn * pe_xy, ce.aut)
        rhs = Fraction(0)
        n = ctx.quiver.n
        from itertools import product as iproduct
        a_ranges = [range(min(M.dim[v], X.dim[v]) + 1) for v in range(n)]
        for dim_a in iproduct(*a_ranges):
            dim_b = tuple(M.dim[v] - dim_a[v] for v in range(n))
            dim_c = tuple(X.dim[v] - dim_a[v] for v in range(n))
            dim_d = tuple(N.dim[v] - dim_c[v] for v in range(n))
            if any(x < 0 for x in dim_d):
                continue
            if tuple(dim_add(dim_b, dim_d)) != Y.dim:
                continue
            for ca in ctx.classify(dim_a):
                for cb in ctx.classify(dim_b):
                    p_m = ctx.pair_count(ca, cb, M)
                    if not p_m:
                        continue
                    for cc in ctx.classify(dim_c):
                        p_x = ctx.pair_count(ca, cc, X)
                        if not p_x:
                            continue
                        for cd in ctx.classify(dim_d):
                            p_n = ctx.pair_count(cc, cd, N)
                            if not p_n:
                                continue
                            p_y = ctx.pair_count(cb, cd, Y)
                            if not p_y:
                                continue
                            coeff = self.braid_coeff(dim_a, dim_d)
                            denom = ca.aut * cb.aut * cc.aut * cd.aut
                            rhs += coeff * Fraction(p_m * p_n * p_x * p_y, denom)
        return lhs - rhs

    def bialgebra_residual(self, label_m, label_n, bound):
        """Delta([M].[N]) - Delta([M]) . Delta([N]) in the braided sense."""
        prod = self.product(HallVector.basis(label_m), HallVector.basis(label_n), bound)
        lhs = self.coproduct(prod)
        rhs = self.tensor_product(self.coproduct_basis_tensor(label_m),
                                  self.coproduct_basis_tensor(label_n), bound)
        return lhs - rhs

    def coproduct_basis_tensor(self, label):
        return HallVector(self.coproduct_basis(label))

    # ---- antipodes -------------------------------------------------------------

    def antipode_paper(self, x):
        """Basis-wise negation: the Lemma's S([M]) = -[M] read off every label."""
        return x.scale(Fraction(-1))

    def antipode_canonical_basis(self, label, bound):
        """The unique antipode of the connected graded bialgebra, by recursion.

        S([0]) = [0]; for positive grade, S([E]) = -[E] - sum of
        S([N]) . (coefficient) [M] over the reduced coproduct terms of [E].
        """
        if dim_total(self.grade(label)) > bound:
            raise GradeBoundError(
                f"antipode grade {dim_total(self.grade(label))} exceeds bound {bound}")
        key = label
        if key in self._antipode_cache:
            return self._antipode_cache[key]
        z = self.zero_label()
        if label == z:
            out = self.unit()
        else:
            terms = [(HallVector.basis(label).coeffs, -1)]
            for (ln, lm), c in self.coproduct_basis(label).items():
                if ln == z or lm == z:
                    continue
                s_n = self.antipode_canonical_basis(ln, bound)
                terms.append((self.product(s_n, HallVector.basis(lm), bound).coeffs, -c))
            out = HallVector.combine(terms)
        self._antipode_cache[key] = out
        return out

    def antipode_axiom_residuals(self, label, bound):
        """Both antipode-axiom defects for the canonical S at a basis label.

        Returns (m(S x 1)Delta - unit.counit, m(1 x S)Delta - unit.counit),
        each a HallVector; both are zero when S is a two-sided antipode.
        """
        target = self.unit().scale(self.counit(HallVector.basis(label)))
        left = [(target.coeffs, -1)]
        right = [(target.coeffs, -1)]
        for (ln, lm), c in self.coproduct_basis(label).items():
            s_n = self.antipode_canonical_basis(ln, bound)
            left.append((self.product(s_n, HallVector.basis(lm), bound).coeffs, c))
            s_m = self.antipode_canonical_basis(lm, bound)
            right.append((self.product(HallVector.basis(ln), s_m, bound).coeffs, c))
        return HallVector.combine(left), HallVector.combine(right)

    def antipode_comparison(self, bound):
        """Where basis-wise negation and the canonical antipode differ, by label."""
        divergences = []
        for cls in self.ctx.classes_up_to(bound):
            paper = self.antipode_paper(HallVector.basis(cls.label))
            canonical = self.antipode_canonical_basis(cls.label, bound)
            if paper != canonical:
                divergences.append({
                    "label": cls.label,
                    "paper": {k: format_coeff(v) for k, v in paper.items()},
                    "canonical": {k: format_coeff(v) for k, v in canonical.items()},
                })
        return {
            "agree": not divergences,
            "first_divergence": divergences[0]["label"] if divergences else None,
            "divergences": divergences,
        }

    # ---- structure-constant tables ---------------------------------------------

    def product_table(self, bound):
        """All basis products with grades within bound, label-sorted."""
        labels = [c.label for c in self.ctx.classes_up_to(bound)]
        table = {}
        for lm in labels:
            for ln in labels:
                if dim_total(self.grade(lm)) + dim_total(self.grade(ln)) > bound:
                    continue
                entry = HallVector(self.product_basis(lm, ln))
                table[f"[{lm}],[{ln}]"] = [
                    {"class": k, "coeff": format_coeff(v)} for k, v in entry.items()]
        return table

    def coproduct_table(self, bound):
        labels = [c.label for c in self.ctx.classes_up_to(bound)]
        table = {}
        for le in labels:
            entry = HallVector(self.coproduct_basis(le))
            table[f"[{le}]"] = [
                {"left": a, "right": b, "coeff": format_coeff(v)}
                for (a, b), v in entry.items()]
        return table
