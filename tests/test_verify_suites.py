"""Suite-level checks on quivers beyond A2, locking in CLI-visible behavior."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from hallalg.cli import main
from hallalg.hall import HallAlgebra, parse_label
from hallalg.quiver import Quiver, RepCategory, dim_add
from hallalg import verify
from mutants import MUTANTS
from oracles import (green_residual_by_dim_walk, green_residual_by_join, indecomposable_classes,
                     positive_roots)

D4 = Quiver(4, [(0, 1), (0, 2), (0, 3)], name="d4")


@pytest.fixture(scope="module")
def ctx_src():
    return RepCategory(Quiver(3, [(1, 0), (1, 2)], name="a3-source"), 2)


@pytest.fixture(scope="module")
def ctx_d4():
    return RepCategory(D4, 2)


def test_a3_source_core_suites(ctx_src):
    hall = HallAlgebra(ctx_src)
    for name in ("algebra", "green", "bialgebra", "ext", "riedtmann", "spans"):
        rep = verify.run_suite(name, ctx_src, hall, 2, seed=0)
        assert rep["failures"] == [], (name, rep["failures"][:3])


def test_hexagon_entry_bound_shrinks_off_a2(ctx_src, ctx2, hall2):
    rep2 = verify.suite_hexagon(ctx2, hall2, 2)
    assert rep2["entry_bound"] == 5
    rep3 = verify.suite_hexagon(ctx_src, HallAlgebra(ctx_src), 2)
    assert rep3["entry_bound"] < 5
    assert rep3["failures"] == []


def test_bsim_and_coherence_report_their_bound(ctx2, hall2):
    rep = verify.suite_bsim(ctx2, hall2, 3)
    assert rep["bound"] == 2 and rep["failures"] == []
    rep = verify.suite_coherence(ctx2, 3)
    assert rep["bound"] == 2 and rep["failures"] == []


def test_bsim_never_enumerates_aut_of_the_middle_term(a2):
    # Aut of the semisimple middle terms of dimension (4,0) and (0,4) is
    # GL_4(F_2), 20160 elements: more than this budget
    ctx = RepCategory(a2, 2, budget=5000)
    rep = verify.suite_bsim(ctx, HallAlgebra(ctx), 3)
    assert rep["bound"] == 2 and rep["failures"] == []


def test_d4_root_census(ctx_d4):
    roots = positive_roots(ctx_d4)
    assert len(roots) == 12
    assert max(max(r) for r in roots) == 2  # the highest root doubles the center
    inds = indecomposable_classes(ctx_d4, 4, max_entry=2)
    in_box = [r for r in roots if sum(r) <= 4]
    assert len(in_box) == 11  # the highest root has total dimension 5
    assert sorted(c.dim for c in inds) == sorted(in_box)


def test_d4_gabriel_suite(ctx_d4):
    rep = verify.suite_gabriel(ctx_d4, 5)
    assert rep["failures"] == []
    assert rep["instances"] == 125     # every grade 0 < |d| <= 5 on four vertices
    assert rep["roots"] == 12          # the highest root (2 at the center) has total 5


def test_gabriel_only_reads_the_grades_it_needs():
    """--only gabriel:<d> classifies no grade of total above |d|; the roots
    are still counted on every grade, as in the full run."""
    ctx = RepCategory(D4, 3)
    rep = verify.run_suite("gabriel", ctx, None, 5, seed=0, only="gabriel:1.0.0.0")
    assert (rep["instances"], rep["failures"], rep["roots"]) == (1, [], 12)
    assert max(sum(d) for d in ctx._classes) == 1
    full = verify.run_suite("gabriel", RepCategory(D4, 3), None, 5, seed=0)
    assert {k: v for k, v in rep.items() if k != "instances"} == \
        {k: v for k, v in full.items() if k != "instances"}


def test_gabriel_skips_non_dynkin():
    ctx = RepCategory(Quiver(2, [(0, 1), (0, 1)], name="kronecker"), 2)
    rep = verify.suite_gabriel(ctx, 4)
    assert rep["instances"] == 0
    assert "skipped" in rep["scope_note"]


def test_green_builds_each_census_once(a2, monkeypatch):
    """Hall numbers come from one subrepresentation walk per middle term E,
    over every sub-dimension of E at once."""
    walks = Counter()
    subrep_walk = RepCategory._subrep_walk

    def counted(self, E, sub_dim=None, free=()):
        walks[E, sub_dim] += 1
        return subrep_walk(self, E, sub_dim, free)

    monkeypatch.setattr(RepCategory, "_subrep_walk", counted)
    ctx = RepCategory(a2, 2)
    rep = verify.suite_green(ctx, HallAlgebra(ctx), 3)
    assert rep["instances"] > 0 and rep["failures"] == []
    assert walks and set(walks.values()) == {1}, walks.most_common(3)
    assert {sub_dim for _, sub_dim in walks} == {None}
    assert {E for E, _ in walks} == {c.rep for c in ctx.classes_up_to(3)}


@pytest.mark.parametrize("name,p", [("a2", 2), ("a2", 3), ("a3_source", 2),
                                    ("a3_source", 3), ("d4", 2)])
def test_green_join_matches_dim_walk_oracle(request, name, p):
    """On every green quadruple up to total dim 3, the row of (M, N), an int
    numerator at (X, Y) over an int denominator, equals both the
    per-quadruple factorization join and the dimension-vector walk."""
    quiver = D4 if name == "d4" else request.getfixturevalue(name)
    ctx = RepCategory(quiver, p)
    hall = HallAlgebra(ctx)
    pairs_by_total = {}
    for cm, cn in ctx.class_tuples(3, 2):
        pairs_by_total.setdefault(dim_add(cm.dim, cn.dim), []).append((cm.label, cn.label))
    compared = 0
    for pairs in pairs_by_total.values():
        for lm, ln in pairs:
            row, den = hall.green_residual(lm, ln)
            assert type(den) is int and den > 0 and set(row) <= set(pairs)
            for lx, ly in pairs:
                num = row.get((lx, ly), 0)
                assert type(num) is int
                labels = (lm, ln, lx, ly)
                assert Fraction(num, den) == green_residual_by_join(hall, *labels) == \
                    green_residual_by_dim_walk(hall, *labels), labels
                compared += 1
    assert compared == verify.suite_green(ctx, hall, 3)["instances"] > 0


def test_green_replay_computes_one_row(monkeypatch, capsys):
    """verify green --only <id> computes the row of its (M, N) alone and
    builds the indexes of its grade alone, and under braid_exponent_swapped
    replays the full run's failure line; the full run builds each grade's
    indexes once."""
    rows, grades = [], []
    green_residual, green_indexes = HallAlgebra.green_residual, HallAlgebra._green_indexes

    def row(self, lm, ln):
        rows.append((lm, ln))
        return green_residual(self, lm, ln)

    def indexes(self, total):
        grades.append(total)
        return green_indexes(self, total)

    monkeypatch.setattr(HallAlgebra, "green_residual", row)
    monkeypatch.setattr(HallAlgebra, "_green_indexes", indexes)

    def failures(*only):
        assert main(["verify", "green", "--quiver", "a2", "--q", "2", "--max-dim", "3",
                     *only]) == 1
        return json.loads(capsys.readouterr().out)["suites"][0]["failures"]

    with MUTANTS["braid_exponent_swapped"]():
        full = failures()
        assert len(grades) == len(set(grades)) > 1
        line = full[len(full) // 2]
        inst = line.partition(": ")[0]
        rows.clear()
        grades.clear()
        assert failures("--only", inst) == [line]
    lm, ln, _, _ = inst[len("green:"):].split("|")
    assert rows == [(lm, ln)]
    assert grades == [dim_add(parse_label(lm)[0], parse_label(ln)[0])]


def test_hexagon_replays_one_instance_per_check(capsys):
    """verify hexagon --only runs one instance for a hex: id and for a
    braidinv: id, and under braid_inverse_sign_kept the braidinv replay
    gives the full run's failure line."""
    def report(*only):
        code = main(["verify", "hexagon", "--quiver", "a2", "--q", "2", "--max-dim", "3",
                     *only])
        rep = json.loads(capsys.readouterr().out)["suites"][0]
        return code, rep["instances"], rep["failures"]

    assert report("--only", "hex:1.2|0.1|3.0") == (0, 1, [])
    assert report("--only", "braidinv:d1.0#0|d0.1#0") == (0, 1, [])
    with MUTANTS["braid_inverse_sign_kept"]():
        code, instances, full = report()
        assert (code, instances, len(full)) == (1, 46825, 119)
        line = full[len(full) // 2]
        assert line.startswith("braidinv:")
        assert report("--only", line.partition(": ")[0]) == (1, 1, [line])


def _green_failures(a2, monkeypatch, name, mutant):
    monkeypatch.setattr(HallAlgebra, name, mutant)
    ctx = RepCategory(a2, 2)
    return verify.suite_green(ctx, HallAlgebra(ctx), 3)["failures"]


def test_green_fails_with_swapped_euler_form(a2, monkeypatch):
    """q^{-<D, A>} in place of q^{-<A, D>} on the right side is caught."""
    braid_coeff = HallAlgebra.braid_coeff

    def swapped(self, first, second, sign=-1):
        return braid_coeff(self, second, first, sign)

    failures = _green_failures(a2, monkeypatch, "braid_coeff", swapped)
    assert "green:d1.0#0|d0.1#0|d1.0#0|d0.1#0: residual 1/1" in failures
    assert all(": residual " in f for f in failures)


def test_green_fails_with_one_factorization_miscounted(a2, monkeypatch):
    """One extra factorization S2 <= P1 with quotient S1, read only by the
    right side, is caught, among others by (P1, 0, S1, S2)."""
    factorizations = HallAlgebra.factorizations

    def bumped(self, label):
        out = factorizations(self, label)
        if label == "d1.1#1":
            out = {a: dict(subs) for a, subs in out.items()}
            out["d1.0#0"]["d0.1#0"] += 1
        return out

    failures = _green_failures(a2, monkeypatch, "factorizations", bumped)
    assert "green:d1.1#1|d0.0#0|d1.0#0|d0.1#0: residual -1/1" in failures
