import json
import os

import pytest

from hallalg.cli import load_quiver, main
from hallalg.hall import HallAlgebra
from hallalg.linalg import DEFAULT_BUDGET, Matrix
from hallalg.quiver import RepCategory
from hallalg.verify import SUITE_ORDER, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tables_default_quiver(capsys):
    code, out, _ = run(capsys, "tables", "--max-dim", "2")
    assert code == 0
    doc = json.loads(out)
    entry = doc["product"]["[d1.0#0],[d0.1#0]"]
    assert {e["class"]: e["coeff"] for e in entry} == \
        {"d1.1#0": "1/1", "d1.1#1": "1/1"}


def test_tables_bound_zero(capsys):
    code, out, _ = run(capsys, "tables", "--max-dim", "0")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["product"]) == ["[d0.0#0],[d0.0#0]"]
    assert doc["product"]["[d0.0#0],[d0.0#0]"] == \
        [{"class": "d0.0#0", "coeff": "1/1"}]


def test_tables_run_no_row_reduction(capsys, monkeypatch):
    """`tables --quiver a3-source --q 3 --max-dim 5` calls Matrix.rref 0
    times: classify inverts its generators in closed form and the census
    reads its subspace frames in closed form."""
    calls = []
    rref = Matrix.rref

    def counted(self):
        calls.append(self)
        return rref(self)
    monkeypatch.setattr(Matrix, "rref", counted)
    code, out, _ = run(capsys, "tables", "--quiver", "a3-source", "--q", "3", "--max-dim", "5")
    assert code == 0 and len(json.loads(out)["product"]) == 932
    assert calls == []


def test_tables_q3_coproduct_row(capsys):
    code, out, _ = run(capsys, "tables", "--q", "3", "--max-dim", "2")
    assert code == 0
    doc = json.loads(out)
    rows = doc["coproduct"]["[d1.1#1]"]
    lookup = {(e["left"], e["right"]): e["coeff"] for e in rows}
    assert lookup[("d0.1#0", "d1.0#0")] == "2/1"


def test_tables_csv(capsys, tmp_path):
    out_file = tmp_path / "tables.csv"
    code, _, _ = run(capsys, "tables", "--max-dim", "1", "--format", "csv",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "table,left,right,class,coeff"
    assert any(line.startswith("product,") for line in lines[1:])
    assert any(line.startswith("coproduct,") for line in lines[1:])


def test_format_belongs_to_tables_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "green", "--max-dim", "1", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_verify_green_exits_zero(capsys):
    code, out, err = run(capsys, "verify", "green", "--q", "2", "--max-dim", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["suites"][0]["check"] == "green"
    assert doc["suites"][0]["failures"] == []
    assert "[green]" in err  # timings on stderr only


def test_verify_all_bound_zero(capsys):
    code, out, _ = run(capsys, "verify", "all", "--q", "2", "--max-dim", "0")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_engine_seeded(capsys):
    code, out, _ = run(capsys, "verify", "engine", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    rep = doc["suites"][0]
    assert rep["seed"] == 7
    assert rep["instances"] == 80
    assert rep["failures"] == []


def test_verify_only_replay(capsys):
    inst = "green:d1.0#0|d0.1#0|d1.0#0|d0.1#0"
    code, out, _ = run(capsys, "verify", "green", "--only", inst)
    assert code == 0
    doc = json.loads(out)
    assert doc["suites"][0]["instances"] == 1


def test_verify_deterministic_output(tmp_path, capsys):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    assert run(capsys, "verify", "algebra", "--max-dim", "2", "--out", str(p1))[0] == 0
    assert run(capsys, "verify", "algebra", "--max-dim", "2", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_reports_stream_the_bytes_of_one_encoded_string(tmp_path, capsys, to_file):
    """tables and verify (a2, q = 3, max-dim 2) write their report as it is
    encoded, through --out or to stdout: byte for byte json.dumps(doc,
    indent=2) + "\n" of the same report, with default=str for verify."""
    ctx = RepCategory(load_quiver("a2"), 3)
    hall = HallAlgebra(ctx)
    config = {"quiver": "a2", "q": 3, "max_dim": 2, "budget": DEFAULT_BUDGET}
    cells = [(["tables"], {"config": config, "product": hall.product_table(2),
                           "coproduct": hall.coproduct_table(2)}, {}),
             (["verify", "green"], {"config": dict(config, seed=0, only=None),
                                    "suites": [run_suite("green", ctx, hall, 2, 0)],
                                    "ok": True}, {"default": str})]
    for argv, doc, options in cells:
        argv = argv + ["--quiver", "a2", "--q", "3", "--max-dim", "2"]
        path = tmp_path / "report.json"
        if to_file:
            code, out, _ = run(capsys, *argv, "--out", str(path))
            assert out == ""
            out = path.read_bytes().decode()
        else:
            code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(doc, indent=2, **options) + "\n"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "verify", "nosuchsuite")[0] == 2
    assert run(capsys, "tables", "--q", "4")[0] == 2
    assert run(capsys, "tables", "--max-dim", "-1")[0] == 2
    assert run(capsys, "tables", "--quiver", "/nonexistent/path.json")[0] == 2
    assert run(capsys, "groupoid", "card", "/nonexistent.json")[0] == 2


def test_budget_error_exits_two(capsys):
    code, _, err = run(capsys, "tables", "--max-dim", "3", "--budget", "2")
    assert code == 2
    assert "budget" in err
    assert "raise --budget" in err


def test_groupoid_card_bundled(capsys):
    code, out, _ = run(capsys, "groupoid", "card", "discrete-3")
    assert code == 0 and out.strip() == "3/1"
    code, out, _ = run(capsys, "groupoid", "card", "finite-sets-5")
    assert code == 0 and out.strip() == "163/60"


MALFORMED_GROUPOIDS = [
    ('{"objects": 1, "morphisms": [{"src": 0}], "compose": [[0]]}', "morphisms[0]"),
    ('{"objects": 1, "morphisms": [{"src": "0", "tgt": 0}], "compose": [[0]]}',
     "morphisms[0].src"),
    ('{"objects": 1, "morphisms": [{"src": 0, "tgt": 0}], "compose": 7}', "compose"),
    ('{"objects": 1, "morphisms": [{"src": 0, "tgt": 0}], "compose": [5]}', "compose"),
    ('{"objects": 1, "morphisms": 3, "compose": []}', "morphisms"),
    ('[1, 2]', "groupoid document"),
]


def test_groupoid_card_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for doc, field in MALFORMED_GROUPOIDS:
        bad.write_text(doc)
        code, _, err = run(capsys, "groupoid", "card", str(bad))
        assert code == 2, doc
        assert field in err, doc


@pytest.mark.parametrize("mor_map,field", [([5], "functor morphisms[0]"),
                                           ([-1], "functor morphisms[0]"),
                                           (7, "functor \"morphisms\"")])
def test_groupoid_pullback_bad_functor_index(tmp_path, capsys, mor_map, field):
    """A functor index outside the target, negative ones included, exits 2."""
    from hallalg import groupoids as gpd
    pt = gpd.groupoid_to_json(gpd.discrete_groupoid(1))
    good = {"source": pt, "target": pt, "objects": [0], "morphisms": [0]}
    (tmp_path / "f.json").write_text(json.dumps(good))
    (tmp_path / "g.json").write_text(json.dumps(dict(good, morphisms=mor_map)))
    code, _, err = run(capsys, "groupoid", "pullback", str(tmp_path / "f.json"),
                       str(tmp_path / "g.json"))
    assert code == 2
    assert field in err


def test_groupoid_documents_must_be_objects(tmp_path, capsys):
    path = tmp_path / "seven.json"
    path.write_text("7")
    assert run(capsys, "groupoid", "pullback", str(path), str(path))[0] == 2
    code, _, err = run(capsys, "groupoid", "degroupoidify", str(path))
    assert code == 2
    assert "span document" in err


def test_groupoid_budget_error_names_no_missing_flag(tmp_path, capsys):
    """groupoid has no --budget, so its budget errors carry no hint to raise it."""
    n = 130                   # 130^3 composable triples exceed the default budget
    table = [[(g + f) % n for f in range(n)] for g in range(n)]
    path = tmp_path / "z130.json"
    path.write_text(json.dumps({"objects": 1, "compose": table,
                                "morphisms": [{"src": 0, "tgt": 0}] * n}))
    code, _, err = run(capsys, "groupoid", "card", str(path))
    assert code == 2
    assert "composable triples" in err and "--budget" not in err


def test_groupoid_pullback_discrete(tmp_path, capsys):
    from hallalg import groupoids as gpd
    A, B, X = (gpd.discrete_groupoid(n) for n in (3, 2, 2))
    f = gpd.GroupoidFunctor(A, X, [0, 1, 0], [0, 1, 0])
    g = gpd.GroupoidFunctor(B, X, [0, 1], [0, 1])
    for path, fun in ((tmp_path / "f.json", f), (tmp_path / "g.json", g)):
        doc = {"source": gpd.groupoid_to_json(fun.source),
               "target": gpd.groupoid_to_json(fun.target),
               "objects": list(fun.obj_map), "morphisms": list(fun.mor_map)}
        path.write_text(json.dumps(doc))
    out_g = tmp_path / "pullback.json"
    code, out, _ = run(capsys, "groupoid", "pullback", str(tmp_path / "f.json"),
                       str(tmp_path / "g.json"), "--out", str(out_g))
    assert code == 0
    doc = json.loads(out)
    assert doc["objects"] == 3 and doc["cardinality"] == "3/1"
    from hallalg.groupoids import groupoid_from_json
    assert groupoid_from_json(json.loads(out_g.read_text())).cardinality() == 3


def test_groupoid_degroupoidify(tmp_path, capsys):
    from hallalg import groupoids as gpd
    from oracles import span_to_json
    pt = gpd.discrete_groupoid(1)
    a = gpd.group_groupoid(gpd.cyclic_table(2))
    leg = gpd.GroupoidFunctor(a, pt, [0], [0, 0])
    span = gpd.ConcreteSpan(a, leg, leg)
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span_to_json(span)))
    code, out, _ = run(capsys, "groupoid", "degroupoidify", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [["1/2"]]


def test_verify_failure_exits_one(capsys, monkeypatch):
    # force a mathematical failure to confirm the exit-code contract
    import hallalg.verify as verify_mod

    def broken(ctx, hall, max_dim, only=None):
        return {"check": "green", "instances": 1,
                "failures": ["green:forced: residual 1/1"],
                "scope_note": "forced"}

    monkeypatch.setattr(verify_mod, "suite_green", broken)
    code, out, _ = run(capsys, "verify", "green")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False


def test_bundled_quivers_load(capsys):
    for name in ("a2", "a3-linear", "a3-source", "d4"):
        code, out, _ = run(capsys, "verify", "gabriel", "--quiver", name,
                           "--max-dim", "2")
        assert code == 0


def test_verify_bsim_replays_one_ext_pair(capsys, monkeypatch):
    """A replay builds the one sequence groupoid it checks, and no other."""
    from hallalg.cathall import ExtGroupoid
    init = ExtGroupoid.__init__
    for suite, max_dim, inst in (("bsim", "2", "bsim-ext:d1.0#0|d0.1#0"),
                                 ("bsim", "3", "braidmatrix:d1.0#0|d0.1#0"),
                                 ("spans", "2", "comult:d1.0#0|d0.1#0|d1.1#1")):
        built = []

        def counted(self, ctx, M, N):
            built.append((M, N))
            init(self, ctx, M, N)

        monkeypatch.setattr(ExtGroupoid, "__init__", counted)
        code, out, _ = run(capsys, "verify", suite, "--max-dim", max_dim, "--only", inst)
        assert code == 0
        assert json.loads(out)["suites"][0]["instances"] == 1
        assert len(built) == 1, inst


def test_verify_spans_failure_replays_by_id(capsys, monkeypatch):
    """A patched product entry fails the mult span; its id replays alone."""
    from hallalg.hall import HallAlgebra
    product_basis = HallAlgebra.product_basis

    def patched(self, la, lb):
        out = product_basis(self, la, lb)
        if (la, lb) == ("d1.0#0", "d0.1#0"):
            out = dict(out)
            out["d1.1#0"] = out.get("d1.1#0", 0) + 1
        return out

    monkeypatch.setattr(HallAlgebra, "product_basis", patched)
    code, out, _ = run(capsys, "verify", "spans", "--max-dim", "2")
    assert code == 1
    failures = json.loads(out)["suites"][0]["failures"]
    assert failures[0].startswith("mult:d1.1#0|d1.0#0|d0.1#0: ")
    inst = failures[0].split(": ")[0]
    from hallalg import cathall
    comult_entries = []
    monkeypatch.setattr(cathall, "comult_span_entry",
                        lambda *args: comult_entries.append(args) or 0)
    ext_built = []
    init = cathall.ExtGroupoid.__init__

    def counted(self, ctx, M, N):
        ext_built.append((M, N))
        init(self, ctx, M, N)

    monkeypatch.setattr(cathall.ExtGroupoid, "__init__", counted)
    code, out, _ = run(capsys, "verify", "spans", "--max-dim", "2", "--only", inst)
    assert code == 1
    suite = json.loads(out)["suites"][0]
    assert suite["instances"] == 1
    assert suite["failures"] == [failures[0]]
    assert comult_entries == []     # a mult: id reads no comult entry
    assert len(ext_built) == 1      # and builds only the EXT groupoid of its pair


def test_verify_comult_extra_entry_replays_as_one_instance(capsys, monkeypatch):
    """A span entry with no coproduct term is an instance: its failure replays
    as 1 instance and 1 failure."""
    from hallalg.hall import HallAlgebra
    coproduct_basis = HallAlgebra.coproduct_basis

    def dropped(self, le):
        out = coproduct_basis(self, le)
        if le == "d1.1#1":
            out = {k: v for k, v in out.items() if k != ("d1.1#1", "d0.0#0")}
        return out

    monkeypatch.setattr(HallAlgebra, "coproduct_basis", dropped)
    inst = "comult:d0.0#0|d1.1#1|d1.1#1"
    code, out, _ = run(capsys, "verify", "spans", "--max-dim", "2")
    assert code == 1
    assert json.loads(out)["suites"][0]["failures"] == [f"{inst}: extra span entry 1"]
    code, out, _ = run(capsys, "verify", "spans", "--max-dim", "2", "--only", inst)
    assert code == 1
    suite = json.loads(out)["suites"][0]
    assert (suite["instances"], len(suite["failures"])) == (1, 1)


def test_verify_coherence_failure_replays_by_id(capsys, monkeypatch):
    """A broken Euler form fails the shuffles; the first failure replays alone."""
    from hallalg.quiver import RepCategory
    euler_form = RepCategory.euler_form

    def off_by_one(self, m, n):
        return euler_form(self, m, n) + (1 if any(m) and any(n) else 0)

    monkeypatch.setattr(RepCategory, "euler_form", off_by_one)
    code, out, _ = run(capsys, "verify", "coherence", "--max-dim", "2")
    assert code == 1
    failures = json.loads(out)["suites"][0]["failures"]
    for name in ("shuffle-1-3", "shuffle-3-1", "shuffle-2-2"):
        assert any(f.startswith(name + ":") and "fixed-end piece value off" in f
                   for f in failures), name
    inst = failures[0].split(": ")[0]
    code, out, _ = run(capsys, "verify", "coherence", "--max-dim", "2", "--only", inst)
    assert code == 1
    suite = json.loads(out)["suites"][0]
    assert suite["instances"] == 1
    assert suite["failures"][0] == failures[0]


# one known instance per suite at a2, q=2, max-dim 2
REPLAY_IDS = {
    "algebra": "assoc:d1.0#0|d0.1#0|d0.0#0",
    "green": "green:d1.0#0|d0.1#0|d1.0#0|d0.1#0",
    "bialgebra": "bialgebra:d1.0#0|d0.1#0",
    "antipode": "antipode:d1.1#0",
    "hexagon": "hex:0.0|1.0|0.1",
    "ext": "ext:d1.0#0|d0.1#0",
    "riedtmann": "riedtmann:d1.0#0|d0.1#0|d1.1#0",
    "bilinearity": "bilin2:d1.0#0|d0.1#0|d0.0#0",
    "spans": "comult:d1.0#0|d0.1#0|d1.1#1",
    "bsim": "braidmatrix:d1.0#0|d0.1#0",
    "coherence": "shuffle-3-1:d1.0#0|d0.0#0|d0.1#0|d0.0#0",
    "engine": "engine:equiv:7",
    "gabriel": "gabriel:1.1",
}


def _instances(capsys, suite, *argv):
    code, out, _ = run(capsys, "verify", suite, "--max-dim", "2", *argv)
    assert code == 0
    return json.loads(out)["suites"][0]["instances"]


@pytest.mark.parametrize("suite", SUITE_ORDER)
def test_verify_replays_one_instance_per_suite(capsys, suite):
    assert _instances(capsys, suite, "--only", REPLAY_IDS[suite]) == 1


def test_readme_replay_examples_run_one_instance(capsys):
    import shlex
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        examples = [shlex.split(line)[1:] for line in fh
                    if line.startswith("hallalg verify") and "--only" in line]
    assert len(examples) == 3
    for argv in examples:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert json.loads(out)["suites"][0]["instances"] == 1, argv


def test_verify_only_check_name_selects_the_whole_check(capsys):
    """The part of an id before its first ':' selects every instance of that check."""
    total = _instances(capsys, "coherence")
    parts = [_instances(capsys, "coherence", "--only", name) for name in
             ("shuffle-1-3", "shuffle-3-1", "shuffle-2-2", "pentagon-strict", "unitor")]
    assert all(parts) and sum(parts) == total
    assert _instances(capsys, "algebra", "--only", "coassoc") == 7


@pytest.mark.parametrize("inst", ["unitorX", "pentagon-strict:nothing"])
def test_verify_only_unknown_id_runs_nothing(capsys, inst):
    """An id that selects no instance of the command is a usage error: exit 2,
    no report, and the message names the id."""
    for suite in ("coherence", "all"):
        code, out, err = run(capsys, "verify", suite, "--max-dim", "2", "--only", inst)
        assert code == 2 and out == ""
        assert err.strip().splitlines()[-1] == (
            f"error: --only {inst!r} names no instance of verify {suite}")


def test_budget_error_names_suite_and_replayable_instance(capsys, tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "bsim", "--max-dim", "2", "--budget", "16", "--out", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and not out.exists()
    line = err.strip().splitlines()[-1]
    # the units walk spans a complement of the fixed-end ideal: 2^5 points, not 2^7
    assert line.startswith(
        "error: End(0, 3) subspace enumeration dim 5 over F_2: 32 items exceeds budget 16")
    assert ", in suite bsim, instance 'bsim-ext:d0.1#0|d0.2#0'" in line
    inst = line.split("instance '")[1].split("'")[0]
    code, stdout, err = run(capsys, *argv, "--only", inst)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.strip().splitlines()[-1] == line
    # a stop before the first instance names only the suite
    code, stdout, err = run(capsys, "verify", "bsim", "--max-dim", "2", "--budget", "1")
    assert code == 2 and stdout == ""
    assert err.strip().endswith(", in suite bsim (raise --budget to allow it)")


def test_bilinearity_frontier_instance_passes_under_the_default_budget(capsys):
    """EXT(0 (+) 0, d0.4#0) of a2 over F_3: its first sequence needs an
    isomorphism onto an image of dimension (0, 4), which a walk of the
    3^16-point Hom span once found and which the orbit-tree transporter
    gives without charging the budget."""
    code, stdout, err = run(capsys, "verify", "bilinearity", "--quiver", "a2", "--q", "3",
                            "--max-dim", "4", "--only", "bilin1:d0.0#0|d0.0#0|d0.4#0")
    assert code == 0 and json.loads(stdout)["ok"]
    assert "[bilinearity] 1 instances, 0 failures" in err


def test_coherence_budgets_its_automorphism_loops(capsys):
    """pentagon-strict walks |Aut w|^3 triples and unitor |Aut w|^2 pairs per
    class w; at q = 5 the class of (0, 2), with Aut = GL_2(F_5) of order 480,
    stops each loop before it starts."""
    argv = ["verify", "coherence", "--quiver", "a2", "--q", "5", "--max-dim", "2"]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err.strip().splitlines()[-1] == (
        "error: pentagon-strict Aut(d0.2#0)^3 loop: 110592000 items exceeds budget 2000000, "
        "in suite coherence, instance 'pentagon-strict' (raise --budget to allow it)")
    code, stdout, err = run(capsys, *argv, "--only", "unitor", "--budget", "100000")
    assert code == 2 and stdout == ""
    assert err.strip().splitlines()[-1].startswith(
        "error: unitor Aut(d0.2#0)^2 loop: 230400 items exceeds budget 100000")


def test_engine_pullbacks_honour_the_budget(capsys):
    """The engine suite's weak pullbacks are charged to --budget, not to the
    default budget: the first span composite has 384 morphisms."""
    code, stdout, err = run(capsys, "verify", "engine", "--budget", "5")
    assert code == 2 and stdout == ""
    assert err.strip().splitlines()[-1] == (
        "error: weak pullback morphisms: 384 items exceeds budget 5, in suite engine, "
        "instance 'engine:span:0' (raise --budget to allow it)")


def test_document_errors_name_the_file_or_the_bundled_names(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run(capsys, "tables", "--quiver", str(bad))
    assert code == 2
    assert err.strip() == f"error: quiver file {str(bad)!r}: invalid JSON at line 1, column 1"
    code, _, err = run(capsys, "groupoid", "card", "no-such-groupoid")
    assert code == 2
    assert err.strip() == ("error: groupoid 'no-such-groupoid' is neither a file nor one of "
                           "discrete-3, finite-sets-5")
