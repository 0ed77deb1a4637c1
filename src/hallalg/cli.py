"""Command-line harness: structure-constant tables, verification suites,
and direct groupoid operations on JSON files.

Exit codes: 0 on success, 1 when a mathematical check fails, 2 on usage,
configuration or input-format errors.  Reports written to stdout or
--out are byte-identical for identical configurations; wall-clock timing
goes to stderr only.
"""

import argparse
import csv
import io
import json
import os
import sys
import time
from importlib import resources

from .linalg import BudgetError, DEFAULT_BUDGET, is_prime
from .quiver import Quiver, RepCategory
from .hall import HallAlgebra, format_coeff
from . import groupoids as gpd
from .verify import SUITE_ORDER, run_suite

BUNDLED_QUIVERS = ("a2", "a3-linear", "a3-source", "d4")
BUNDLED_GROUPOIDS = ("discrete-3", "finite-sets-5")


class UsageError(Exception):
    pass


def read_document(spec, what, bundled=()):
    """The JSON document in the file spec, or else the bundled one that spec
    names (with or without .json) when bundled lists it."""
    if os.path.exists(spec):
        try:
            with open(spec) as fh:
                return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{what} file {spec!r}: invalid JSON at line "
                             f"{exc.lineno}, column {exc.colno}")
    base = spec[:-5] if spec.endswith(".json") else spec
    if base not in bundled:
        raise UsageError(f"{what} {spec!r} is neither a file nor one of {', '.join(bundled)}"
                         if bundled else f"{what} file {spec!r} does not exist")
    return json.loads(resources.files("hallalg").joinpath("data", f"{base}.json").read_text())


def load_quiver(spec):
    """A quiver from a file path or a bundled name (a2, a3-linear, ...)."""
    doc = read_document(spec, "quiver", BUNDLED_QUIVERS)
    try:
        return Quiver.from_json_dict(doc, name=os.path.splitext(os.path.basename(spec))[0])
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad quiver document {spec!r}: {exc}") from exc


def make_context(args):
    if not is_prime(args.q):
        raise UsageError(f"--q must be prime, got {args.q}")
    if args.max_dim < 0:
        raise UsageError("--max-dim must be nonnegative")
    if args.budget <= 0:
        raise UsageError("--budget must be positive")
    quiver = load_quiver(args.quiver)
    ctx = RepCategory(quiver, args.q, budget=args.budget)
    return ctx, HallAlgebra(ctx)


def emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_tables(args):
    ctx, hall = make_context(args)
    config = {"quiver": ctx.quiver.name, "q": args.q, "max_dim": args.max_dim,
              "budget": args.budget}
    product = hall.product_table(args.max_dim)
    coproduct = hall.coproduct_table(args.max_dim)
    if args.format == "json":
        doc = {"config": config, "product": product, "coproduct": coproduct}
        emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["table", "left", "right", "class", "coeff"])
        for key, entries in product.items():
            left, right = key.split("],[")
            for e in entries:
                writer.writerow(["product", left[1:], right[:-1],
                                 e["class"], e["coeff"]])
        for key, entries in coproduct.items():
            for e in entries:
                writer.writerow(["coproduct", e["left"], e["right"],
                                 key[1:-1], e["coeff"]])
        emit(buf.getvalue(), args.out)
    return 0


def cmd_verify(args):
    ctx, hall = make_context(args)
    names = list(SUITE_ORDER) if args.suite == "all" else [args.suite]
    reports = []
    ok = True
    for name in names:
        t0 = time.monotonic()
        rep = run_suite(name, ctx, hall, args.max_dim, args.seed, only=args.only)
        dt = time.monotonic() - t0
        print(f"[{name}] {rep['instances']} instances, "
              f"{len(rep['failures'])} failures, {dt:.2f}s", file=sys.stderr)
        reports.append(rep)
        if rep["failures"]:
            ok = False
    doc = {
        "config": {"quiver": ctx.quiver.name, "q": args.q, "max_dim": args.max_dim,
                   "budget": args.budget, "seed": args.seed, "only": args.only},
        "suites": reports,
        "ok": ok,
    }
    emit(json.dumps(doc, indent=2, default=str) + "\n", args.out)
    return 0 if ok else 1


def cmd_groupoid(args):
    if args.gop == "card":
        try:
            G = gpd.groupoid_from_json(
                read_document(args.files[0], "groupoid", BUNDLED_GROUPOIDS))
        except gpd.GroupoidFormatError as exc:
            raise UsageError(f"{args.files[0]}: {exc}") from exc
        card = G.cardinality()
        alt = G.cardinality_alt()
        if card != alt:
            print(f"cardinality formulas disagree: {card} vs {alt}", file=sys.stderr)
            return 1
        print(format_coeff(card))
        return 0
    if args.gop == "pullback":
        if len(args.files) != 2:
            raise UsageError("pullback needs two functor files")
        f = _load_functor_doc(args.files[0])
        g = _load_functor_doc(args.files[1])
        if gpd.groupoid_to_json(f.target) != gpd.groupoid_to_json(g.target):
            raise UsageError("the two functors have different codomains")
        g2 = gpd.GroupoidFunctor(g.source, f.target, g.obj_map, g.mor_map)
        P, _, _ = gpd.weak_pullback(f, g2, DEFAULT_BUDGET)
        card = P.cardinality()
        doc = {"objects": P.n_objects(), "morphisms": P.n_morphisms(),
               "cardinality": format_coeff(card)}
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(gpd.groupoid_to_json(P), fh, indent=2)
                fh.write("\n")
        print(json.dumps(doc, indent=2))
        return 0
    if args.gop == "degroupoidify":
        doc = read_document(args.files[0], "span")
        try:
            span = gpd.span_from_json(doc)
        except gpd.GroupoidFormatError as exc:
            raise UsageError(f"{args.files[0]}: {exc}") from exc
        entries, rows, cols = gpd.degroupoidify_span(span)
        table = [[format_coeff(entries.get((y, x), 0)) for x in cols] for y in rows]
        out = {"rows": [f"y{r}" for r in rows], "cols": [f"x{c}" for c in cols],
               "entries": table}
        emit(json.dumps(out, indent=2) + "\n", args.out)
        return 0
    raise UsageError(f"unknown groupoid operation {args.gop!r}")


def _load_functor_doc(path):
    doc = read_document(path, "functor")
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: functor document must be an object")
    for field in ("source", "target", "objects", "morphisms"):
        if field not in doc:
            raise UsageError(f'{path}: functor document missing "{field}"')
    try:
        source = gpd.groupoid_from_json(doc["source"])
        target = gpd.groupoid_from_json(doc["target"])
        return gpd.functor_from_json(
            {"objects": doc["objects"], "morphisms": doc["morphisms"]},
            source, target)
    except gpd.GroupoidFormatError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hallalg",
        description="Exact Hall algebra computations and categorified checks "
                    "for quiver representations over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--quiver", default="a2",
                       help="quiver JSON path or bundled name "
                            f"({', '.join(BUNDLED_QUIVERS)})")
        p.add_argument("--q", type=int, default=2, help="prime field size")
        p.add_argument("--max-dim", type=int, default=3, dest="max_dim",
                       help="total-dimension bound for classes and checks")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="enumeration budget (items per enumeration)")
        p.add_argument("--out", help="write the report/table to this path")

    p_tables = sub.add_parser("tables", help="emit product/coproduct tables")
    common(p_tables)
    p_tables.add_argument("--format", choices=("json", "csv"), default="json")
    p_tables.set_defaults(func=cmd_tables)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of {', '.join(SUITE_ORDER)} or all")
    common(p_verify)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized suites")
    p_verify.add_argument("--only", help="replay a single instance by id")
    p_verify.set_defaults(func=cmd_verify)

    p_g = sub.add_parser("groupoid", help="operate on groupoid JSON files")
    p_g.add_argument("gop", choices=("card", "pullback", "degroupoidify"))
    p_g.add_argument("files", nargs="+")
    p_g.add_argument("--out", help="write the resulting object to this path")
    p_g.set_defaults(func=cmd_groupoid)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        hint = " (raise --budget to allow it)" if hasattr(args, "budget") else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
