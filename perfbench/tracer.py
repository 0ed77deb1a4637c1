"""Outside-in tracer for the hallalg package.

The tracer wraps the package's functions and methods from outside; nothing
is added to the package itself.  Every wrapped call opens a span whose
parent is the innermost open span.  Spans are aggregated in memory into a
calling-context tree (one node per distinct call path, holding call count,
total time and self time = span minus the time its child spans cover) and
written out when the run ends.  Count hooks on a few names record the work
counts the per-layer metrics need.

Module functions are replaced wherever they are bound: ``quiver.py``
imports ``enumerate_gl`` and friends by name, so the wrapper is installed in
every package module whose globals hold the function, not only in the
module that defines it.  Generator functions are wrapped by a generator
that times each resumption and counts yields.  A name the metrics rely on
that no longer exists is recorded in ``missing``, never raised.
"""

import inspect
import time
import weakref

from workloads import gaussian_binomial

LAYERS = ("linalg", "quiver", "hall", "cathall", "groupoids", "verify", "cli")

# Classes whose methods are spans.  Value types (Representation, RepMorphism,
# IsoClass, fields, HallVector, SESObject, ...) are left unwrapped: their
# methods are tiny and hot, so their time lands in the calling layer.
SPAN_CLASSES = {
    "linalg": ("Matrix",),
    "quiver": ("RepCategory",),
    "hall": ("HallAlgebra",),
    "cathall": ("ExtGroupoid", "BraidingSpan", "RepGroupoid"),
    "groupoids": ("GroupoidFunctor", "ConcreteSpan", "RandomGroupoids"),
    "verify": (),
    "cli": (),
}

# Hot leaves and lookups that are not spans, by layer.
SKIP = {
    "linalg": {"Matrix.__init__", "Matrix.__eq__", "Matrix.__hash__",
               "Matrix.__repr__", "Matrix.__getitem__", "Matrix.is_zero",
               "Matrix.transpose", "enumerate_vectors", "matrix_count", "gl_order",
               "primitive_root", "is_prime"},
    "quiver": {"dim_add", "dim_total", "RepCategory.class_of",
               "RepCategory.is_isomorphic", "RepCategory.class_by_label",
               "RepCategory._same_quiver"},
    "hall": {"parse_label", "label_sort_key", "format_coeff",
             "HallAlgebra.grade", "HallAlgebra.q_power", "HallAlgebra.zero_label"},
    "cathall": {"_log_base", "_qpow"},
    "groupoids": set(),
    "verify": {"_want", "_format"},
    "cli": {"build_parser"},
}

# Calls counted without a span.
COUNT_ONLY = {
    "hall": ("HallVector.__add__", "HallVector.__sub__",
             "HallTensor.__add__", "HallTensor.__sub__"),
    "cathall": ("SESObject.__init__",),
}

# Names the per-layer metrics are computed from, or whose spans separate
# the verify and cli layers from the rest; absent ones are reported.
METRIC_NAMES = (
    "linalg:Matrix.__mul__", "linalg:Matrix.rref", "linalg:enumerate_matrices",
    "linalg:enumerate_subspaces", "linalg:enumerate_gl",
    "quiver:RepCategory.classify", "quiver:RepCategory.invariant_subreps",
    "quiver:RepCategory.count_exact_pairs",
    "quiver:RepCategory.iso_set", "quiver:RepCategory.extension_class",
    "hall:HallAlgebra.green_residual", "hall:HallAlgebra.product_basis",
    "hall:HallVector.__add__", "hall:HallVector.__sub__",
    "hall:HallTensor.__add__", "hall:HallTensor.__sub__",
    "cathall:ExtGroupoid.__init__", "cathall:SESObject.__init__",
    "cathall:ExtGroupoid._orbits", "cathall:ExtGroupoid.aut_triples_direct",
    "cathall:ExtGroupoid.aut_fixed_ends", "cathall:_is_elementary_abelian_aut",
    "groupoids:weak_pullback", "verify:run_suite", "cli:main",
)

AUT_LOOPS = ("ExtGroupoid._orbits", "ExtGroupoid.aut_triples_direct",
             "ExtGroupoid.aut_fixed_ends", "_is_elementary_abelian_aut")

clock = time.perf_counter


class Node:
    __slots__ = ("id", "parent", "name", "layer", "calls", "total", "self_s",
                 "children")

    def __init__(self, node_id, parent, name, layer):
        self.id = node_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.children = {}


class Tracer:
    def __init__(self):
        self.root = Node(0, None, "run", "run")
        self.nodes = [self.root]
        self.stack = [[self.root, 0.0]]      # [node, time covered by children]
        self.counts = {}
        self.paused = False
        self.missing = []
        self.hook_errors = []

    # ---- bookkeeping --------------------------------------------------------

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def untraced(self, fn, *args):
        """Call into the package without recording it (for hook lookups)."""
        self.paused = True
        try:
            return fn(*args)
        finally:
            self.paused = False

    def hook(self, fn, *args):
        """Run a count hook; a hook that no longer fits the call is recorded."""
        try:
            return fn(*args)
        except (IndexError, KeyError, AttributeError, TypeError) as exc:
            if len(self.hook_errors) < 20:
                self.hook_errors.append(f"{fn.__qualname__}: {exc!r}")
            return None

    def _child(self, parent, name, layer):
        node = parent.children.get(name)
        if node is None:
            node = Node(len(self.nodes), parent.id, name, layer)
            self.nodes.append(node)
            parent.children[name] = node
        return node

    # ---- wrappers -------------------------------------------------------------

    def span(self, fn, name, layer, key=None, post=None):
        """Wrap fn as a span.

        With `key`, only the first call with a given key(args) for the
        object args[0] is a span (a cache miss); later calls are counted as
        `name.hits` and run bare, their time staying with the caller.
        post(args, result) records counts after each span.
        """
        stack = self.stack
        tracer = self
        child = self._child
        seen = {}                                # id(owner) -> (ref, keys)
        hits = name + ".hits"

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if key is not None:
                keys = keys_of(seen, args[0])
                k = tracer.hook(key, args)
                if k in keys:
                    tracer.add(hits)
                    return fn(*args, **kwargs)
                keys.add(k)
            parent = stack[-1][0]
            node = parent.children.get(name) or child(parent, name, layer)
            frame = [node, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                node.calls += 1
                node.total += dt
                node.self_s += dt - frame[1]
                stack[-1][1] += dt
            if post is not None:
                tracer.hook(post, args, result)
            return result

        return self._finish(wrapper, fn)

    def generator(self, fn, name, layer):
        """Wrap a generator function: each resumption is a span; count yields."""
        step = self.span(lambda gen: next(gen, StopIteration), name, layer)
        yields = name + ".yields"
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while (item := step(gen)) is not StopIteration:
                tracer.add(yields)
                yield item

        return self._finish(wrapper, fn)

    def counter(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer.add(name)
            return fn(*args, **kwargs)

        return self._finish(wrapper, fn)

    def _finish(self, wrapper, fn):
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # ---- installation ---------------------------------------------------------

    def install(self, package):
        """Wrap the package's layers; `package` maps layer name -> module."""
        hooks = _hooks(self)
        present = set()
        wrappers = {}                          # id(function) -> (function, wrapper)
        for layer in LAYERS:
            module = package[layer]
            for attr, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    present.add(f"{layer}:{attr}")
                    if attr not in SKIP[layer]:
                        wrappers[id(obj)] = (obj, self._wrap(obj, attr, layer, hooks))
                elif inspect.isclass(obj):
                    self._install_class(obj, layer, hooks, present)
            for attr in COUNT_ONLY.get(layer, ()):
                cls_name, meth = attr.split(".")
                fn = vars(getattr(module, cls_name, object)).get(meth)
                if inspect.isfunction(fn):
                    present.add(f"{layer}:{attr}")
                    setattr(getattr(module, cls_name), meth, self.counter(fn, attr))
        # a function imported by name is rebound in every module that holds it
        for layer in LAYERS:
            module = package[layer]
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry and entry[0] is obj:
                    setattr(module, attr, entry[1])
        self.missing = [n for n in METRIC_NAMES if n not in present]

    def _install_class(self, cls, layer, hooks, present):
        spans = cls.__name__ in SPAN_CLASSES[layer]
        for meth, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            name = f"{cls.__name__}.{meth}"
            if not spans or name in SKIP[layer]:
                continue
            present.add(f"{layer}:{name}")
            setattr(cls, meth, self._wrap(fn, name, layer, hooks))

    def _wrap(self, fn, name, layer, hooks):
        if inspect.isgeneratorfunction(fn):
            return self.generator(fn, name, layer)
        key, post = hooks.get(name, (None, None))
        return self.span(fn, name, layer, key, post)

    # ---- results ---------------------------------------------------------------

    def spans(self):
        """The calling-context tree as flat records with parent ids."""
        return [{"id": n.id, "parent": n.parent, "name": n.name, "layer": n.layer,
                 "calls": n.calls, "total_s": n.total, "self_s": n.self_s}
                for n in self.nodes]

    def metrics(self):
        """Per-layer metrics (without the verify.* and trace.* entries)."""
        calls, self_by_name, layer_self = {}, {}, {}
        for n in self.nodes[1:]:
            calls[n.name] = calls.get(n.name, 0) + n.calls
            self_by_name[n.name] = self_by_name.get(n.name, 0.0) + n.self_s
            layer_self[n.layer] = layer_self.get(n.layer, 0.0) + n.self_s

        def outer_total(names):
            """Inclusive time of the outermost calls to any of `names`."""
            total = 0.0
            todo = [(self.root, False)]
            while todo:
                node, inside = todo.pop()
                hit = node.name in names
                if hit and not inside:
                    total += node.total
                todo.extend((c, inside or hit) for c in node.children.values())
            return total

        c = self.counts.get
        pair_calls = calls.get("RepCategory.count_exact_pairs", 0)
        prod_calls = (calls.get("HallAlgebra.product_basis", 0)
                      + c("HallAlgebra.product_basis.hits", 0))
        attempts = c("subrep_attempts", 0)
        return {
            "linalg.matmul_calls": calls.get("Matrix.__mul__", 0),
            "linalg.rref_calls": calls.get("Matrix.rref", 0),
            "linalg.self_s": layer_self.get("linalg", 0.0),
            "linalg.edge_tuples": c("enumerate_matrices.yields", 0),
            "linalg.subspaces": c("enumerate_subspaces.yields", 0),
            "linalg.gl_elements": c("enumerate_gl.yields", 0),
            "quiver.self_s": layer_self.get("quiver", 0.0),
            "quiver.classify_s": self_by_name.get("RepCategory.classify", 0.0),
            "quiver.classify_tuples": c("classify_tuples", 0),
            "quiver.classes": c("classes", 0),
            "quiver.subreps_s": outer_total(("RepCategory.invariant_subreps",)),
            "quiver.subrep_attempts": attempts,
            "quiver.subrep_accept_ratio": _ratio(c("subreps_found", 0), attempts),
            "quiver.pair_count_calls": pair_calls,
            "quiver.pair_count_hit_ratio":
                1.0 - _ratio(c("pair_keys", 0), pair_calls) if pair_calls else 0.0,
            "quiver.pair_count_self_s":
                self_by_name.get("RepCategory.count_exact_pairs", 0.0),
            "quiver.iso_set_s": outer_total(("RepCategory.iso_set",)),
            "quiver.aut_elements_built": c("aut_elements_built", 0),
            "quiver.extension_class_calls": calls.get("RepCategory.extension_class", 0),
            "quiver.extension_class_s": outer_total(("RepCategory.extension_class",)),
            "hall.self_s": layer_self.get("hall", 0.0),
            "hall.green_residual_s": outer_total(("HallAlgebra.green_residual",)),
            "hall.product_basis_calls": prod_calls,
            "hall.product_basis_hit_ratio":
                1.0 - _ratio(calls.get("HallAlgebra.product_basis", 0), prod_calls)
                if prod_calls else 0.0,
            "hall.vector_adds": sum(c(n, 0) for n in COUNT_ONLY["hall"]),
            "cathall.ext_groupoids": calls.get("ExtGroupoid.__init__", 0),
            "cathall.ses_objects": c("SESObject.__init__", 0),
            "cathall.aut_scan_elements": c("aut_scan_elements", 0),
            "cathall.aut_loops_s": outer_total(AUT_LOOPS),
            "cathall.self_s": layer_self.get("cathall", 0.0),
            "groupoids.self_s": layer_self.get("groupoids", 0.0),
            "groupoids.pullbacks": calls.get("weak_pullback", 0),
            "verify.self_s": layer_self.get("verify", 0.0),
            "cli.self_s": layer_self.get("cli", 0.0),
        }


def keys_of(table, owner):
    """The key set kept for a live owner object in table {id: (ref, keys)}."""
    entry = table.get(id(owner))
    if entry is None or entry[0]() is not owner:
        entry = table[id(owner)] = (weakref.ref(owner), set())
    return entry[1]


def _ratio(num, den):
    return num / den if den else 0.0


def _hooks(tracer):
    """(key, post) by span name: cache-miss keys and work counts."""

    def classify_post(args, result):
        ctx, dim = args[0], args[1]
        tracer.add("classify_tuples",
                   ctx.q ** sum(dim[s] * dim[t] for s, t in ctx.quiver.arrows))
        tracer.add("classes", len(result))

    def subreps_post(args, result):
        ctx, E, sub_dim = args[:3]
        attempts = 1
        for e, s in zip(E.dim, sub_dim):
            attempts *= gaussian_binomial(e, s, ctx.q)
        tracer.add("subrep_attempts", attempts)
        tracer.add("subreps_found", len(result))

    pair_keys = {}                            # id(ctx) -> (ref, distinct triples)

    def pairs_post(args, result):
        keys = keys_of(pair_keys, args[0])
        if args[1:4] not in keys:
            keys.add(args[1:4])
            tracer.add("pair_keys")

    def aut_order(ctx, rep):
        return tracer.untraced(ctx.aut_order, rep)

    def orbits_post(args, result):
        ext, e_label = args[:2]
        rep = tracer.untraced(ext.ctx.class_by_label, e_label).rep
        tracer.add("aut_scan_elements", aut_order(ext.ctx, rep))

    def ses_post(args, result):
        ext, ses = args[:2]
        tracer.add("aut_scan_elements", aut_order(ext.ctx, ses.mid))

    def elementary_post(args, result):
        ctx, ses = args[0], args[2]
        tracer.add("aut_scan_elements", aut_order(ctx, ses.mid))

    return {
        "RepCategory.classify": (lambda a: tuple(a[1]), classify_post),
        "RepCategory.invariant_subreps": (lambda a: (a[1], tuple(a[2])), subreps_post),
        "RepCategory.count_exact_pairs": (None, pairs_post),
        "RepCategory.iso_set": (lambda a: (a[1], a[2]),
                                lambda a, r: tracer.add("aut_elements_built", len(r))),
        "HallAlgebra.product_basis": (lambda a: (a[1], a[2]), None),
        "ExtGroupoid._orbits": (lambda a: a[1], orbits_post),
        "ExtGroupoid.aut_triples_direct": (None, ses_post),
        "ExtGroupoid.aut_fixed_ends": (None, ses_post),
        "_is_elementary_abelian_aut": (None, elementary_post),
    }
