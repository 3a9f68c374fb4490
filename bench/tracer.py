"""Per-layer spans for the traced benchmark run, recorded from outside the package.

`install()` must run before `cubedecomp` is imported.  It times each
submodule's import, then wraps every public function named in LAYERS, both
where it is defined and wherever another module (or the package namespace)
re-binds it with `from .x import y`.  Each call becomes a span (name, start,
end, parent) kept in flat arrays; `dump()` writes them out with the layer
counters at exit.  A name listed in LAYERS that the module no longer defines
raises TracerError: a layer's metrics must never go silently missing.
"""

import functools
import importlib
import importlib.abc
import importlib.machinery
import inspect
import pickle
import sys
import time
from array import array

PACKAGE = "cubedecomp"

# Layer = module.  Every public function of each module, by name.
LAYERS = {
    "series": (
        "series_from_list", "mobius_series", "auxiliary_counts", "decomposition_counts",
        "decomposition_series", "refined_counts",
    ),
    "number_theory": (
        "factorize", "mobius", "mobius_d", "mobius_d_values", "dirichlet_convolve",
        "mobius_d_by_convolution", "divisors", "mobius_cached",
    ),
    "geometry": (
        "unit_region", "trivial_decomposition", "split", "split_decomposition",
        "grid_decomposition", "region_contains", "regions_overlap", "scale_map", "volume",
        "is_split_generated", "refines_grid", "lcm_of", "gcd_of", "restrict_rescale",
        "enumerate_decompositions_up_to", "enumerate_decompositions",
        "decomposition_to_json_dict", "decomposition_from_json_dict",
    ),
    "covering": (
        "make_class", "trivial_necs", "split_class", "split_necs", "classes_intersect",
        "is_exact_cover", "necs_gcd", "necs_lcm", "enumerate_necs_up_to", "enumerate_necs",
        "phi", "necs_to_json_dict", "necs_from_json_dict",
    ),
    "trees": (
        "is_leaf", "leaf_count", "validate_tree", "enumerate_trees", "tree_counts", "psi",
        "format_tree", "parse_tree", "tree_to_json", "tree_from_json",
    ),
    "prime_sequences": (
        "set_weight", "set_sign", "sequence_weight", "sequence_sign", "enumerate_B",
        "iter_sequences", "enumerate_A", "signed_sum", "first_even_set", "find_oar",
        "involution", "is_reduced", "enumerate_A_tilde", "ratio_injection",
        "sequence_to_json", "sequence_from_json",
    ),
    "lcm_counts": ("g_count", "h_count"),
    "asymptotics": (
        "eval_M", "eval_M_prime", "eval_M_second", "saddle_bracket", "find_saddle",
        "log_asymptotic_estimate", "asymptotic_estimate", "check_growth_bounds",
    ),
    "cli": ("build_parser", "main"),
}

# Layer counters beyond calls and self time, and what feeds them.
COUNTERS = (
    "series.coeffs", "series.max_bits", "number_theory.max_n", "geometry.objects",
    "covering.objects", "trees.objects", "prime_sequences.sequences", "lcm_counts.max_bits",
    "asymptotics.evals", "asymptotics.max_tail",
)


class TracerError(RuntimeError):
    """A wrapped name is missing: the layer's metrics would silently vanish."""


class Tracer:
    """Spans in flat arrays: span i is names[i], starts[i], ends[i], parents[i]."""

    def __init__(self):
        self.span_names = []            # span name table; spans store indices into it
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts = {name: 0 for name in COUNTERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.unlisted = []

    def _name_id(self, name: str) -> int:
        self.span_names.append(name)
        return len(self.span_names) - 1

    def _open(self, name_id: int) -> int:
        i = len(self.names)
        self.names.append(name_id)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    # ------------------------------------------------------------ imports

    def timed_exec(self, layer: str, exec_module):
        name_id = self._name_id(f"{layer}.import")

        def exec_with_span(module):
            i = self._open(name_id)
            try:
                exec_module(module)
            finally:
                self._close(i)

        return exec_with_span

    # ------------------------------------------------------------ calls

    def wrap(self, layer: str, name: str, fn):
        name_id = self._name_id(f"{layer}.{name}")
        count = _counter(self, layer, name)
        calls = self.calls

        if inspect.isgeneratorfunction(fn):
            # The consumer interleaves with the generator, so it gets no span of its
            # own: its frames run inside the caller's span.  A recursive generator
            # (iter_sequences) reaches its nested levels through this wrapper too;
            # only the outermost level counts a call and the items its caller gets.
            depth = [0]

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                outermost = depth[0] == 0
                if outermost:
                    calls[layer] += 1
                items = fn(*args, **kwargs)
                while True:
                    depth[0] += 1
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        depth[0] -= 1
                    if outermost:
                        count(args, item)
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[layer] += 1
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            count(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            pickle.dump({
                "span_names": self.span_names, "names": self.names, "parents": self.parents,
                "starts": self.starts, "ends": self.ends, "counts": self.counts,
                "calls": self.calls, "unlisted": self.unlisted,
            }, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _objects(result, kinds) -> int:
    if isinstance(result, kinds):
        return 1
    if isinstance(result, dict):
        return sum(_objects(v, kinds) for v in result.values())
    if isinstance(result, (set, frozenset, list)):
        return sum(1 for item in result if isinstance(item, kinds))
    return 0


def _counter(tracer: Tracer, layer: str, name: str):
    """The function that updates the layer's counters from a call's arguments and result."""
    counts = tracer.counts
    if layer == "series":
        def count(args, result):
            coeffs = result.coeffs if hasattr(result, "coeffs") else result
            counts["series.coeffs"] += len(coeffs)
            counts["series.max_bits"] = max(counts["series.max_bits"], _bits(coeffs))
    elif layer == "number_theory":
        def count(args, result):
            ints = [a for a in args if type(a) is int]
            if ints:
                counts["number_theory.max_n"] = max(counts["number_theory.max_n"], *ints)
    elif layer in ("geometry", "covering", "trees"):
        from cubedecomp.covering import Necs
        from cubedecomp.geometry import Decomposition
        kinds = {"geometry": Decomposition, "covering": Necs,
                 "trees": (Decomposition, tuple)}[layer]
        key = f"{layer}.objects"

        def count(args, result):
            counts[key] += _objects(result, kinds)
    elif layer == "prime_sequences" and name == "iter_sequences":
        # sequences handed to iter_sequences' outside callers, not its own recursion
        def count(args, item):
            counts["prime_sequences.sequences"] += 1
    elif layer == "lcm_counts":
        def count(args, result):
            counts["lcm_counts.max_bits"] = max(counts["lcm_counts.max_bits"],
                                                abs(result).bit_length())
    elif layer == "asymptotics" and name.startswith("eval_M"):
        def count(args, result):
            counts["asymptotics.evals"] += 1
    elif layer == "asymptotics" and name == "find_saddle":
        def count(args, result):
            counts["asymptotics.max_tail"] = max(counts["asymptotics.max_tail"],
                                                 result.tail_bound_used)
    else:
        def count(args, result):
            pass
    return count


class _ImportTimer(importlib.abc.MetaPathFinder):
    """Gives each cubedecomp submodule's execution an import span of its layer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None and spec.loader is not None:
            layer = fullname.rpartition(".")[2] if fullname != PACKAGE else "package"
            spec.loader.exec_module = self.tracer.timed_exec(layer, spec.loader.exec_module)
        return spec


def install() -> Tracer:
    """Import the package under import spans and wrap every listed public function."""
    if PACKAGE in sys.modules:
        raise TracerError(f"{PACKAGE} was imported before the tracer was installed")
    tracer = Tracer()
    finder = _ImportTimer(tracer)
    sys.meta_path.insert(0, finder)
    try:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    finally:
        sys.meta_path.remove(finder)
    package = sys.modules[PACKAGE]
    namespaces = list(modules.values()) + [package]

    missing = [f"{layer}.{name}" for layer, names in LAYERS.items()
               for name in names if not callable(getattr(modules[layer], name, None))]
    if missing:
        raise TracerError("traced public names not found: " + ", ".join(missing))

    for layer, module in modules.items():
        listed = set(LAYERS[layer])
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and name not in listed):
                tracer.unlisted.append(f"{layer}.{name}")
        for name in LAYERS[layer]:
            original = getattr(module, name)
            traced = tracer.wrap(layer, name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, traced)
    if tracer.unlisted:
        print("tracer: public functions not in LAYERS (their time goes to the caller): "
              + ", ".join(tracer.unlisted), file=sys.stderr)
    return tracer
