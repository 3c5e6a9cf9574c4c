"""Per-layer self time and call counts, recorded from outside the package.

``LayerTracer`` replaces the public functions and methods listed below
with wrappers.  A module-level function is replaced under every name
that refers to it in any planarsig module, because callers look names up
in their own module: ``fibration`` calls the ``wall_correction`` it
imported, not ``planarsig.wall.wall_correction``.

A timed wrapper records calls and self time: the time inside the call
minus the time inside the timed calls it makes.  A counted wrapper
records calls only and adds no timing, so its time stays in its
caller's self time.  ``sizes`` keeps the largest object sizes read from
return values.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

TIMED = {
    "cli": ["load_document", "assemble_report", "cmd_compute", "cmd_fuzz"],
    "fibration": [
        "PlanarFibration.__init__",
        "PlanarFibration.cycle_span_dim",
        "PlanarFibration.betti_report",
    ],
    "wall": [
        "mapping_torus_boundary_map",
        "lplus_kernel",
        "standard_triple",
        "WallTriple.__post_init__",
        "wall_correction",
        "lplus_closed_form",
        "psi_gram_closed_form",
    ],
    "linalg": [
        "Subspace.__and__",
        "Subspace.__add__",
        "Subspace.__init__",
        "quotient_basis",
        "solve_many",
        "symmetric_signature",
        "RationalMatrix.rank",
        "RationalMatrix.kernel",
    ],
    "surfaces": ["TorusBoundarySpace.pair", "PlanarSurface.class_vector"],
    "properties": ["check_fibration", "random_fibration"],
}
COUNTED = {"linalg": ["RationalMatrix.__init__", "vector"]}

SIZES = {"wall.w_dim": "count", "wall.psi_max_bits": "bits", "wall.boundary_map_max_bits": "bits"}

# Names only one kind of op reaches; every other name must record calls
# on every workload.
ONLY_FOR = {
    "fuzz": {
        "cli.cmd_fuzz",
        "properties.check_fibration",
        "properties.random_fibration",
        "wall.lplus_closed_form",
        "wall.psi_gram_closed_form",
    },
    "compute": {"cli.load_document", "cli.assemble_report", "cli.cmd_compute"},
}

PACKAGE_MODULES = ("__init__", "cli", "fibration", "wall", "linalg", "surfaces", "properties")


def _keys(table: dict[str, list[str]]) -> list[str]:
    return [f"{module}.{name}" for module, names in table.items() for name in names]


TIMED_KEYS = _keys(TIMED)
COUNTED_KEYS = _keys(COUNTED)


def required_keys(command: str) -> list[str]:
    """Wrapped names that an op of this command must call."""
    skipped = set().union(*(keys for other, keys in ONLY_FOR.items() if other != command))
    return [k for k in TIMED_KEYS + COUNTED_KEYS if k not in skipped]


def max_bits(entries) -> int:
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in entries),
        default=0,
    )


def _matrix_entries(M):
    return (M[i, j] for i in range(M.n_rows) for j in range(M.n_cols))


def _wall_sizes(result, sizes):
    sizes["wall.w_dim"] = max(sizes["wall.w_dim"], result.w_dim)
    sizes["wall.psi_max_bits"] = max(sizes["wall.psi_max_bits"], max_bits(_matrix_entries(result.psi)))


def _boundary_map_sizes(result, sizes):
    bits = max_bits(_matrix_entries(result.matrix))
    sizes["wall.boundary_map_max_bits"] = max(sizes["wall.boundary_map_max_bits"], bits)


SIZE_HOOKS = {
    "wall.wall_correction": _wall_sizes,
    "wall.mapping_torus_boundary_map": _boundary_map_sizes,
}


class LayerTracer:
    """Installs the wrappers on ``install`` and takes them out on ``remove``."""

    def __init__(self):
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.sizes: Counter[str] = Counter({k: 0 for k in SIZES})
        self._child_ns = [0]  # time spent in timed callees, per open frame
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, key, fn):
        clock = time.perf_counter_ns
        child_ns = self._child_ns
        self_ns, calls, sizes = self.self_ns, self.calls, self.sizes
        hook = SIZE_HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[key] += elapsed - child_ns.pop()
                calls[key] += 1
                child_ns[-1] += elapsed
            if hook is not None:
                hook(result, sizes)
            return result

        return wrapper

    def _counted(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = {
            name: importlib.import_module(
                "planarsig" if name == "__init__" else f"planarsig.{name}"
            )
            for name in PACKAGE_MODULES
        }
        for keys, make in ((TIMED_KEYS, self._timed), (COUNTED_KEYS, self._counted)):
            for key in keys:
                module_name, _, qualname = key.partition(".")
                owner_name, _, method = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(modules[module_name], owner_name)
                    original = vars(owner)[method]
                    self._patch(owner, method, make(key, original))
                    continue
                original = getattr(modules[module_name], qualname)
                wrapper = make(key, original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_metrics(self_ns: Counter, calls: Counter, sizes: Counter, timed_ops: int,
                  counted_ops: int) -> dict[str, tuple[float, str]]:
    """Per-op self time over ``timed_ops`` ops, per-op calls over
    ``counted_ops`` ops, and the sizes, as {name: (value, unit)}."""
    out: dict[str, tuple[float, str]] = {}
    for key in TIMED_KEYS:
        out[f"{key}.self_ms"] = (self_ns[key] / timed_ops / 1e6, "ms")
        out[f"{key}.calls"] = (calls[key] / counted_ops, "count")
    for key in COUNTED_KEYS:
        out[f"{key}.calls"] = (calls[key] / counted_ops, "count")
    for key, unit in SIZES.items():
        out[key] = (sizes[key], unit)
    return out

