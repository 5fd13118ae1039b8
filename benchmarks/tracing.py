"""Per-layer tracing by wrapping public functions of `hypertree_spectra`.

Each wrapped function records its call count and self time: the span's
duration minus the part covered by the spans of wrapped functions it
called.  Its inclusive time (outermost spans only, so recursion is not
counted twice) is kept too, to compare with a profiler's cumulative time.
A wrapper replaces the function on its own module and on every module of
the package that imported it by name, so calls through `from .x import f`
are traced too.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "hypertree_spectra"

# layer (module) -> wrapped public functions
TRACED = {
    "hypergraph": ("validate", "canonical_code", "connected_components", "is_acyclic"),
    "matching": ("matching_counts",),
    "polynomials": (
        "isolate_real_roots",
        "refine_isolating",
        "count_real_roots",
        "sturm_chain",
        "poly_gcd",
    ),
    "spectral": ("spectral_radius_polyroot", "spectral_radius_power", "apply_adjacency"),
    "constructions": ("rho_bound", "build_A"),
    "enumeration": ("enumerate_hypertrees", "enumerate_T_mkr", "attach_pendent"),
    "transforms": ("compare_order",),
    "harness": ("verify_extremal",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Call counts and self times of the wrapped functions, kept in memory."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.power_iterations = 0
        self.classes: dict[tuple, int] = {}  # enumerate_hypertrees args -> classes
        self.missing: list[str] = []
        self.active = True
        self._child_time: list[float] = []  # one slot per open span
        self._open: dict[str, int] = defaultdict(int)

    def _enter(self, name: str) -> float:
        self._child_time.append(0.0)
        self._open[name] += 1
        return perf_counter()

    def _leave(self, name: str, t0: float) -> None:
        elapsed = perf_counter() - t0
        self.self_s[name] += elapsed - self._child_time.pop()
        self._open[name] -= 1
        if not self._open[name]:
            self.total_s[name] += elapsed
        if self._child_time:
            self._child_time[-1] += elapsed

    def _record(self, name: str, args: tuple, result) -> None:
        if name == "spectral.spectral_radius_power":
            self.power_iterations += getattr(result, "iterations", 0)
        elif name == "enumeration.enumerate_hypertrees":
            self.classes[args] = len(result)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # time each resume; the span is the sum of the pieces
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not self.active:
                    yield from gen
                    return
                self.calls[name] += 1
                while True:
                    t0 = self._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._leave(name, t0)
                    yield item

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                self.calls[name] += 1
                t0 = self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._leave(name, t0)
                self._record(name, args, result)
                return result

        # functools.wraps does not copy the methods of an lru_cache wrapper
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Patch every traced function wherever the package holds it by name."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{layer}.{fn_name}")
                    continue
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def classes_per_candidate(self) -> float:
        """Distinct classes enumerated per pendant-attachment candidate."""
        candidates = self.calls.get("enumeration.attach_pendent", 0)
        return sum(self.classes.values()) / candidates if candidates else 0.0
