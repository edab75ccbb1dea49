"""Per-layer tracing of one tfshell CLI pass, installed from outside the package.

``Tracer.install()`` replaces every public function of every loaded
``tfshell`` module (the names in each module's ``__all__``, plus the two
kernels of ``tfshell._kernels``) with a wrapper that records a span per
call.  The wrapper is put at every module-level name that refers to the
function, so a caller that imported it by name (``cli.tf_energy``,
``asymptotics.tf_energy``) resolves the wrapper just as a caller that looks
it up on its home module (``_kernels.shell_profile``) does.  The package
itself is not edited.

A span's self time is its duration minus the durations of the spans it
encloses, and is charged to the module that defines the wrapped function.
Work that runs outside any wrapped function of its own (methods such as
``HydrogenicDensity.value``) is charged to the enclosing span.  The self
times of all modules therefore add up to the duration of the outermost span,
``cli.main``.

It uses only the standard library.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "tfshell"

# Public functions of modules that have no ``__all__``.
EXTRA_TARGETS = {"_kernels": ("shell_profile", "exp_poly_eval")}

FUNCTIONALS = frozenset({"kedf.tf_energy", "kedf.weizsacker_energy", "kedf.fourth_order_energy"})


class Tracer:
    """Spans, call counts and kernel work counts for one process."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.busy_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.points: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.top_s = 0.0
        self.functional_kernel_points = 0
        self.wrapped: list[str] = []
        self._open: list[list[float]] = []
        self._active: Counter[str] = Counter()
        self._densities: list = []
        self._grid_nodes: dict[tuple, int] | None = None

    # -- installation ----------------------------------------------------

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers: dict[int, object] = {}
        for name, mod in modules.items():
            if name == PACKAGE:
                continue
            short = name[len(PACKAGE) + 1:]
            for attr in (*getattr(mod, "__all__", ()), *EXTRA_TARGETS.get(short, ())):
                func = getattr(mod, attr, None)
                if func is None or isinstance(func, type) or not callable(func):
                    continue
                if getattr(func, "__module__", None) != name or id(func) in wrappers:
                    continue
                wrappers[id(func)] = tracer._wrap(f"{short}.{attr}", short, func)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        tracer.wrapped = sorted(w.span_name for w in wrappers.values())
        tracer._patch_integrate(modules.get(PACKAGE + ".kedf"))
        return tracer

    def _wrap(self, span: str, module: str, func):
        functional = span in FUNCTIONALS
        kernel = span in ("_kernels.shell_profile", "_kernels.exp_poly_eval")

        @functools.wraps(func)
        def traced(*args, **kwargs):
            outermost = self._active[span] == 0
            self._active[span] += 1
            if functional and args:
                self._densities.append(args[0])
            if kernel and len(args) == 3:
                self._count_kernel(span, args)
            children = [0.0]
            self._open.append(children)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._open.pop()
                self._active[span] -= 1
                self.calls[span] += 1
                if outermost:
                    self.busy_s[span] += duration
                self.self_s[module] += duration - children[0]
                if self._open:
                    self._open[-1][0] += duration
                else:
                    self.top_s += duration

        traced.span_name = span
        return traced

    def _count_kernel(self, span: str, args: tuple) -> None:
        n = len(args[2])
        self.points[span] += n
        if span == "_kernels.shell_profile":
            n_max = int(args[1])
            self.work[span] += n * n_max * (n_max + 1) // 2
        else:
            self.work[span] += n * len(args[0])
        if any(self._active[f] for f in FUNCTIONALS):
            self.functional_kernel_points += n

    def _patch_integrate(self, kedf) -> None:
        """Count the distinct (density, grid) nodes the functionals integrate."""
        grid_cls = getattr(kedf, "RadialGrid", None)
        integrate = getattr(grid_cls, "integrate", None)
        if integrate is None:
            return
        self._grid_nodes = {}

        @functools.wraps(integrate)
        def counted(grid, *args, **kwargs):
            # make_grid integrates a test function on each grid it builds;
            # only the functionals' integrals of the density count here
            in_functional = any(self._active[f] for f in FUNCTIONALS)
            if in_functional and not self._active["kedf.make_grid"] and self._densities:
                nodes = grid.nodes
                key = (id(self._densities[-1]), nodes.size, float(nodes[0]), float(nodes[-1]))
                self._grid_nodes[key] = int(nodes.size)
            return integrate(grid, *args, **kwargs)

        grid_cls.integrate = counted

    # -- report ------------------------------------------------------------

    def report(self) -> dict:
        """Plain-data summary of everything recorded so far.

        ``grid_nodes`` is None when ``RadialGrid.integrate`` could not be
        counted, and ``ladder_point`` None when the ladder cache is gone.
        """
        ladder = None
        asymptotics = sys.modules.get(PACKAGE + ".asymptotics")
        cache_info = getattr(getattr(asymptotics, "_ladder_point", None), "cache_info", None)
        if cache_info is not None:
            info = cache_info()
            ladder = {"requested": info.hits + info.misses, "computed": info.misses}
        return {
            "wrapped": self.wrapped,
            "calls": dict(self.calls),
            "busy_s": dict(self.busy_s),
            "self_s": dict(self.self_s),
            "points": dict(self.points),
            "work": dict(self.work),
            "top_s": self.top_s,
            "functional_kernel_points": self.functional_kernel_points,
            "grid_nodes": None if self._grid_nodes is None else sum(self._grid_nodes.values()),
            "ladder_point": ladder,
        }
