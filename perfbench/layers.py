"""Wrap the public entry points of each ``repro`` layer with tracer spans.

A function imported by name (``from ..md.vecops import md_mul_rows``) is a
second reference in the importing module's globals, so patching only the
defining module would leave calls through the other names untimed.
:func:`install` therefore replaces *every* reference it finds in the globals
and class dictionaries of the loaded ``repro.*`` modules, then scans them
again and raises if an unwrapped original is still reachable.
:meth:`Installation.restore` puts every original back and checks that no
wrapper is left behind.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import sys
from dataclasses import dataclass
from time import perf_counter_ns

from .tracer import Tracer, layer_of

__all__ = ["install", "Installation", "entry_points"]

#: Modules imported before wrapping, so every by-name binding exists.
MODULES = (
    "repro",
    "repro.md",
    "repro.md.vecops",
    "repro.md.cvecops",
    "repro.md.vrenorm",
    "repro.core",
    "repro.core.tensor",
    "repro.core.context",
    "repro.core.system",
    "repro.homotopy",
    "repro.homotopy.batch_linsolve",
    "repro.homotopy.newton",
    "repro.homotopy.scheduler",
    "repro.service",
    "repro.service.engine",
    "repro.service.fleet",
    "repro.service.pool",
)

_MD_KERNEL = re.compile(r"^(c?md_\w+_rows|vec_renormalize\w*)$")


@dataclass
class _Patch:
    owner: object
    name: str
    original: object


def _md_attrs(args, kwargs, result) -> dict:
    """Elements of the result and the bytes the call reads and writes.

    Kernel arguments are lists of limb arrays (or broadcast scalars) plus the
    limb count; results are one list of limb arrays, or a (real, imaginary)
    pair of them.  Bytes are *computed* from array sizes at the call
    boundary (8 bytes per double); caches and temporaries are not seen.
    """
    planes = result if isinstance(result, tuple) else (result,)
    written = sum(limb.size for plane in planes for limb in plane)
    read = 0
    for arg in args:
        if isinstance(arg, list):
            read += sum(getattr(limb, "size", 1) for limb in arg)
        elif hasattr(arg, "size"):  # a factor array, as in md_scale_rows
            read += arg.size
    return {
        "elements": planes[0][0].size,
        "computed_bytes": 8 * (read + written),
    }


def _tensor_run_attrs(args, kwargs, result) -> dict:
    return {"launches": len(args[0].layers)}


def entry_points():
    """``(span name, owner, attribute)`` for every wrapped entry point.

    Owners are modules (functions) or classes (methods); the span name is
    ``<layer>.<attribute>``.
    """
    from repro.core.context import EvalContext
    from repro.core.system import SystemEvaluator
    from repro.core.tensor import TensorProgram
    from repro.homotopy.scheduler import PathScheduler
    from repro.service.engine import SolveEngine
    from repro.service.pool import ContextPool

    points = []
    for module_name in ("repro.md.vecops", "repro.md.cvecops", "repro.md.vrenorm"):
        module = sys.modules[module_name]
        for name, value in vars(module).items():
            if _MD_KERNEL.match(name) and inspect.isfunction(value) and value.__module__ == module_name:
                points.append((f"md.{name}", module, name))
    tensor = sys.modules["repro.core.tensor"]
    points += [
        ("tensor.run", TensorProgram, "run"),
        ("tensor.convolve_rows", tensor, "convolve_rows"),
        ("tensor.convolve_rows_complex", tensor, "convolve_rows_complex"),
    ]
    for name in ("update_inputs", "_pack", "run", "run_packed", "residual_norms",
                 "newton_system", "unpack_vectors", "rebind", "rebind_fleet", "set_active"):
        points.append((f"context.{name}", EvalContext, name))
    solve = sys.modules["repro.homotopy.batch_linsolve"]
    for name in ("solve_packed", "batch_lu_solve", "batch_lu_solve_tensor",
                 "batch_lu_solve_tensor_complex", "series_inverse_rows",
                 "series_inverse_rows_complex"):
        points.append((f"solve.{name}", solve, name))
    scheduler = sys.modules["repro.homotopy.scheduler"]
    points += [
        ("scheduler.track_paths", scheduler, "track_paths"),
        ("scheduler.track", PathScheduler, "track"),
    ]
    service = sys.modules["repro.service.fleet"]
    points += [
        ("service.submit", SolveEngine, "submit"),
        ("service.flush", SolveEngine, "_solve_bucket"),
        ("service.coalesced_newton", service, "coalesced_newton"),
        ("service.checkout", ContextPool, "checkout"),
        ("service.checkin", ContextPool, "checkin"),
    ]
    system = sys.modules["repro.core.system"]
    points += [
        ("system.evaluator_init", SystemEvaluator, "__init__"),
        ("system.fuse_schedules", system, "fuse_schedules"),
        ("system.schedule_for_polynomial", system, "schedule_for_polynomial"),
        ("system.compile_tensor_program", tensor, "compile_tensor_program"),
    ]
    return points


def _wrap(tracer: Tracer, name: str, fn, labels: dict, attrs=None, observe=None, run_of=None):
    """A span-recording stand-in for ``fn``.

    ``attrs(args, kwargs, result)`` adds span attributes; ``observe(args,
    kwargs, duration_ns)`` sees the finished call; ``run_of(args)`` names the
    request ids the span (and every span it causes) works for.  Coroutine
    functions get a detached span labelled with their first argument's
    request id.
    """
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def detached(self, request, *args, **kwargs):
            start = perf_counter_ns()
            try:
                return await fn(self, request, *args, **kwargs)
            finally:
                tracer.detached(name, start, perf_counter_ns(), labels.get(id(request)))

        return detached

    layer = layer_of(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(name, layer)
        if run_of is not None:
            frame.run = run_of(args)
        result = None
        try:
            result = fn(*args, **kwargs)
        finally:
            annotate = None if attrs is None or result is None else (
                lambda: attrs(args, kwargs, result)
            )
            duration = tracer.end(frame, annotate)
        if observe is not None:
            observe(args, kwargs, duration)
        return result

    return wrapper


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _namespaces():
    """Every globals dict and class dict of the loaded ``repro`` modules."""
    for module in _repro_modules():
        yield module, vars(module)
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value, vars(value)


class Installation:
    """The wrappers in place; :meth:`restore` undoes all of them."""

    def __init__(self, patches: list[_Patch], originals: list, wrappers: list):
        self.patches = patches
        # Keyed by id(); the lists keep the objects alive so ids stay unique.
        self._originals = originals
        self._wrappers = wrappers
        self.originals = {id(function) for function in originals}
        self.wrappers = {id(function) for function in wrappers}

    def unwrapped(self) -> list[str]:
        """``owner.name`` of every reference still holding an original."""
        found = []
        for owner, namespace in _namespaces():
            for key, value in list(namespace.items()):
                if id(value) in self.originals:
                    found.append(f"{getattr(owner, '__name__', owner)}.{key}")
        return found

    def leftover_wrappers(self) -> list[str]:
        found = []
        for owner, namespace in _namespaces():
            for key, value in list(namespace.items()):
                if id(value) in self.wrappers:
                    found.append(f"{getattr(owner, '__name__', owner)}.{key}")
        return found

    def restore(self) -> None:
        for patch in reversed(self.patches):
            setattr(patch.owner, patch.name, patch.original)
        self.patches = []
        leftover = self.leftover_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left after restore: {leftover}")


def install(tracer: Tracer, labels: dict | None = None, points=None) -> Installation:
    """Wrap every entry point and every by-name reference to it.

    ``labels`` maps ``id(object)`` to a request id: an asyncio entry point
    records its span under the label of its first argument, and
    ``service.coalesced_newton`` lists the labels of the initial vectors it
    was handed.  Raises if any original stays reachable after installing.
    """
    for module_name in MODULES:
        importlib.import_module(module_name)
    labels = {} if labels is None else labels
    points = entry_points() if points is None else points
    special = {
        "tensor.run": _tensor_run_attrs,
        "service.coalesced_newton": lambda args, kwargs, result: {
            "fill": len(args[1]),
            "requests": [labels.get(id(initial)) for initial in args[2]],
        },
    }

    def _bucket_requests(args):
        # SolveEngine._solve_bucket(self, bucket): the bucket's request ids.
        return ",".join(labels.get(id(item[0]), "warm-up") for item in args[1].items)

    def _solve_time_per_request(args, kwargs, duration_ns):
        for initial in args[2]:
            tracer.request_solve_ns[labels.get(id(initial))] = duration_ns

    replacement: dict[int, object] = {}
    originals, wrappers = [], []
    for span, owner, attribute in points:
        original = vars(owner)[attribute]
        if id(original) in replacement:
            continue
        attrs = _md_attrs if span.startswith("md.") else special.get(span)
        observe = _solve_time_per_request if span == "service.coalesced_newton" else None
        run_of = _bucket_requests if span == "service.flush" else None
        wrapper = _wrap(
            tracer, span, original, labels, attrs=attrs, observe=observe, run_of=run_of
        )
        replacement[id(original)] = wrapper
        originals.append(original)
        wrappers.append(wrapper)
    patches: list[_Patch] = []
    for owner, namespace in _namespaces():
        for key, value in list(namespace.items()):
            wrapper = replacement.get(id(value))
            if wrapper is not None:
                patches.append(_Patch(owner, key, value))
                setattr(owner, key, wrapper)
    installation = Installation(patches, originals, wrappers)
    missing = installation.unwrapped()
    if missing:
        installation.restore()
        raise RuntimeError(f"unwrapped originals remain after install: {missing}")
    return installation
