"""In-memory span tracer that wraps a package's public callables at runtime.

`Tracer.install` replaces the public functions of the given modules, and the
public methods and properties of the classes they define, with wrappers that
record one `Span` per call: name, start, end, parent span and run id. Module
globals (and dict values held in them) that refer to a wrapped function are
repointed too, so `from .solver import solve` in another module is traced as
well. `Tracer.uninstall` puts every original back. Nothing in the traced
package is edited on disk.

Generator functions are left unwrapped: their body runs when the caller
iterates, so its time shows up as the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import types
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "run", "start", "end", "child_time",
                 "error", "extra")

    def __init__(self, name: str, parent: "Span | None", run: int):
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = self.child_time = 0.0
        self.error = False
        self.extra = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by child spans (which never
        overlap: the traced program is single-threaded)."""
        return self.duration - self.child_time


def _public(name: str) -> bool:
    return not name.startswith("_")


class Tracer:
    """Collects spans from wrapped callables; `run` tags the spans of one
    workload run. `observe` maps a span name to a function of the call's
    result whose value is kept in `Span.extra`."""

    def __init__(self, observe: dict | None = None):
        self.spans: list[Span] = []
        self.run = -1
        self.observe = dict(observe or {})
        self._stack: list[Span] = []
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self.observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.run)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
                spans.append(span)
            if observe is not None:
                span.extra = observe(result)
            return result

        return traced

    def _wrap_class(self, layer: str, cls: type, wanted) -> None:
        for attr, value in list(vars(cls).items()):
            if not _public(attr):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if not wanted(name):
                continue
            if isinstance(value, property) and value.fget is not None:
                new = property(self._wrap(name, value.fget), value.fset,
                               value.fdel, value.__doc__)
            elif isinstance(value, (classmethod, staticmethod)):
                new = type(value)(self._wrap(name, value.__func__))
            elif isinstance(value, types.FunctionType) \
                    and not inspect.isgeneratorfunction(value):
                new = self._wrap(name, value)
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append(functools.partial(setattr, cls, attr, value))

    def install(self, traced_modules, all_modules, only=None) -> None:
        """Wrap the public callables of `traced_modules` (span names are
        `<module>.<function>` and `<module>.<Class>.<member>`), restricted
        to the names in `only` when given, and repoint references to them
        held anywhere in `all_modules`."""
        if self._undo:
            raise RuntimeError("tracer is already installed")

        def wanted(name):
            return only is None or name in only

        wrapped = {}
        for mod in traced_modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if not _public(attr) or getattr(value, "__module__", None) \
                        != mod.__name__:
                    continue
                if isinstance(value, type):
                    if not issubclass(value, BaseException):
                        self._wrap_class(layer, value, wanted)
                elif isinstance(value, types.FunctionType) \
                        and not inspect.isgeneratorfunction(value) \
                        and wanted(f"{layer}.{attr}"):
                    wrapped[value] = self._wrap(f"{layer}.{attr}", value)

        def swap(value):
            return isinstance(value, types.FunctionType) and value in wrapped

        for mod in all_modules:
            for attr, value in list(vars(mod).items()):
                if swap(value):
                    setattr(mod, attr, wrapped[value])
                    self._undo.append(functools.partial(setattr, mod, attr, value))
                elif isinstance(value, dict):  # e.g. a dispatch table
                    for key, item in list(value.items()):
                        if swap(item):
                            value[key] = wrapped[item]
                            self._undo.append(
                                functools.partial(value.__setitem__, key, item))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading ----------------------------------------------------------

    def in_run(self, run: int, name: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.run == run and (name is None or s.name == name)]

    def records(self):
        """Spans as JSON-ready dicts, parents given by index, in end order."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        for i, s in enumerate(self.spans):
            yield {"id": i, "name": s.name, "run": s.run,
                   "parent": None if s.parent is None else index[id(s.parent)],
                   "start": s.start, "end": s.end,
                   "self": s.self_time, "error": s.error}
