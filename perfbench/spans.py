"""In-memory spans around the program's public entry points.

The traced pass wraps functions and methods of ``repro`` from outside:
each wrapper records one span (name, layer, start, end, parent) in a
:class:`Recorder`, and the spans are summarised when the pass ends.
Nothing under ``src/`` is modified.  Methods are replaced on the class
that defines them, so which class owns ``predicate``/``build`` (what
``DeltaBuildMixin.supports_batch`` inspects) does not change.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Recorder:
    """Spans kept in memory as ``[name, layer, start, end, parent, attrs]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def annotate(self, idx: int, **attrs: Any) -> None:
        if self.spans[idx][5] is None:
            self.spans[idx][5] = {}
        self.spans[idx][5].update(attrs)


def wrap(rec: Recorder, name: str, layer: str, fn: Callable,
         on_result: Optional[Callable] = None) -> Callable:
    """``fn`` with a span around every call; ``on_result(idx, args,
    kwargs, result)`` may annotate the span after the call returns."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx = rec.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if on_result is not None:
            on_result(idx, args, kwargs, result)
        return result

    return wrapper


class Patcher:
    """Rebinds functions and methods, remembering the originals so that
    :meth:`restore` can put them back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(self, module: Any, attr: str, wrapper: Callable) -> None:
        """Rebind ``module.attr`` and every alias of the same function
        object in loaded ``repro`` modules (``from x import f`` copies
        the binding)."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def method(self, cls: type, attr: str, wrapper: Callable) -> None:
        """Replace a method on the class that defines it."""
        if attr not in vars(cls):
            raise AttributeError(f"{cls.__name__} does not define {attr}")
        self._set(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        for sub in c.__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _outermost(spans: List[list], name: str) -> List[int]:
    """Indices of ``name`` spans not nested inside another ``name`` span."""
    out = []
    for i, span in enumerate(spans):
        if span[0] != name:
            continue
        parent = span[4]
        nested = False
        while parent >= 0:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][4]
        if not nested:
            out.append(i)
    return out


def durations(spans: List[list], name: str) -> List[float]:
    return [spans[i][3] - spans[i][2] for i in _outermost(spans, name)]


def total(spans: List[list], name: str) -> float:
    return sum(durations(spans, name))


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def count(spans: List[list], name: str) -> int:
    return len(_outermost(spans, name))


def attr_sum(spans: List[list], name: str, key: str) -> float:
    return sum((spans[i][5] or {}).get(key, 0) for i in _outermost(spans, name))


def self_times(spans: List[list]) -> Dict[str, float]:
    """Seconds per layer not covered by child spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    out: Dict[str, float] = {}
    for i, span in enumerate(spans):
        out[span[1]] = out.get(span[1], 0.0) + (span[3] - span[2]) - child_time[i]
    return out


def top_level_time(spans: List[list]) -> float:
    return sum(s[3] - s[2] for s in spans if s[4] < 0)


def inferred_in_batches(spans: List[list]) -> int:
    """Pairs answered by ``decide_batch`` without a kernel solve."""
    batch_of: Dict[int, int] = {}
    solved: Dict[int, int] = {}
    for i, span in enumerate(spans):
        if span[0] == "kernels.batch":
            batch_of[i] = int((span[5] or {}).get("decided", 0))
        elif span[0] == "kernels.decide":
            parent = span[4]
            while parent >= 0 and spans[parent][0] != "kernels.batch":
                parent = spans[parent][4]
            if parent >= 0:
                solved[parent] = solved.get(parent, 0) + 1
    return sum(decided - solved.get(i, 0) for i, decided in batch_of.items())


def public_functions(module: Any) -> List[str]:
    """Names in ``module.__all__`` bound to plain functions."""
    return [name for name in module.__all__
            if inspect.isfunction(getattr(module, name, None))]
