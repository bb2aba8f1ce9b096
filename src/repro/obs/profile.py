"""Op-level profiler for the :mod:`repro.nn` autograd engine.

:class:`Profiler` answers "where does a forward/backward pass spend its
time" without touching model code, by installing two hooks for the
duration of a ``with`` block:

* **forward** — :class:`repro.nn.Module.__call__` is wrapped, so every
  module invocation records wall time (total and *self*, i.e. minus
  nested children), a call count, and the bytes of the output array it
  produced. Rows are keyed by module class (``Linear``, ``LayerNorm``,
  ``HeteroConvLayer``, ...).
* **backward** — :meth:`repro.nn.tensor.Tensor._make` is wrapped so
  every backward closure recorded on the tape is timed when the tape
  unwinds; rows are keyed by the op that created the closure
  (``matmul``, ``segment_softmax``, ...) with the gradient bytes it
  received.

Hooks are process-global (they patch the classes), so profilers do not
nest; entering a second one raises. Everything restores on exit even
if the profiled block throws.

Typical use::

    with Profiler() as prof:
        loss = model.loss(graph, batch)
        loss.backward()
    for record in prof.records("backward")[:10]:
        print(record.name, record.calls, record.total_s)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["OpRecord", "Profiler"]

_active_lock = threading.Lock()
_active_profiler: Optional["Profiler"] = None


@dataclass
class OpRecord:
    """Accumulated cost of one module class or backward op."""

    phase: str  # "forward" | "backward"
    name: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0


@dataclass
class _Frame:
    """One live module invocation on a thread's forward stack."""

    name: str
    child_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


def _backward_op_name(backward: Callable) -> str:
    """Derive the op name from a backward closure's qualname.

    Closures are defined as ``<op>.<locals>.backward`` (methods:
    ``Tensor.__add__.<locals>.backward``); the op segment is the one
    before ``<locals>``. Dunders lose their underscores (``__add__`` →
    ``add``).
    """
    qualname = getattr(backward, "__qualname__", "") or ""
    parts = qualname.split(".")
    name = ""
    for index, part in enumerate(parts):
        if part == "<locals>" and index > 0:
            name = parts[index - 1]
    if not name:
        name = parts[-1] if parts else "op"
    return name.strip("_") or "op"


class Profiler:
    """Context manager that hooks Module forward and Tensor backward.

    Parameters
    ----------
    clock:
        Injectable time source (``time.perf_counter`` by default).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._records: Dict[Tuple[str, str], OpRecord] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._original_call = None
        self._original_make = None

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, phase: str, name: str, elapsed: float, self_s: float, nbytes: int) -> None:
        key = (phase, name)
        with self._lock:
            record = self._records.get(key)
            if record is None:
                record = OpRecord(phase=phase, name=name)
                self._records[key] = record
            record.calls += 1
            record.total_s += elapsed
            record.self_s += self_s
            record.bytes += nbytes

    # -- hook installation ----------------------------------------------
    def __enter__(self) -> "Profiler":
        global _active_profiler
        from ..nn.module import Module
        from ..nn.tensor import Tensor

        with _active_lock:
            if _active_profiler is not None:
                raise RuntimeError("a Profiler is already active; profilers do not nest")
            _active_profiler = self

        profiler = self
        clock = self._clock
        original_call = Module.__call__
        original_make = Tensor._make  # staticmethod resolves to the plain function

        def profiled_call(module, *args, **kwargs):
            stack = profiler._stack()
            frame = _Frame(type(module).__name__)
            stack.append(frame)
            started = clock()
            try:
                out = original_call(module, *args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
            nbytes = int(getattr(getattr(out, "data", None), "nbytes", 0))
            profiler._record("forward", frame.name, elapsed, elapsed - frame.child_s, nbytes)
            return out

        def profiled_make(data, parents, backward):
            op = _backward_op_name(backward)

            def timed_backward(grad):
                started = clock()
                try:
                    backward(grad)
                finally:
                    elapsed = clock() - started
                    profiler._record(
                        "backward", op, elapsed, elapsed, int(getattr(grad, "nbytes", 0))
                    )

            # Preserve the qualname: ops built on other ops (mean via
            # sum) re-enter profiled_make with the inner closure.
            timed_backward.__qualname__ = getattr(backward, "__qualname__", "backward")
            return original_make(data, parents, timed_backward)

        self._original_call = original_call
        self._original_make = original_make
        Module.__call__ = profiled_call
        Tensor._make = staticmethod(profiled_make)
        return self

    def __exit__(self, *exc_info) -> None:
        global _active_profiler
        from ..nn.module import Module
        from ..nn.tensor import Tensor

        Module.__call__ = self._original_call
        Tensor._make = staticmethod(self._original_make)
        with _active_lock:
            _active_profiler = None

    # -- reporting ------------------------------------------------------
    def records(self, phase: Optional[str] = None) -> List[OpRecord]:
        """Records sorted by total time (descending), optionally one phase."""
        with self._lock:
            rows = list(self._records.values())
        if phase is not None:
            rows = [row for row in rows if row.phase == phase]
        return sorted(rows, key=lambda r: -r.total_s)
