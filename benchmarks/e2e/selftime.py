"""Self-time accounting by wrapping public functions from outside.

A traced benchmark run replaces selected functions and methods with
wrappers that open a *frame* on a stack.  When a frame closes, its layer
is charged its **self time**: the frame's duration minus the time its
wrapped children took.  Summed over layers, self times partition the run,
so no second is counted twice even though layers nest (the selection
loop calls the environment, which calls the store, which runs a detector).

Each wrapper reads the clock four times: on entry, just before the
wrapped call, just after it, and on exit.  The two outer gaps are the
wrapper's own bookkeeping; they are charged to neither the callee nor the
caller but to :attr:`SelfTimer.bookkeeping_s`, so tracing overhead is
reported instead of smeared over the layers.

The stack is a plain list, not thread-local: the benchmark only traces
runs on the serial backend.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from typing import Any

__all__ = ["SelfTimer", "Patcher"]

#: Called after a successful wrapped call, inside bookkeeping time, as
#: ``hook(result, args, kwargs)``.
AfterHook = Callable[[Any, tuple, dict], None]

#: Marks a replaced attribute the owner only inherited.
_INHERITED = object()


class SelfTimer:
    """Charges wall time to named layers on a stack of open frames.

    Args:
        clock: Monotonic clock in seconds; injectable for tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        # One accumulator per open frame: the time its wrapped children
        # took, wrapper bookkeeping included.  Index 0 is the
        # never-closed base frame.
        self._open: list[float] = [0.0]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bookkeeping_s = 0.0

    def call(
        self,
        layer: str,
        fn: Callable[..., Any],
        args: tuple = (),
        kwargs: dict | None = None,
        after: AfterHook | None = None,
        resume: bool = False,
        t0: float | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` as one frame of ``layer``.

        A returned generator is replaced by an iterator whose every resume
        is another frame of the same layer, so work done while the caller
        consumes it is charged to ``layer`` too.  ``resume`` marks such a
        frame: it is not counted as a call and its result is passed
        through untouched.  ``t0`` is the clock reading at the caller's
        entry, so the cost of reaching this method counts as bookkeeping.
        """
        clock = self._clock
        if t0 is None:
            t0 = clock()
        kwargs = {} if kwargs is None else kwargs
        self._open.append(0.0)
        t1 = clock()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            t2 = clock()
            self.self_s[layer] += t2 - t1 - self._open.pop()
            if not resume:
                self.calls[layer] += 1
                if ok:
                    if after is not None:
                        after(result, args, kwargs)
                    if inspect.isgenerator(result):
                        result = _TimedIterator(self, layer, result)
            t3 = clock()
            self._open[-1] += t3 - t0
            self.bookkeeping_s += (t1 - t0) + (t3 - t2)
        return result

    def wrap(
        self, layer: str, fn: Callable[..., Any], after: AfterHook | None = None
    ) -> Callable[..., Any]:
        """A drop-in replacement for ``fn`` that runs it as a frame."""
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(layer, fn, args, kwargs, after, False, clock())

        return wrapper


class _TimedIterator:
    """Consumes a generator one frame per resume."""

    __slots__ = ("_timer", "_layer", "_gen")

    def __init__(self, timer: SelfTimer, layer: str, gen: Iterator[Any]) -> None:
        self._timer = timer
        self._layer = layer
        self._gen = gen

    def __iter__(self) -> _TimedIterator:
        return self

    def __next__(self) -> Any:
        return self._timer.call(self._layer, next, (self._gen,), resume=True)


class Patcher:
    """Replaces attributes of modules and classes, and puts them back.

    Class attributes are read raw (``inspect.getattr_static``), so
    classmethods and staticmethods are re-wrapped as the same kind of
    descriptor.  An attribute a class only inherits is set on the class
    and deleted again on :meth:`restore`, so inheritance resumes.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(
        self,
        owner: object,
        name: str,
        make: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> bool:
        """Set ``owner.name`` to ``make(original function)``.

        Returns False, changing nothing, when ``owner`` has no such
        attribute.
        """
        try:
            raw = inspect.getattr_static(owner, name)
        except AttributeError:
            return False
        own = vars(owner).get(name, _INHERITED)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: object = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)  # type: ignore[arg-type]
        self._undo.append((owner, name, own))
        setattr(owner, name, replacement)
        return True

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._undo:
            owner, name, own = self._undo.pop()
            if own is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
