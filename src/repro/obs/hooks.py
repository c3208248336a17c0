"""Hook fan-out so independent observers share one callback slot.

``SSD.gc_hook`` fires after every GC episode.  Before this module there
was exactly one slot, so the differential oracle's invariant checker
and any other post-GC observer fought over it.  :class:`HookMux` is a
callable list: the device owns one, observers register, and a single
``if hooks:`` test on the GC path dispatches to all of them in
registration order.

The mux is intentionally dumb — no priorities, no exception swallowing.
An invariant checker *wants* its ``AssertionError`` to propagate and
kill the run at the GC that broke the state; purely observational
hooks should never raise at all.
"""

from __future__ import annotations

from typing import Callable, List


class HookMux:
    """An ordered, callable collection of ``fn(ssd)`` hooks."""

    __slots__ = ("_hooks",)

    def __init__(self) -> None:
        self._hooks: List[Callable] = []

    def add(self, hook: Callable) -> Callable:
        """Register ``hook``; returns it (decorator-friendly)."""
        self._hooks.append(hook)
        return hook

    def remove(self, hook: Callable) -> None:
        """Unregister ``hook`` (ValueError if absent)."""
        self._hooks.remove(hook)

    def __call__(self, *args, **kwargs) -> None:
        for hook in self._hooks:
            hook(*args, **kwargs)

    def __len__(self) -> int:
        return len(self._hooks)

    def __bool__(self) -> bool:
        return bool(self._hooks)

    def __contains__(self, hook: Callable) -> bool:
        return hook in self._hooks
