"""Child → owner callbacks that do not keep the owner alive.

A run's object graph is owned one way: the run driver holds the engine and
the server, the server holds its components.  A component that calls back
into its owner (the scheduler publishing an assignment to its server, the
Eq. 2 monitor subscribing to the worker table) holds a :func:`weak_method`
of the owner's method instead of the bound method, so no cycle forms and
reference counting frees the whole graph when the driver drops it.
"""

from __future__ import annotations

import weakref
from types import MethodType
from typing import Callable, ParamSpec, TypeVar

__all__ = ["weak_method"]

P = ParamSpec("P")
R = TypeVar("R")


def weak_method(method: Callable[P, R]) -> Callable[P, R]:
    """``method`` as a callable that holds its ``__self__`` weakly.

    Calling it after the owner is gone raises :class:`ReferenceError`: a
    child that outlives its owner has nothing left to report to.
    """
    assert isinstance(method, MethodType), "weak_method takes a bound method"
    func = method.__func__
    owner = weakref.ref(method.__self__)

    def call(*args: P.args, **kwargs: P.kwargs) -> R:
        target = owner()
        if target is None:
            raise ReferenceError(f"the owner of {func.__qualname__} is gone")
        return func(target, *args, **kwargs)

    return call
