"""Plan-local ids: each lowering numbers its own plan.

IUs, operators, tasks and IR instructions draw their ids from the
numbering of the lowering that makes them, one counter per kind, so a
plan's ids, Tagging Dictionary and generated code depend on what was
lowered, not on what the process lowered before.  :func:`lowering` opens
one wherever a plan is built — a ``with`` block, or a decorator that
gives each call its own — and a context variable carries it through
bind, plan, decompose, codegen and backend.  Drawing an id outside a
lowering is an error.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial

from repro.errors import ReproError

_current: ContextVar = ContextVar("numbering")


class Numbering(defaultdict):
    """One lowering's ids: a counter per kind, each from 1."""

    def __init__(self):
        super().__init__(partial(itertools.count, 1))


@contextmanager
def lowering(numbering: Numbering | None = None):
    """Draw the ids made inside from ``numbering``, a fresh one by default."""
    token = _current.set(Numbering() if numbering is None else numbering)
    try:
        yield
    finally:
        _current.reset(token)


def draw(kind: str) -> int:
    """The next ``kind`` id of the current lowering."""
    numbering = _current.get(None)
    if numbering is None:
        raise ReproError(f"a {kind} id was drawn outside a lowering")
    return next(numbering[kind])
