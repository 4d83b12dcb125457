"""What a world fork copies and what it shares.

A world fork (``Simnet.fork``) is one ``copy.deepcopy`` of the network.
Values nothing mutates once they are built derive from ``Shared`` and
deep-copy to themselves, so every fork shares them: declared message and
record values (``wire.Checked``), keypairs, groups, dealings, the proof
backend, latency models, timer configs and party and miner behaviors.
Each mutable world class declares with ``copier`` how a fork copies each
of its attributes:

* ``share``: immutable values (str, int, bytes, tuples of immutables,
  ``Shared`` values), kept as they are;
* ``copy``: containers of immutables, copied shallowly (``None`` stays
  ``None``), once per fork, so a container two objects hold stays one.
  A ``Counter`` is copied as a dict is, without running
  ``Counter.__init__``, which costs several times the copy itself.

Every other attribute, a nested mutable object or one a class has not
yet declared, is deep-copied through the fork's memo, so an object
several parts of the world hold stays one object and a new attribute is
never shared by mistake.
"""

from __future__ import annotations

from collections import Counter
from copy import deepcopy


class Shared:
    """A value nothing mutates once it is built: world forks share it."""

    __slots__ = ()

    def __deepcopy__(self, memo):
        return self


def _copy(value, memo):
    if value is None:
        return None
    clone = memo.get(id(value))
    if clone is None:
        # the original outlives the fork, so its id names it throughout
        if type(value) is Counter:
            clone = Counter.__new__(Counter)
            dict.update(clone, value)
        else:
            clone = value.copy()
        memo[id(value)] = clone
    return clone


def _deep(value, memo):
    """value deep-copied through memo: a list's items and a dict's values
    are copied in turn (dict keys are immutable and shared); an object
    with a ``__deepcopy__`` hook is copied by it; anything else by
    ``copy.deepcopy``."""
    clone = memo.get(id(value))
    if clone is not None:
        return clone
    cls = type(value)
    if cls is dict:
        clone = memo[id(value)] = {}
        for k, v in value.items():
            clone[k] = _deep(v, memo)
        return clone
    if cls is list:
        clone = memo[id(value)] = []
        clone.extend([_deep(v, memo) for v in value])
        return clone
    hook = getattr(cls, "__deepcopy__", None)
    if hook is None:
        return deepcopy(value, memo)
    clone = hook(value, memo)
    if clone is not value:
        memo[id(value)] = clone
    return clone


def copier(share: str = "", copy: str = ""):
    """A ``__deepcopy__`` that copies each attribute as its group names it
    (space-separated attribute names per group) and deep-copies any other."""
    shared = frozenset(share.split())
    how = dict.fromkeys(copy.split(), _copy)

    def __deepcopy__(self, memo):
        cls = type(self)
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        state = self.__dict__
        copied = state.copy()
        for k, v in state.items():
            if k not in shared:
                copied[k] = how.get(k, _deep)(v, memo)
        clone.__dict__ = copied
        return clone

    return __deepcopy__
