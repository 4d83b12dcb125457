"""What a world fork copies and what it shares.

A world fork (``Simnet.fork``) is one ``copy.deepcopy`` of the network.
Each mutable world class installs a ``copier``, which treats each
attribute by its value:

* shared: a value of an immutable builtin type (str, int, float, bool,
  bytes, None, frozenset, or a plain tuple, which in a world holds only
  immutables), or a ``Shared`` value, one nothing mutates once it is
  built: a declared message or record (``wire.Checked``), a keypair,
  group, dealing, proof backend, latency model, timer config or behavior;
* copied: a container the class names in its copy list, copied shallowly
  once per fork, so a container two objects hold stays one. Only a
  declaration can say that nothing mutates a container's contents (a
  trace of dicts, a dict of keypairs). A ``Counter`` is copied as a dict
  is, without running ``Counter.__init__``, which costs several times
  the copy itself;
* deep: anything else, deep-copied through the fork's memo, so an object
  several parts of the world hold stays one object and an attribute no
  class declared is never shared by mistake.
"""

from __future__ import annotations

from collections import Counter
from copy import deepcopy


class Shared:
    """A value nothing mutates once it is built: world forks share it."""

    __slots__ = ()

    def __deepcopy__(self, memo):
        return self


# the builtin types whose values every fork shares
IMMUTABLE = frozenset((str, int, float, bool, bytes, type(None), frozenset, tuple))


def _copy(value, memo):
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


def copier(copy: str = ""):
    """A ``__deepcopy__`` that shares each immutable or ``Shared`` attribute,
    copies shallowly each container named in copy (space-separated
    attribute names) and deep-copies any other."""
    how = dict.fromkeys(copy.split(), _copy)

    def __deepcopy__(self, memo):
        cls = type(self)
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        state = self.__dict__
        copied = state.copy()
        for k, v in state.items():
            if type(v) not in IMMUTABLE and not isinstance(v, Shared):
                copied[k] = how.get(k, _deep)(v, memo)
        clone.__dict__ = copied
        return clone

    __deepcopy__.copies = tuple(how)
    return __deepcopy__
