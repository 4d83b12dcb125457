"""The sleep-set reduction in schedule enumeration.

Deliveries at the same tick to different actors commute, so
``enumerate_schedules`` tries one order of each such pair. These tests
check the independence rule itself on every close-phase node, and check
the reduced explorer against the reference explorer (which tries every
order) on generated worlds: the same outcome set, never more nodes.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_schedules_copying
from xchan import atomicity
from xchan.forking import Shared
from xchan.simnet import LatencyModel, Simnet, _choices, _independent, _take, enumerate_schedules


class Node:
    """Actor that records the tag of each message it receives and forwards
    the message along the rest of its route."""

    def __init__(self):
        self.got = []

    def on_message(self, net, msg):
        self.got.append(msg.data["tag"])
        route = msg.data["route"]
        if route:
            net.send("hop", msg.dst, route[0], {"tag": msg.data["tag"], "route": route[1:]})


def make_world(actors, latency, messages):
    """A world of `actors` Nodes n0, n1, ...; messages are (dst, route) pairs
    of actor indices, each sent from its own source, so no two share a link."""

    def factory():
        net = Simnet(seed=1, latency=latency, mode="enumerate")
        for i in range(actors):
            net.register("n%d" % i, Node())
        for tag, (dst, route) in enumerate(messages):
            net.send("ping", "x%d" % tag, "n%d" % dst, {"tag": tag, "route": tuple("n%d" % r for r in route)})
        return net

    return factory


def received(net):
    """What each actor received, in its own order; None while anything is
    in flight. It reads no order between deliveries to different actors."""
    if net.pending:
        return None
    return tuple(tuple(actor.got) for actor in net.actors.values())


def assert_reduction_matches(factory, outcome_of, horizon=10):
    got = enumerate_schedules(factory, outcome_of, bound=12, horizon=horizon)
    want = enumerate_schedules_copying(factory, outcome_of, bound=12, horizon=horizon)
    assert got.outcomes == want.outcomes
    assert got.nodes <= want.nodes and got.schedules <= want.schedules
    return got, want


@st.composite
def worlds(draw):
    actors = draw(st.integers(2, 4))
    lo = draw(st.integers(0, 1))
    latency = LatencyModel(kind="uniform", lo=lo, hi=draw(st.integers(lo, lo + 1)))
    index = st.integers(0, actors - 1)
    # pings (route ()) and echo chains of depth 1-3, at most 6 deliveries
    depths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
        lambda ds: sum(d + 1 for d in ds) <= 6))
    messages = [(draw(index), tuple(draw(st.lists(index, min_size=d, max_size=d)))) for d in depths]
    return actors, latency, messages


class TestReducedMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(worlds())
    def test_generated_worlds(self, world):
        assert_reduction_matches(make_world(*world), received)

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_pings_to_distinct_sinks_one_schedule(self, k):
        factory = make_world(k, LatencyModel(kind="fixed", fixed=1), [(i, ()) for i in range(k)])
        got, want = assert_reduction_matches(factory, received)
        assert (want.schedules, got.schedules) == (math.factorial(k), 1)


def _plain(obj):
    """obj as nested built-in values that compare equal when two forks hold
    the same state: objects by type and attributes, containers item by
    item, sealed values (which compare by value) and scalars as they are."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_plain, obj))
    if isinstance(obj, Shared):
        return obj
    if hasattr(obj, "__dict__"):
        return type(obj).__name__, _plain(vars(obj))
    if hasattr(type(obj), "__slots__"):
        return type(obj).__name__, {k: _plain(getattr(obj, k)) for k in type(obj).__slots__}
    return obj


def _world(net):
    """net's whole state, with the trace as a multiset and the pending
    messages without their seq numbers."""
    state = _plain({k: v for k, v in vars(net).items() if k not in ("trace", "pending")})
    state["trace"] = sorted(map(repr, net.trace))
    state["pending"] = sorted(repr(m._replace(seq=0)) for m in net.queued())
    return state


def _in_order(net, first, second):
    w = net.fork()
    _take(w, first)
    assert second in _choices(w, atomicity.HORIZON)  # the first leaves the second enabled
    _take(w, second)
    return w


class TestIndependence:
    def test_same_tick_deliveries_to_different_actors_commute(self):
        """At every node of each full seed-1 close-phase tree, two
        independent choices taken in either order reach the same world."""
        pairs = []

        def outcome(net):
            choices = _choices(net, atomicity.HORIZON)
            for i, a in enumerate(choices):
                for b in choices[i + 1:]:
                    if _independent(a, b):
                        assert _world(_in_order(net, a, b)) == _world(_in_order(net, b, a)), (a, b)
                        pairs.append((a, b))
            return atomicity.outcome_of(net)

        for profile in atomicity.PROFILES:
            for assist in (True, False):
                enumerate_schedules_copying(lambda: atomicity.build_close_phase_world(profile, assist, 1),
                                            outcome, bound=12, horizon=atomicity.HORIZON)
        assert pairs

    def test_state_comparison_sees_a_difference(self):
        net = atomicity.build_close_phase_world("honest", True)
        w = net.fork()
        w.actors["S"].sessions["c0"].sides["alpha"].state = "Changed"
        assert _world(w) != _world(net)
        assert _world(net.fork()) == _world(net)
