"""Replay-mutation fuzzing of every actor boundary.

Records every message that a two-level CE run and an EIE run send, then
delivers mutants of them into fresh worlds stopped at a seeded random
tick, and runs each world on to its last tick. A mutant replaces one
field of the message's data, or of a value nested in it, through
``dataclasses.replace``, so it is built by its class's constructor; the
new value comes from the recorded values of the same field or from a
list of boundary values. Some mutants also change the receiver (30%),
the sender (20%) or the kind (10%). A mutant whose constructor rejects
its fields (TypeError) cannot be sent and is counted, not delivered.

Nothing a mutant does may raise: receivers count what they drop, the
contract rejects with a reason, and every block checks conservation
(``produce_block``) and every state change its edge (``set_state``).

``XCHAN_FUZZ_TRIALS`` sets the worlds per run (default 60), for a
longer run than the tier-1 budget allows.
"""

import dataclasses
import os
import random

import pytest

from xchan.scenario import ScenarioConfig, build_world, settled, start_sessions
from xchan.simnet import Message

TRIALS = int(os.environ.get("XCHAN_FUZZ_TRIALS", "60"))
MUTANTS = 5  # per world

RUNS = {
    "CE-levels-2": ScenarioConfig(mode="CE", levels=2, sub_funding=(5,), sub_receipts=(2,), receipts_n=4,
                                  seed=2, max_ticks=200),
    "EIE": ScenarioConfig(mode="EIE", receipts_n=4, seed=2, max_ticks=200),
}

BOUNDARY = (0, 1, -1, 2**64 - 1, 2**64, True, 1.5, None, "", "S", "alpha", "c0", "\ud800", b"", bytes(32),
            (), (0,), ("",), (None,), {}, {"S": -1})


def _opened(cfg):
    """cfg's world with every party's opens submitted."""
    world = build_world(cfg)
    start_sessions(world)
    return world


def _values(value, pool):
    """Add each field of value, and of every dataclass value inside it, to
    pool under (class, field name)."""
    if isinstance(value, tuple):
        for item in value:
            _values(item, pool)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.init:
                inner = getattr(value, f.name)
                pool.setdefault((type(value), f.name), []).append(inner)
                _values(inner, pool)


def _record(cfg):
    """Every message an unmutated run of cfg sends, the pool of their field
    values, and the tick the run ended at."""
    world = _opened(cfg)
    sent, send = [], world.net.send

    def recording(kind, src, dst, data):
        sent.append(Message(kind, src, dst, data))
        send(kind, src, dst, data)

    world.net.send = recording
    world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
    assert settled(world.net)
    pool: dict = {}
    for msg in sent:
        _values(msg.data, pool)
    return sent, pool, world.net.now


def _mutate(value, rng, pool):
    """value with one field replaced, at value's level or inside a nested
    value, each level rebuilt through dataclasses.replace."""
    name = rng.choice([f.name for f in dataclasses.fields(value) if f.init])
    inner = getattr(value, name)
    if dataclasses.is_dataclass(inner) and rng.random() < 0.5:
        new = _mutate(inner, rng, pool)
    elif rng.random() < 0.6:
        new = rng.choice(pool[(type(value), name)])
    else:
        new = rng.choice(BOUNDARY)
    return dataclasses.replace(value, **{name: new})


@pytest.mark.parametrize("run", RUNS)
def test_mutated_replays_raise_nothing(run):
    cfg = RUNS[run]
    sent, pool, end = _record(cfg)
    kinds = sorted({msg.kind for msg in sent})
    rng = random.Random("replay-fuzz:%s" % run)
    delivered = unbuildable = 0
    for _ in range(TRIALS):
        world = _opened(cfg)
        net = world.net
        stop = rng.randrange(end + 1)
        net.run_until(lambda: net.now >= stop, max_tick=cfg.max_ticks)
        names = sorted(net.actors)
        for _ in range(MUTANTS):
            msg = rng.choice(sent)
            dst = rng.choice(names) if rng.random() < 0.3 else msg.dst
            src = rng.choice(names) if rng.random() < 0.2 else msg.src
            kind = rng.choice(kinds) if rng.random() < 0.1 else msg.kind
            try:
                data = _mutate(msg.data, rng, pool)
            except TypeError:
                unbuildable += 1
                continue
            net._deliver(Message(kind, src, dst, data))
            delivered += 1
        net.run_until(max_tick=cfg.max_ticks)
    assert delivered > TRIALS and unbuildable > 0
