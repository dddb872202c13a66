"""Self-time arithmetic, span recording, the ratio definitions and the
host slowdown."""

import time
import types

import pytest

import hostspeed
from actknow import autodiff as ad
from layers import tape_size
from spans import Span, Tracer, by_name, distinct_ratio, mean_per_interval, percentile, ratio, self_times


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
        Span("b.child", 5.5, 6.0, parent=3),
        Span("b.child", 7.0, 8.5, parent=3),
        Span("root2", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5, 1.0])
    agg = by_name(spans + [Span("a", 30.0, 30.5)])
    assert agg["a"]["calls"] == 2
    assert agg["a"]["s"] == pytest.approx(3.5)
    assert agg["a"]["self_s"] == pytest.approx(2.5)
    assert agg["b.child"]["calls"] == 2 and agg["b.child"]["s"] == pytest.approx(2.0)


def test_wrap_records_nesting_and_unwraps():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    mod.boom = lambda: 1 / 0
    original_inner = mod.inner
    t = Tracer(run_id="r1")
    seen = []
    t.wrap(mod, "inner", "m.inner", before=lambda x: x, after=lambda span, result, x: seen.append(result))
    t.wrap(mod, "outer", "m.outer")
    t.wrap(mod, "boom", "m.boom")
    assert mod.outer(1) == 4
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    assert [s.name for s in t.spans] == ["m.outer", "m.inner", "m.boom"]
    assert [s.parent for s in t.spans] == [None, 0, None]
    assert t.spans[1].info == 1 and seen == [2]
    assert all(s.run_id == "r1" and s.end >= s.start for s in t.spans)
    assert t.current() is None
    t.unwrap_all()
    assert mod.inner is original_inner
    assert mod.outer(1) == 4 and len(t.spans) == 3


def test_ratio_definitions():
    assert ratio(1, 4) == 0.25
    assert ratio(3, 0) == 0.0
    # three sweep cells issuing the same queries: a third of the calls are new
    assert distinct_ratio(["q1", "q2", "q1", "q2", "q1", "q2"]) == pytest.approx(1 / 3)
    assert distinct_ratio([]) == 0.0
    # six calls spread over the intervals before steps 0, 1 and 3
    assert mean_per_interval([0, 0, 0, 1, 1, 3]) == 2.0
    assert percentile(list(range(1, 11)), 50) == 5
    assert percentile(list(range(1, 11)), 90) == 9
    assert percentile([7], 90) == 7
    assert percentile([], 50) == 0.0


def test_tape_size_counts_what_backward_walks():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    const = ad.Tensor([3.0, 4.0])
    y = ad.mul(x, const)              # x, y
    loss = ad.mean(ad.add(y, y))      # + add node, mean node
    assert tape_size(loss) == 4
    assert tape_size(ad.Tensor(1.0)) == 1



def test_host_slowdown_is_the_mean_lap_over_the_reference(monkeypatch):
    laps = iter([9.0, 1.0, 3.0, 2.0])  # the first call warms up and is not a lap
    monkeypatch.setattr(hostspeed, "reference_loop", lambda: next(laps) * hostspeed.REFERENCE_S)
    speed = hostspeed.HostSpeed()
    for _ in range(3):
        speed.lap()
    assert speed.slowdown() == pytest.approx(2.0)


def test_host_clock_stops_during_laps(monkeypatch):
    monkeypatch.setattr(hostspeed, "reference_loop", lambda: time.sleep(0.05) or 0.05)
    speed = hostspeed.HostSpeed()
    t0, w0 = speed.now(), time.perf_counter()
    speed.lap()
    assert time.perf_counter() - w0 >= 0.05 > speed.now() - t0
