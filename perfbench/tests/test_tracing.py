"""Self-time arithmetic on synthetic spans."""

import threading

import pytest

from benchlib.tracing import Span, Tracer, self_times


def span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [span(1, 0, 10), span(2, 1, 3, 1), span(3, 2, 5, 1), span(4, 7, 8, 1)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 4 - 1)
    assert own[2] == pytest.approx(2)


def test_grandchildren_only_count_against_their_parent():
    spans = [span(1, 0, 10), span(2, 2, 6, 1), span(3, 3, 5, 2)]
    own = self_times(spans)
    assert own[1] == pytest.approx(6)
    assert own[2] == pytest.approx(2)
    assert own[3] == pytest.approx(2)


def test_children_are_clipped_to_the_parent_interval():
    own = self_times([span(1, 0, 4), span(2, 3, 9, 1)])
    assert own[1] == pytest.approx(3)


def test_tracer_links_parents_and_request_ids_per_thread():
    tracer = Tracer()
    with tracer.span("outer", rid="r1"):
        with tracer.span("inner"):
            pass
    seen = []

    def other():
        with tracer.span("alone"):
            seen.append(True)

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(10)
    assert not thread.is_alive() and seen
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["inner"].rid == "r1"
    assert by_name["alone"].parent is None
    assert tracer.self_durations("outer")[0] <= by_name["outer"].duration


def test_patch_wraps_and_restores():
    class Target:
        def work(self, x):
            return x * 2

    tracer = Tracer()
    tracer.patch(Target, "work", "target.work")
    assert Target().work(3) == 6
    tracer.unpatch_all()
    assert Target().work(4) == 8
    assert len(tracer.durations("target.work")) == 1
