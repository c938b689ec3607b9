"""Self-tests of the benchmark's measurement helpers, on synthetic inputs.

    python3 -m pytest perfbench/test_measure.py -q
"""

from measure import (
    Span,
    SpanRecorder,
    Target,
    digest,
    digest_matches,
    hit_ratio,
    install,
    ledger_exact,
    percentile,
    release_record,
    self_time,
    tail_percentile,
)


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 0.5) == 2.5
    assert percentile([7], 0.99) == 7


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(999)), 0.99) is None
    assert tail_percentile(list(range(1000)), 0.99) == percentile(list(range(1000)), 0.99)
    assert tail_percentile(list(range(99)), 0.9) is None
    assert tail_percentile(list(range(100)), 0.9) is not None


def test_self_time_subtracts_the_union_of_children():
    # [1,3] and [2,5] overlap (4 covered); [8,12] is clipped to [8,10].
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 4.0
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0


def test_recorder_self_time_and_outermost_spans():
    recorder = SpanRecorder()
    recorder.spans = [
        Span("count", 0.0, 1.0),
        Span("profile", 0.1, 0.5, parent=0),
        Span("join", 0.2, 0.3, parent=1),
        Span("join", 0.21, 0.25, parent=2),
    ]
    assert abs(recorder.self_ms(0) - 600.0) < 1e-9
    assert [s.start for s in recorder.outermost("join")] == [0.2]


def test_spans_nest_and_tag():
    recorder = SpanRecorder()
    recorder.tag = "triangle"
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert inner.parent == 0 and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert inner.tag == "triangle"


def test_install_wraps_then_restores():
    class Engine:
        def step(self, x):
            return x + 1

    recorder = SpanRecorder()
    restore = install(recorder, [Target(Engine, "step", "step", lambda s, r: s.attrs.update(r=r))])
    assert Engine().step(1) == 2
    assert recorder.spans[0].name == "step" and recorder.spans[0].attrs == {"r": 2}
    restore()
    Engine().step(1)
    assert len(recorder.spans) == 1


def test_ledger_check_fails_on_corrupted_input():
    charged = [0.1, 0.3, 0.7] * 7
    spent = sum(charged)
    assert ledger_exact(spent, charged)
    assert not ledger_exact(spent + 1e-12, charged)
    assert not ledger_exact(spent, charged[:-1])
    assert not ledger_exact(spent, charged + [0.1])


def test_digest_comparison_fails_on_corrupted_input():
    records = [["triangle", *release_record(12.5, 3.0)], ["star3", *release_record(-4.25, 9.0)]]
    expected = digest(records)
    assert digest_matches(records, expected)
    corrupted = [["triangle", *release_record(12.5 + 2**-40, 3.0)], records[1]]
    assert not digest_matches(corrupted, expected)
    assert not digest_matches(records[:1], expected)
    assert digest_matches(corrupted, None)


def test_hit_ratio_counts_only_the_window():
    before = {"hits": 5, "misses": 5}
    assert hit_ratio(before, {"hits": 8, "misses": 6}) == 0.75
    assert hit_ratio(before, before) == 0.0
