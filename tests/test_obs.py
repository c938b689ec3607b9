"""Tests of the observability layer: metrics, tracing, structured logs.

Unit coverage of :mod:`repro.obs` (registry semantics, the Prometheus text
round-trip, span lifecycle invariants, the pinned log schema) plus the
service-level integration contracts: ``GET /metrics`` parses as valid
Prometheus, opt-in ``timings`` sum exactly to the request total, request
logs validate line-by-line, metrics survive a crash-recovery cycle, and the
factorization-cache counters of concurrent services never cross-contaminate.
"""

from __future__ import annotations

import io
import json
import urllib.request

import pytest

from repro.exceptions import PrivacyError, ServiceError
from repro.obs.logs import LOG_SCHEMA_VERSION, RequestLogger, validate_log_line
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    OVERFLOW_LABEL,
    PENDING_DRAIN_THRESHOLD,
    parse_prometheus_text,
)
from repro.obs.tracing import NULL_SPAN, Span, Tracer, current_span, span


# --------------------------------------------------------------------- #
# Metrics: instruments and registry
# --------------------------------------------------------------------- #
class TestInstruments:
    def test_counter_inc_and_value(self):
        counter = Counter("requests_total", "Requests.", ("endpoint",))
        counter.inc(endpoint="count")
        counter.inc(2.5, endpoint="count")
        assert counter.value(endpoint="count") == pytest.approx(3.5)
        assert counter.value(endpoint="batch") == 0.0

    def test_counter_rejects_negative(self):
        counter = Counter("c_total", "C.")
        with pytest.raises(ServiceError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_counter_callback_series(self):
        seen = {"hits": 7}
        counter = Counter("cache_total", "Cache.", ("outcome",))
        counter.set_callback(lambda: float(seen["hits"]), outcome="hit")
        counter.inc(outcome="miss")
        assert counter.value(outcome="hit") == 7.0
        seen["hits"] = 9
        rendered = dict(
            line.rsplit(" ", 1) for line in counter.render()
        )
        assert rendered['cache_total{outcome="hit"}'] == "9"
        assert rendered['cache_total{outcome="miss"}'] == "1"

    def test_counter_broken_callback_renders_nan(self):
        counter = Counter("broken_total", "B.")
        counter.set_callback(lambda: 1 / 0)
        assert list(counter.render()) == ["broken_total NaN"]

    def test_gauge_set_inc_and_callback(self):
        gauge = Gauge("depth", "D.")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert gauge.value() == pytest.approx(2.5)
        live = Gauge("live", "L.").set_function(lambda: 42.0)
        assert live.value() == 42.0
        assert list(live.render()) == ["live 42"]

    def test_callback_gauge_rejects_labels(self):
        with pytest.raises(ServiceError, match="callback gauges"):
            Gauge("g", "G.", ("x",)).set_function(lambda: 0.0)

    def test_histogram_buckets_cumulative(self):
        hist = Histogram("lat_seconds", "L.", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.555)
        assert snap["buckets"] == {"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ServiceError, match="strictly increasing"):
            Histogram("h", "H.", buckets=(1.0, 1.0))
        with pytest.raises(ServiceError, match="finite"):
            Histogram("h", "H.", buckets=(1.0, float("inf")))

    def test_bound_handle_buffers_until_snapshot(self):
        hist = Histogram("buf_seconds", "B.", buckets=(0.1, 1.0))
        observe = hist.bind()
        observe(0.05)
        observe(0.5)
        # Buffered: nothing binned yet, but any read drains first.
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["buckets"]["+Inf"] == 2
        observe(2.0)
        assert "buf_seconds_count 3" in "\n".join(hist.render())

    def test_bound_handle_self_drains_past_threshold(self):
        hist = Histogram("drain_seconds", "D.", buckets=(0.1,))
        observe = hist.bind()
        for _ in range(PENDING_DRAIN_THRESHOLD + 10):
            observe(0.01)
        # The overflow drain ran without any scrape touching the series.
        series = hist._default
        assert series.count >= PENDING_DRAIN_THRESHOLD
        assert hist.snapshot()["count"] == PENDING_DRAIN_THRESHOLD + 10

    def test_label_cardinality_overflow(self):
        counter = Counter("shapes_total", "S.", ("shape",), max_series=3)
        for i in range(10):
            counter.inc(shape=f"q{i}")
        series_labels = {s.labels for s in counter._snapshot()}
        assert (OVERFLOW_LABEL,) in series_labels
        assert len(series_labels) <= 4  # 3 real + overflow
        assert counter.value(shape=OVERFLOW_LABEL) == 7.0

    def test_unknown_labels_rejected(self):
        counter = Counter("c_total", "C.", ("endpoint",))
        with pytest.raises(ServiceError, match="takes labels"):
            counter.inc(verb="GET")

    def test_invalid_names_rejected(self):
        with pytest.raises(ServiceError, match="invalid metric name"):
            Counter("2bad", "B.")
        with pytest.raises(ServiceError, match="invalid label name"):
            Counter("ok_total", "B.", ("__reserved",))


class TestRegistry:
    def test_idempotent_declaration(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "X.", ("a",))
        again = registry.counter("x_total", "X.", ("a",))
        assert first is again

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.")
        with pytest.raises(ServiceError, match="already declared"):
            registry.gauge("x_total", "X.")
        with pytest.raises(ServiceError, match="already declared"):
            registry.counter("x_total", "X.", ("other",))

    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.", ("endpoint",)).inc(endpoint="count")
        registry.gauge("active", "Active.").set(3)
        registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0)).observe(0.5)
        families = parse_prometheus_text(registry.render())
        assert families["req_total"]["type"] == "counter"
        assert families["req_total"]["help"] == "Requests."
        assert families["active"]["type"] == "gauge"
        assert families["lat_seconds"]["type"] == "histogram"
        sample_names = {s[0] for s in families["lat_seconds"]["samples"]}
        assert sample_names == {"lat_seconds_bucket", "lat_seconds_sum", "lat_seconds_count"}

    def test_parser_rejects_malformed(self):
        with pytest.raises(ServiceError, match="unknown TYPE"):
            parse_prometheus_text("# TYPE x bogus\n")
        with pytest.raises(ServiceError, match="unparseable sample"):
            parse_prometheus_text("!!! 1\n")
        with pytest.raises(ServiceError, match="bad sample value"):
            parse_prometheus_text("x_total twelve\n")
        with pytest.raises(ServiceError, match="malformed label block"):
            parse_prometheus_text('x_total{a=unquoted} 1\n')
        with pytest.raises(ServiceError, match="missing the \\+Inf"):
            parse_prometheus_text(
                "# TYPE h histogram\n" 'h_bucket{le="1"} 1\nh_sum 1\nh_count 1\n'
            )
        with pytest.raises(ServiceError, match="non-cumulative"):
            parse_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="1"} 5\nh_bucket{le="2"} 3\nh_bucket{le="+Inf"} 5\n'
            )


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #
class TestTracing:
    def test_span_is_noop_without_ambient_trace(self):
        assert current_span() is None
        assert span("anything") is NULL_SPAN

    def test_root_and_children_share_trace_and_close(self):
        tracer = Tracer()
        with tracer.trace("request", database="toy") as root:
            with span("plan"):
                pass
            with span("release", method="residual"):
                pass
        spans = list(root.walk())
        assert [s.name for s in spans] == ["request", "plan", "release"]
        for each in spans:
            assert each.closed
            assert each.duration_ms >= 0.0
            assert each.cpu_ms >= 0.0
            assert each.trace_id == root.trace_id
        assert root.parent_id is None
        for child in root.children:
            assert child.parent_id == root.span_id

    def test_error_paths_mark_status_and_still_close(self):
        tracer = Tracer()
        root = tracer.trace("request")
        with pytest.raises(ValueError, match="boom"):
            with root:
                with span("stage"):
                    raise ValueError("boom")
        assert root.closed and root.status == "error"
        assert "boom" in root.error
        stage = root.children[0]
        assert stage.closed and stage.status == "error"
        assert stage.duration_ms >= 0.0

    def test_stage_timings_sum_exactly_to_total(self):
        with Tracer().trace("request") as root:
            with span("a"):
                pass
            with span("b"):
                pass
            with span("a"):
                pass
        stages = root.stage_timings()
        parts = [v for k, v in stages.items() if k != "total"]
        assert sum(parts) == pytest.approx(stages["total"], abs=1e-9)
        assert set(stages) == {"a", "b", "other", "total"}

    def test_batch_groups_nest_under_the_batch_root(self, service_factory):
        """Each batch group runs on the calling thread, so its span — and
        the stage spans of its count — nest under the batch root without
        any hand-off, one group after another in request order."""
        service = service_factory()
        requests = [
            {"query": "R(x, y), S(y, z)", "epsilon": 0.5},
            {"query": "R(x, y)", "epsilon": 0.25},
            {"query": "R(a, b), S(b, c)", "epsilon": 0.5},  # same shape as 0
        ]
        with Tracer().trace("outer") as outer:
            result = service.batch("toy", requests, timings=True)
        assert result.ok
        (root,) = outer.children
        assert root.name == "request.batch"
        assert root.trace_id == result.to_dict()["trace_id"]
        groups = [child for child in root.children if child.name == "group"]
        assert [child.name for child in root.children] == ["plan", "group", "group"]
        assert [g.attributes["members"] for g in groups] == [2, 1]
        for group in groups:
            assert group.parent_id == root.span_id
            assert group.trace_id == root.trace_id
            names = [child.name for child in group.children]
            assert {"sensitivity", "true_count", "charge", "release"} <= set(names)
            for child in group.children:
                assert child.parent_id == group.span_id
        # The batch's direct children ran one after another, so their wall
        # times fit inside the root's (overlapping groups could exceed it).
        assert sum(child.duration_ms for child in root.children) <= root.duration_ms

    def test_nested_trace_attaches_as_child(self):
        tracer = Tracer()
        with tracer.trace("batch") as root:
            inner = tracer.trace("request.count")
            with inner:
                pass
        assert inner.trace_id == root.trace_id
        assert inner.parent_id == root.span_id

    def test_span_to_dict_is_json_serialisable(self):
        with Tracer().trace("request", database="toy") as root:
            with span("plan"):
                pass
        document = json.loads(json.dumps(root.to_dict()))
        assert document["name"] == "request"
        assert document["attributes"] == {"database": "toy"}
        assert document["children"][0]["name"] == "plan"


# --------------------------------------------------------------------- #
# Structured logs
# --------------------------------------------------------------------- #
class TestRequestLogs:
    def test_lines_validate_against_pinned_schema(self):
        stream = io.StringIO()
        logger = RequestLogger(stream)
        logger.log_request(
            endpoint="count", duration_ms=1.25, status="ok", database="toy",
            query_key="k", epsilon=0.5, cache={"plan": True},
        )
        (line,) = stream.getvalue().splitlines()
        record = validate_log_line(line)
        assert record["v"] == LOG_SCHEMA_VERSION
        assert record["level"] == "info"
        assert record["slow"] is False
        assert logger.lines_written == 1

    def test_slow_threshold_marks_and_warns(self):
        stream = io.StringIO()
        logger = RequestLogger(stream, slow_ms=10.0)
        fast = logger.log_request(endpoint="count", duration_ms=5.0)
        slow = logger.log_request(endpoint="count", duration_ms=50.0)
        assert fast["slow"] is False and fast["level"] == "info"
        assert slow["slow"] is True and slow["level"] == "warning"
        assert logger.slow_seen == 1
        for line in stream.getvalue().splitlines():
            validate_log_line(line)

    def test_error_status_logs_at_error_level(self):
        record = RequestLogger(io.StringIO()).log_request(
            endpoint="count", duration_ms=0.1, status="error", error="ServiceError: no"
        )
        assert record["level"] == "error"
        validate_log_line(record)

    def test_validator_rejects_violations(self):
        good = RequestLogger(io.StringIO()).log_request(endpoint="count", duration_ms=1.0)
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_log_line("{nope")
        with pytest.raises(ValueError, match="unknown fields"):
            validate_log_line({**good, "surprise": 1})
        with pytest.raises(ValueError, match="missing required field"):
            validate_log_line({k: v for k, v in good.items() if k != "endpoint"})
        with pytest.raises(ValueError, match="schema version"):
            validate_log_line({**good, "v": 999})
        with pytest.raises(ValueError, match="non-negative"):
            validate_log_line({**good, "duration_ms": -1.0})
        with pytest.raises(ValueError, match="has type"):
            validate_log_line({**good, "slow": "yes"})


# --------------------------------------------------------------------- #
# Service integration
# --------------------------------------------------------------------- #
JOIN = "R(x, y), S(y, z)"


class TestServiceInstrumentation:
    def test_opt_in_timings_sum_to_total(self, service_factory):
        service = service_factory()
        response = service.count("toy", JOIN, epsilon=0.5, timings=True)
        assert response.trace_id is not None
        stages = response.timings
        parts = [v for k, v in stages.items() if k != "total"]
        assert sum(parts) == pytest.approx(stages["total"], abs=1e-9)
        for stage in ("plan", "sensitivity", "true_count", "charge", "release"):
            assert stage in stages, f"missing stage {stage!r}"
        payload = response.to_dict()
        assert payload["trace_id"] == response.trace_id
        assert payload["timings"] == dict(stages)

    def test_timings_off_by_default(self, service_factory):
        response = service_factory().count("toy", JOIN, epsilon=0.5)
        assert response.trace_id is None
        assert response.timings is None
        assert "trace_id" not in response.to_dict()

    def test_metrics_track_requests_and_caches(self, service_factory):
        service = service_factory()
        for _ in range(3):
            service.count("toy", JOIN, epsilon=0.25)
        families = parse_prometheus_text(service.metrics.render())
        by_name = {
            (name, tuple(sorted(labels.items()))): value
            for family in families.values()
            for name, labels, value in family["samples"]
        }
        assert by_name[
            ("repro_requests_total", (("endpoint", "count"), ("status", "ok")))
        ] == 3.0
        assert by_name[
            ("repro_request_seconds_count", (("endpoint", "count"),))
        ] == 3.0
        assert by_name[("repro_epsilon_charged_total", ())] == pytest.approx(0.75)
        # One sensitivity-cache miss then two hits for the repeated shape.
        assert by_name[
            ("repro_cache_requests_total", (("cache", "sensitivity"), ("outcome", "hit")))
        ] == 2.0
        assert by_name[
            ("repro_cache_requests_total", (("cache", "sensitivity"), ("outcome", "miss")))
        ] == 1.0

    def test_error_and_denial_counters(self, service_factory):
        service = service_factory(session_budget=1.0)
        session = service.create_session().session_id
        with pytest.raises(ServiceError):
            service.count("nope", JOIN, epsilon=0.5)
        with pytest.raises(PrivacyError):
            service.count("toy", JOIN, epsilon=5.0, session=session)
        requests = service.metrics.get("repro_requests_total")
        assert requests.value(endpoint="count", status="error") == 2.0
        denials = service.metrics.get("repro_budget_denials_total")
        assert denials.value(endpoint="count") == 1.0
        assert service.stats()["observability"]["requests_errored"] == 2

    def test_batch_items_counted(self, service_factory):
        service = service_factory()
        result = service.batch(
            "toy",
            [{"query": JOIN, "epsilon": 0.1}, {"query": JOIN, "epsilon": 0.1}],
            timings=True,
        )
        batch_items = service.metrics.get("repro_batch_items_total")
        assert batch_items.value(outcome="ok") == 1.0
        assert batch_items.value(outcome="deduplicated") == 1.0
        payload = result.to_dict()
        assert payload["trace_id"]
        stages = payload["timings"]
        parts = [v for k, v in stages.items() if k != "total"]
        assert sum(parts) == pytest.approx(stages["total"], abs=1e-9)

    def test_request_log_lines_validate(self, service_factory):
        stream = io.StringIO()
        logger = RequestLogger(stream, slow_ms=0.0)
        service = service_factory(request_logger=logger)
        service.count("toy", JOIN, epsilon=0.5)
        with pytest.raises(ServiceError):
            service.count("nope", JOIN, epsilon=0.5)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        records = [validate_log_line(line) for line in lines]
        assert records[0]["status"] == "ok"
        assert records[0]["slow"] is True  # slow_ms=0 marks everything
        assert records[1]["status"] == "error"
        observability = service.stats()["observability"]
        assert observability["log_lines_written"] == 2
        assert observability["slow_requests"] >= 1
        slow = service.metrics.get("repro_slow_requests_total")
        assert slow.value(endpoint="count") >= 1.0

    def test_metrics_survive_crash_recovery_cycle(self, state_service_factory, tmp_path):
        state_dir = tmp_path / "state"
        first = state_service_factory(state_dir)
        session = first.create_session(budget=4.0).session_id
        first.count("toy", JOIN, epsilon=1.5, session=session)
        first.close()

        recovered = state_service_factory(state_dir)
        families = parse_prometheus_text(recovered.metrics.render())
        values = {
            name: value
            for family in families.values()
            for name, labels, value in family["samples"]
            if not labels
        }
        assert values["repro_recovered_journal_seq"] > 0
        assert values["repro_sessions_active"] == 1.0
        # Session creation and the charge each left an audit record.
        assert values["repro_audit_records_total"] == 2.0
        assert values["repro_shared_budget_spent_epsilon"] == pytest.approx(1.5)
        assert values["repro_journal_seq"] >= values["repro_recovered_journal_seq"]
        # The recovered ledger keeps charging — and the journal instruments
        # record the new appends.
        recovered.count("toy", JOIN, epsilon=0.5, session=session)
        after = parse_prometheus_text(recovered.metrics.render())
        journal = {
            name: value
            for family in after.values()
            for name, labels, value in family["samples"]
        }
        assert journal["repro_journal_records_total"] >= 1.0
        assert journal["repro_journal_append_seconds_count"] >= 1.0
        assert journal["repro_shared_budget_spent_epsilon"] == pytest.approx(2.0)

    def test_profiler_counters_do_not_cross_contaminate(self, service_factory, toy_db):
        left = service_factory()
        right = service_factory()
        left.count("toy", JOIN, epsilon=0.5)
        before = left.stats()["profiler"]
        assert before["profiles_computed"] == 1
        # A second service profiling the same shapes must not leak counter
        # increments into the first (the factorization counters are scoped
        # per evaluation, not process-global).
        for _ in range(3):
            right.count("toy", "R(x, y), S(y, a), R(a, b)", epsilon=0.25)
        assert left.stats()["profiler"] == before
        assert right.stats()["profiler"]["profiles_computed"] == 1
        profiles = right.metrics.get("repro_profiler_profiles_total")
        assert profiles.value() == 1.0
        components = right.metrics.get("repro_profiler_components_total")
        assert components.value(outcome="evaluated") > 0
        assert left.metrics.get("repro_profiler_profiles_total").value() == 1.0


class TestMetricsEndpoint:
    @pytest.fixture
    def server(self, service_factory, running_server):
        service = service_factory(session_budget=5.0)
        with running_server(service) as server:
            host, port = server.server_address[:2]
            yield f"http://{host}:{port}", service

    def test_scrape_parses_as_valid_prometheus(self, server):
        url, service = server
        service.count("toy", JOIN, epsilon=0.5)
        with urllib.request.urlopen(f"{url}/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            body = response.read().decode("utf-8")
        families = parse_prometheus_text(body)
        for required in (
            "repro_requests_total",
            "repro_request_seconds",
            "repro_cache_requests_total",
            "repro_epsilon_charged_total",
            "repro_budget_denials_total",
            "repro_budget_charge_seconds",
            "repro_profiler_profiles_total",
            "repro_sessions_active",
        ):
            assert required in families, f"scrape is missing {required}"
        assert families["repro_request_seconds"]["type"] == "histogram"
        count_samples = [
            value
            for name, labels, value in families["repro_requests_total"]["samples"]
            if labels.get("endpoint") == "count" and labels.get("status") == "ok"
        ]
        assert count_samples == [1.0]
