"""End-to-end tests of the JSON-over-HTTP API on an ephemeral port."""

from __future__ import annotations

import json
import os
import socket
import urllib.error
import urllib.request

import pytest

from repro.graphs.loader import database_from_edges


@pytest.fixture
def server_url(service_factory, running_server):
    service = service_factory(register=False, session_budget=5.0, rng=11)
    with running_server(service) as server:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"


def post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


K4_EDGES = [[a, b] for a in range(4) for b in range(4) if a != b]


class TestEndpoints:
    def test_register_count_budget_stats_roundtrip(self, server_url):
        status, body = post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        assert status == 200
        assert body["name"] == "k4"
        assert body["version"] == 1

        status, session = post(f"{server_url}/budget", {"budget": 2.0})
        assert status == 200
        sid = session["session"]

        status, release = post(
            f"{server_url}/count",
            {
                "database": "k4",
                "query": "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z",
                "epsilon": 0.5,
                "session": sid,
            },
        )
        assert status == 200
        assert isinstance(release["noisy_count"], float)
        assert release["remaining_budget"] == pytest.approx(1.5)

        status, budget = get(f"{server_url}/budget?session={sid}")
        assert status == 200
        assert budget["spent"] == pytest.approx(0.5)

        status, stats = get(f"{server_url}/stats")
        assert status == 200
        assert stats["requests_served"] == 1
        assert "k4" in stats["databases"]

    def test_batch_endpoint_deduplicates(self, server_url):
        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        status, result = post(
            f"{server_url}/batch",
            {
                "database": "k4",
                "requests": [
                    {"query": "Edge(x, y), Edge(y, z)"},
                    {"query": "Edge(a, b), Edge(b, c)"},
                    {"query": "Edge(x, y)"},
                ],
                "epsilon_total": 1.0,
            },
        )
        assert status == 200
        assert result["groups"] == 2
        assert result["deduplicated"] == 1
        assert result["items"][0]["result"]["noisy_count"] == (
            result["items"][1]["result"]["noisy_count"]
        )

    def test_register_from_surrogate_dataset(self, server_url):
        status, body = post(
            f"{server_url}/register",
            {"name": "grqc", "dataset": "GrQc", "scale": 0.01},
        )
        assert status == 200
        assert body["private_tuples"] > 0

    def test_mutate_roundtrip(self, server_url):
        status, body = post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        assert status == 200
        version, before = body["version"], body["epochs"]

        status, summary = post(
            f"{server_url}/mutate",
            {
                "database": "k4",
                "operations": [
                    {"relation": "Edge", "op": "delete", "rows": [[0, 1]]},
                    {"relation": "Edge", "op": "insert", "rows": [[0, 9]]},
                ],
            },
        )
        assert status == 200
        assert summary["version"] == version  # delta path: no version bump
        assert summary["inserted"] == 1 and summary["deleted"] == 1
        assert summary["epochs"]["Edge"] == before["Edge"] + 2
        assert summary["relations"]["Edge"] == len(K4_EDGES)

        status, stats = get(f"{server_url}/stats")
        assert status == 200
        assert stats["mutations"]["applied"] == 1
        assert stats["databases"]["k4"]["epochs"] == summary["epochs"]

    def test_mutate_error_mapping(self, server_url):
        status, body = post(
            f"{server_url}/mutate",
            {"database": "ghost", "operations": [{"relation": "Edge", "op": "insert", "rows": [[1, 2]]}]},
        )
        assert status == 404  # unknown database

        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        status, body = post(f"{server_url}/mutate", {"database": "k4"})
        assert status == 400  # missing operations
        status, body = post(
            f"{server_url}/mutate",
            {"database": "k4", "operations": [{"relation": "Nope", "op": "insert", "rows": [[1, 2]]}]},
        )
        assert status == 400
        status, body = post(
            f"{server_url}/mutate",
            {"database": "k4", "operations": [{"relation": "Edge", "op": "frobnicate"}]},
        )
        assert status == 400


class TestErrorMapping:
    def test_unknown_endpoint_404(self, server_url):
        status, body = get(f"{server_url}/nope")
        assert status == 404
        assert "error" in body

    def test_unknown_database_404(self, server_url):
        status, body = post(
            f"{server_url}/count",
            {"database": "missing", "query": "Edge(x, y)", "epsilon": 0.5},
        )
        assert status == 404
        assert "unknown database" in body["error"]

    def test_malformed_body_400(self, server_url):
        request = urllib.request.Request(
            f"{server_url}/count", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_missing_fields_400(self, server_url):
        status, body = post(f"{server_url}/count", {"database": "x"})
        assert status == 400
        assert "query" in body["error"]

    def test_bad_query_400(self, server_url):
        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        status, body = post(
            f"{server_url}/count",
            {"database": "k4", "query": "Edge(x,", "epsilon": 0.5},
        )
        assert status == 400

    def test_budget_exhaustion_403(self, server_url):
        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        _, session = post(f"{server_url}/budget", {"budget": 0.4})
        sid = session["session"]
        payload = {
            "database": "k4",
            "query": "Edge(x, y)",
            "epsilon": 0.3,
            "session": sid,
        }
        status, _ = post(f"{server_url}/count", payload)
        assert status == 200
        status, body = post(f"{server_url}/count", payload)
        assert status == 403
        assert "budget" in body["error"]

    def test_budget_get_requires_session_param(self, server_url):
        status, body = get(f"{server_url}/budget")
        assert status == 400
        assert "session" in body["error"]

    def test_unknown_session_404(self, server_url):
        status, _ = get(f"{server_url}/budget?session=missing")
        assert status == 404

    def test_unknown_method_is_400_not_404(self, server_url):
        """Every release is calibrated to residual sensitivity: a request that
        names any calibration method, even ``residual``, is refused rather
        than answered another way, and nothing is charged."""
        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        _, session = post(f"{server_url}/budget", {"budget": 2.0})
        sid = session["session"]
        request = {"query": "Edge(x, y)", "epsilon": 0.5}
        for method in ("smooth-triangle", "residual"):
            status, body = post(
                f"{server_url}/count",
                {"database": "k4", "session": sid, **request, "method": method},
            )
            assert status == 400
            assert "method" in body["error"]
            status, body = post(
                f"{server_url}/batch",
                {
                    "database": "k4",
                    "session": sid,
                    "requests": [request, {**request, "method": method}],
                },
            )
            assert status == 400
            assert "method" in body["error"]
        status, budget = get(f"{server_url}/budget?session={sid}")
        assert status == 200
        assert budget["spent"] == 0.0

    @pytest.mark.parametrize(
        "path, fields, named",
        [
            ("/count", {"session": {}}, "session"),
            ("/count", {"query": 5}, "query"),
            ("/count", {"database": ["h"]}, "database"),
            ("/count", {"epsilon": True}, "epsilon"),
            ("/batch", {"requests": [5]}, "batch request"),
            ("/batch", {"requests": [{"query": 5, "epsilon": 0.1}]}, "query"),
        ],
        ids=[
            "count-session-object",
            "count-query-number",
            "count-database-list",
            "count-epsilon-boolean",
            "batch-request-number",
            "batch-query-number",
        ],
    )
    def test_mistyped_field_is_400_before_any_charge(self, server_url, path, fields, named):
        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        _, session = post(f"{server_url}/budget", {"budget": 2.0})
        body = {"database": "k4", "session": session["session"]}
        if path == "/count":
            body.update(query="Edge(x, y)", epsilon=0.5)
        else:
            body.update(requests=[{"query": "Edge(x, y)", "epsilon": 0.5}])
        status, reply = post(f"{server_url}{path}", {**body, **fields})
        assert status == 400
        assert named in reply["error"]
        _, stats = get(f"{server_url}/stats")
        assert stats["epsilon_charged"] == 0.0

    def test_non_finite_epsilon_is_400(self, server_url):
        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        for raw in ("NaN", "Infinity", "-Infinity"):
            # json.dumps would refuse these literals; hand-craft the body the
            # way a hostile client would (Python's json.loads accepts them).
            body = (
                '{"database": "k4", "query": "Edge(x, y)", "epsilon": ' + raw + "}"
            ).encode("utf-8")
            request = urllib.request.Request(
                f"{server_url}/count", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            assert "non-finite" in json.loads(excinfo.value.read())["error"]

    def test_non_finite_session_budget_is_400(self, server_url):
        body = b'{"budget": NaN}'
        request = urllib.request.Request(
            f"{server_url}/budget", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_non_numeric_epsilon_is_400(self, server_url):
        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        status, body = post(
            f"{server_url}/count",
            {"database": "k4", "query": "Edge(x, y)", "epsilon": "abc"},
        )
        assert status == 400
        assert "epsilon" in body["error"]

    def test_register_replace_must_be_a_boolean(self, server_url):
        post(f"{server_url}/register", {"name": "g", "edges": [[0, 1]]})
        status, body = post(
            f"{server_url}/register", {"name": "g", "edges": [[0, 1]], "replace": "no"}
        )
        assert status == 400
        assert "'replace'" in body["error"]
        _, stats = get(f"{server_url}/stats")
        assert stats["databases"]["g"]["version"] == 1

    @pytest.mark.parametrize(
        "path, body, field",
        [
            (
                "/mutate",
                {
                    "database": ["g"],
                    "operations": [{"relation": "Edge", "op": "insert", "rows": [[1, 2]]}],
                },
                "database",
            ),
            ("/budget", {"session_id": {}}, "session_id"),
            ("/budget", {"session_id": 7}, "session_id"),
        ],
    )
    def test_mistyped_ids_are_400_before_any_effect(
        self, service_factory, running_server, tmp_path, path, body, field
    ):
        service = service_factory(register=False, state_dir=str(tmp_path))
        with running_server(service) as server:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            post(f"{url}/register", {"name": "g", "edges": [[0, 1]]})
            _, before = get(f"{url}/stats")
            status, reply = post(f"{url}{path}", body)
            assert status == 400
            assert f"{field!r} must be a str" in reply["error"]
            _, after = get(f"{url}/stats")
        # Nothing was created, mutated or journaled.
        assert after["sessions"]["active"] == []
        assert after["databases"] == before["databases"]
        assert after["persistence"]["last_seq"] == before["persistence"]["last_seq"]

    def test_negative_epsilon_is_400(self, server_url):
        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        status, body = post(
            f"{server_url}/count",
            {"database": "k4", "query": "Edge(x, y)", "epsilon": -1.0},
        )
        assert status == 400
        assert "epsilon must be positive" in body["error"]


def _raw_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: test\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Content-Type: application/json\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


def _read_response(reader) -> tuple[int, dict]:
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, json.loads(reader.read(length))


class TestKeepAliveFraming:
    """Error responses must drain the request body or close the connection:
    leftover body bytes would be parsed as the *next* pipelined request."""

    def _roundtrip(self, server_url, first: bytes) -> tuple[int, int, dict]:
        host, port = server_url.removeprefix("http://").split(":")
        second = _raw_request(
            "POST",
            "/count",
            json.dumps(
                {"database": "k4", "query": "Edge(x, y)", "epsilon": 0.5}
            ).encode("utf-8"),
        )
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            reader = conn.makefile("rb")
            conn.sendall(first + second)
            first_status, _ = _read_response(reader)
            second_status, second_body = _read_response(reader)
        return first_status, second_status, second_body

    def test_unknown_endpoint_error_does_not_poison_next_request(self, server_url):
        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        payload = json.dumps({"irrelevant": "body bytes that must be drained"})
        first = _raw_request("POST", "/no-such-endpoint", payload.encode("utf-8"))
        first_status, second_status, second_body = self._roundtrip(server_url, first)
        assert first_status == 404
        assert second_status == 200
        assert isinstance(second_body["noisy_count"], float)

    def test_early_validation_error_does_not_poison_next_request(self, server_url):
        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        # GET /budget rejects before ever touching the (declared) body.
        first = _raw_request("GET", "/budget", b'{"unread": "body"}')
        first_status, second_status, second_body = self._roundtrip(server_url, first)
        assert first_status == 400
        assert second_status == 200
        assert isinstance(second_body["noisy_count"], float)

    def test_chunked_body_is_rejected_and_closes_connection(self, server_url):
        """The server never decodes chunked bodies: the request must be
        rejected (never run with an empty body in place of the one sent)
        and the un-resynchronisable connection must not be kept alive."""
        host, port = server_url.removeprefix("http://").split(":")
        chunked = (
            b"POST /budget HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"\r\n"
            b"11\r\n"
            b'{"budget": 5.0}\r\n'
            b"0\r\n\r\n"
        )
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            reader = conn.makefile("rb")
            conn.sendall(chunked)
            status, body = _read_response(reader)
            assert status == 400
            assert "chunked" in body["error"]  # rejected, not defaulted
            assert reader.read() == b""  # connection closed, never misparsed
        # No session was created with default parameters behind the 400.
        _, stats = get(f"{server_url}/stats")
        assert stats["sessions"]["active"] == []

    def test_negative_content_length_is_rejected_and_closes(self, server_url):
        host, port = server_url.removeprefix("http://").split(":")
        raw = (
            b"POST /budget HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Length: -5\r\n"
            b"\r\n"
        )
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            reader = conn.makefile("rb")
            conn.sendall(raw)
            status, body = _read_response(reader)
            assert status == 400
            assert "Content-Length" in body["error"]
            assert reader.read() == b""  # desynced framing: connection closed

    def test_oversized_unread_body_closes_connection(self, server_url):
        host, port = server_url.removeprefix("http://").split(":")
        huge = 4 * 1024 * 1024  # above max_drain_bytes: draining would stall
        head = (
            "POST /no-such-endpoint HTTP/1.1\r\n"
            "Host: test\r\n"
            f"Content-Length: {huge}\r\n"
            "\r\n"
        ).encode("ascii")
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            reader = conn.makefile("rb")
            conn.sendall(head + b"x" * 1024)  # never send the rest
            status, body = _read_response(reader)
            assert status == 404
            assert reader.read() == b""  # server closed instead of waiting


class TestShedRetryAfter:
    """The load-derived Retry-After on shed (503) responses."""

    @staticmethod
    def _view(**overrides):
        view = {
            "queue_depth": 0,
            "overcommit_ratio": 0.0,
            "max_inflight_per_worker": 32,
        }
        view.update(overrides)
        return view

    def test_idle_board_yields_the_floor(self):
        from repro.service.api import MIN_RETRY_AFTER, shed_retry_after

        assert shed_retry_after(self._view()) == MIN_RETRY_AFTER == 1

    def test_bounded_between_1_and_30(self):
        from repro.service.api import MAX_RETRY_AFTER, shed_retry_after

        extreme = self._view(
            queue_depth=10_000, overcommit_ratio=50.0, max_inflight_per_worker=1
        )
        assert shed_retry_after(extreme) == MAX_RETRY_AFTER == 30
        for depth in range(0, 200, 7):
            hint = shed_retry_after(
                self._view(queue_depth=depth, overcommit_ratio=depth / 64)
            )
            assert 1 <= hint <= 30

    def test_monotone_in_load(self):
        from repro.service.api import shed_retry_after

        hints = [
            shed_retry_after(
                self._view(queue_depth=depth, overcommit_ratio=depth / 64)
            )
            for depth in range(0, 128, 8)
        ]
        assert hints == sorted(hints)
        assert hints[-1] > hints[0]

    def test_tolerates_missing_and_bogus_fields(self):
        from repro.service.api import shed_retry_after

        assert shed_retry_after({}) == 1
        assert shed_retry_after(
            {"queue_depth": -5, "overcommit_ratio": -1.0, "max_inflight_per_worker": 0}
        ) == 1


class TestParallelismModeOverHttp:
    """``parallelism_mode`` is retired: ``/register`` ignores it like any
    other unknown key, and neither ``/stats`` block reports a mode.  Each
    request runs on one thread, so ``/stats`` reports no thread count."""

    def test_register_with_mode_and_stats_block(self, server_url):
        status, body = post(
            f"{server_url}/register",
            {"name": "k4", "edges": K4_EDGES, "parallelism_mode": "process"},
        )
        assert status == 200
        assert "parallelism_mode" not in body

        status, stats = get(f"{server_url}/stats")
        assert status == 200
        assert "parallelism" not in stats
        assert "parallelism_mode" not in stats["databases"]["k4"]

        status, release = post(
            f"{server_url}/count",
            {"database": "k4", "query": "Edge(x, y), Edge(y, z)", "epsilon": 0.5},
        )
        assert status == 200
        assert isinstance(release["noisy_count"], float)


class _RecordingWriter:
    """Wraps a handler's ``wfile`` and records every write it is given."""

    def __init__(self, inner, writes: list[bytes]):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _read_raw_response(reader) -> tuple[int, dict[str, str], bytes, bytes]:
    """One response off a keep-alive stream: status, headers, body, raw bytes."""
    raw = reader.readline()
    status = int(raw.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = reader.readline()
        raw += line
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body, raw + body


class TestOneWriteReplies:
    """Each reply leaves in one write on a TCP_NODELAY socket: a head sent
    apart from its body waits for the client's delayed ACK under Nagle."""

    @pytest.fixture
    def recorded(self, service_factory, monkeypatch, running_server):
        from repro.service.api import ServiceRequestHandler
        from repro.service.cluster import CapacityBoard

        writes: list[bytes] = []
        nodelay: list[int] = []
        original_setup = ServiceRequestHandler.setup

        def setup(handler):
            original_setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            handler.wfile = _RecordingWriter(handler.wfile, writes)

        monkeypatch.setattr(ServiceRequestHandler, "setup", setup)
        service = service_factory(register=False, session_budget=5.0, rng=11)
        service.register_database("k4", database_from_edges(K4_EDGES))
        board = CapacityBoard(1, 1)
        board.attach(0, os.getpid())
        try:
            with running_server(service, capacity=board) as server:
                yield server.server_address[:2], board, writes, nodelay
        finally:
            board.close()

    def test_every_reply_is_one_write_on_a_nodelay_socket(self, recorded):
        (host, port), board, writes, nodelay = recorded
        count = json.dumps({"database": "k4", "query": "Edge(x, y)", "epsilon": 0.5})
        requests = [
            ("count", _raw_request("POST", "/count", count.encode("utf-8"))),
            ("stats", _raw_request("GET", "/stats")),
            ("metrics", _raw_request("GET", "/metrics")),
            ("missing", _raw_request("GET", "/no-such-endpoint")),
            # Rejected before the declared body is read: drained, then one write.
            ("early 400", _raw_request("GET", "/budget", b'{"unread": "body"}')),
            ("shed", _raw_request("POST", "/count", count.encode("utf-8"))),
        ]
        expected = {
            "count": 200, "stats": 200, "metrics": 200,
            "missing": 404, "early 400": 400, "shed": 503,
        }
        # Close the reader too: an open makefile() keeps the connection alive,
        # and the server joins its handler thread on shutdown.
        with socket.create_connection((host, port), timeout=10) as conn, conn.makefile(
            "rb"
        ) as reader:
            for name, request in requests:
                if name == "shed":
                    assert board.admit()  # take the only slot: the next /count sheds
                before = len(writes)
                try:
                    conn.sendall(request)
                    status, headers, _, raw = _read_raw_response(reader)
                finally:
                    if name == "shed":
                        board.release()
                assert status == expected[name], name
                assert writes[before:] == [raw], name
                if name == "metrics":
                    assert headers["content-type"].startswith("text/plain")
                else:
                    assert headers["content-type"] == "application/json"
                if name == "shed":
                    assert int(headers["retry-after"]) >= 1
        assert len(nodelay) == 1  # one keep-alive connection served them all
        assert nodelay[0] != 0


class TestWarmLatency:
    def test_keep_alive_warm_count_median_under_15ms(self, server_url):
        """Two writes without TCP_NODELAY cost a ~40 ms delayed ACK per reply."""
        import http.client
        import statistics
        import time

        post(f"{server_url}/register", {"name": "k4", "edges": K4_EDGES})
        host, port = server_url.removeprefix("http://").split(":")
        body = json.dumps(
            {"database": "k4", "query": "Edge(x, y), Edge(y, z)", "epsilon": 0.01}
        )
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:

            def count() -> float:
                start = time.perf_counter()
                conn.request(
                    "POST", "/count", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                elapsed = time.perf_counter() - start
                assert response.status == 200, payload
                return elapsed

            count()  # warm every cache
            latencies = [count() for _ in range(50)]
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.015
