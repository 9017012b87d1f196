"""Tests for the exploration service and its HTTP surface."""

import http.client
import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.core.explorer import Explorer
from repro.core.space import DesignSpace
from repro.errors import ConfigError, DeadlineExceededError, TraceError
from repro.exec.cache import TraceCache
from repro.serve.server import ExplorationServer, ExplorationService, _Handler
from repro.store.store import ResultStore

POINT = DesignSpace().feasible_points()[0].label


def _service(**kwargs):
    trace_cache = TraceCache()
    return ExplorationService(
        explorer_factory=lambda: Explorer(trace_cache=trace_cache),
        **kwargs,
    )


@pytest.fixture
def service():
    svc = _service()
    svc.start()
    yield svc
    svc.stop()


class TestService:
    def test_fast_evaluate_round_trip(self, service):
        request = {"point": POINT, "kernels": ["reduction"], "fidelity": "fast"}
        first = service.evaluate(request)
        assert first["point"] == POINT
        assert first["fidelity"] == "fast"
        assert first["degraded"] is False
        assert first["mean_seconds"] > 0
        # Deterministic: the same request returns the identical payload.
        assert service.evaluate(request) == first

    def test_bad_point_is_a_config_error(self, service):
        with pytest.raises(ConfigError):
            service.evaluate({"point": "nonsense"})

    def test_bad_kernel_is_typed(self, service):
        with pytest.raises(TraceError):
            service.evaluate({"point": POINT, "kernels": ["fft"]})

    @pytest.mark.parametrize(
        "request_body",
        [
            {"point": POINT, "fidelity": "psychic"},
            {"point": POINT, "deadline": 0},
            {"point": POINT, "kernels": "reduction"},
            {"point": POINT, "faults": "not a fault spec"},
            "not an object",
            {"point": POINT, "deadline": float("nan")},
            {"point": POINT, "deadline": float("inf")},
            {"point": POINT, "deadline": True},
            {"point": POINT, "kernels": ""},
            {"point": POINT, "kernels": 0},
            {"point": POINT, "kernels": False},
            {"point": POINT, "kernels": {}},
        ],
    )
    def test_bad_request_shapes_rejected(self, service, request_body):
        with pytest.raises(ConfigError):
            service.evaluate(request_body)

    @pytest.mark.parametrize("request_body", [{"point": POINT}, {"point": POINT, "kernels": []}])
    def test_absent_or_empty_kernels_mean_all(self, service, request_body):
        from repro.kernels.registry import all_kernels

        canonical = service._canonical(request_body)
        assert canonical["kernels"] == [k.name for k in all_kernels()]

    def test_deadline_exceeded_is_typed(self, service):
        with pytest.raises(DeadlineExceededError):
            service.evaluate(
                {
                    "point": POINT,
                    "kernels": ["reduction"],
                    "fidelity": "detailed",
                    "deadline": 0.001,
                }
            )

    def test_identical_pending_requests_coalesce(self, service):
        # Occupy the dispatcher with a detailed job, then submit one
        # request twice: the duplicate shares the pending job.
        service.submit(
            {"point": POINT, "kernels": ["reduction"], "fidelity": "detailed"}
        )
        request = {"point": POINT, "kernels": ["merge sort"], "fidelity": "detailed"}
        first = service.submit(request)
        second = service.submit(request)
        assert second is first
        assert first.waiters == 2
        assert service.queue.coalesced == 1
        assert first.future.result(timeout=60)["point"] == POINT

    def test_scrape_exports_serve_and_exec_metrics(self, service):
        service.evaluate({"point": POINT, "kernels": ["reduction"]})
        scrape = service.scrape()
        samples = dict(
            line.split(" ", 1) for line in scrape.strip().splitlines()
        )
        assert float(samples["serve.requests"]) >= 1
        assert float(samples["serve.completed"]) >= 1
        assert any(name.startswith("exec.") for name in samples)

    def test_warm_start_counts_store_entries(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            trace_cache = TraceCache()
            svc = ExplorationService(
                explorer_factory=lambda: Explorer(
                    trace_cache=trace_cache, store=store
                )
            )
            svc.start()
            try:
                svc.evaluate({"point": POINT, "kernels": ["reduction"]})
                assert len(store) > 0
            finally:
                svc.stop()
        entries = None
        with ResultStore(root) as store:
            trace_cache = TraceCache()
            svc = ExplorationService(
                explorer_factory=lambda: Explorer(
                    trace_cache=trace_cache, store=store
                )
            )
            svc.start()
            try:
                scrape = svc.scrape()
                samples = dict(
                    line.split(" ", 1) for line in scrape.strip().splitlines()
                )
                entries = float(samples["store.entries"])
            finally:
                svc.stop()
        assert entries and entries > 0

    def test_validation_of_service_parameters(self):
        for deadline in (0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                _service(default_deadline=deadline)
        with pytest.raises(ConfigError):
            _service(watchdog_budget=-1)


def _http(method, url, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


@pytest.fixture
def server():
    srv = ExplorationServer(_service(), host="127.0.0.1", port=0)
    srv.start()
    yield srv
    srv.stop()


class TestHTTP:
    def test_health_and_readiness(self, server):
        status, body = _http("GET", f"{server.address}/healthz")
        assert status == 200 and json.loads(body)["alive"] is True
        status, body = _http("GET", f"{server.address}/readyz")
        assert status == 200 and json.loads(body)["ready"] is True

    def test_evaluate_and_metrics(self, server):
        status, body = _http(
            "POST",
            f"{server.address}/v1/evaluate",
            {"point": POINT, "kernels": ["reduction"]},
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["point"] == POINT and payload["mean_seconds"] > 0
        status, body = _http("GET", f"{server.address}/metrics")
        assert status == 200
        assert b"serve.completed 1" in body

    def test_async_job_lifecycle(self, server):
        status, body = _http(
            "POST",
            f"{server.address}/v1/jobs",
            {"point": POINT, "kernels": ["reduction"]},
        )
        assert status == 202
        job_id = json.loads(body)["job"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, body = _http("GET", f"{server.address}/v1/jobs/{job_id}")
            assert status == 200
            info = json.loads(body)
            if info["state"] in ("done", "error"):
                break
            time.sleep(0.02)
        assert info["state"] == "done"
        assert info["result"]["point"] == POINT

    def test_bad_requests_are_400(self, server):
        status, body = _http(
            "POST", f"{server.address}/v1/evaluate", {"point": "nonsense"}
        )
        assert status == 400 and json.loads(body)["error"] == "ConfigError"
        status, body = _http(
            "POST",
            f"{server.address}/v1/evaluate",
            {"point": POINT, "kernels": ["fft"]},
        )
        assert status == 400 and json.loads(body)["error"] == "TraceError"
        # json.dumps writes the NaN/Infinity literals json.loads accepts.
        for deadline in (float("nan"), float("inf")):
            status, body = _http(
                "POST",
                f"{server.address}/v1/evaluate",
                {"point": POINT, "deadline": deadline},
            )
            assert status == 400 and json.loads(body)["error"] == "ConfigError"

    def test_unknown_routes_are_404(self, server):
        status, _ = _http("GET", f"{server.address}/v1/nope")
        assert status == 404
        status, _ = _http("GET", f"{server.address}/v1/jobs/job-999999")
        assert status == 404

    @pytest.mark.parametrize("declared", ["abc", "-5"])
    def test_bad_content_length_is_400_and_closes(self, server, capfd, declared):
        host, port = server.httpd.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/evaluate HTTP/1.1\r\nHost: test\r\n"
                + f"Content-Length: {declared}\r\n\r\n".encode()
                + b"{}"
            )
            reply = b""
            # The server closes the connection: the body's framing is unknown.
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(body)["error"] == "ConfigError"
        assert "Traceback" not in capfd.readouterr().err


class _NoDelayProbe(_Handler):
    """Records the accepted socket's ``TCP_NODELAY`` from inside a request."""

    seen = []

    def do_GET(self):  # noqa: N802 - http.server API
        self.seen.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        super().do_GET()


class TestResponsePath:
    """Each response is one write on a ``TCP_NODELAY`` socket."""

    def test_accepted_socket_has_nodelay(self, server):
        server.httpd.RequestHandlerClass = _NoDelayProbe
        _NoDelayProbe.seen.clear()
        status, _ = _http("GET", f"{server.address}/healthz")
        assert status == 200
        assert len(_NoDelayProbe.seen) == 1 and _NoDelayProbe.seen[0] != 0

    def test_json_response_is_one_write(self, server, monkeypatch):
        port = server.httpd.server_address[1]
        writes = []

        def counting(method):
            original = getattr(socket.socket, method)

            def write(sock, data, *args):
                if sock.getsockname()[1] == port:
                    writes.append(bytes(data))
                return original(sock, data, *args)

            return write

        for method in ("send", "sendall"):
            monkeypatch.setattr(socket.socket, method, counting(method))
        status, body = _http(
            "POST",
            f"{server.address}/v1/evaluate",
            {"point": POINT, "kernels": ["reduction"]},
        )
        assert status == 200
        assert len(writes) == 1
        assert writes[0].startswith(b"HTTP/1.1 200 ") and writes[0].endswith(body)

    def test_interim_100_continue_is_not_held_in_the_buffer(self, server):
        host, port = server.httpd.server_address[:2]
        body = json.dumps({"point": POINT, "kernels": ["reduction"]}).encode()
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/evaluate HTTP/1.1\r\nHost: test\r\n"
                b"Expect: 100-continue\r\nConnection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            # The body follows only once the interim reply has arrived.
            assert sock.recv(65536).startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 ")

    def test_keep_alive_connection_serves_identical_payloads(self, server):
        host, port = server.httpd.server_address[:2]
        request = {"point": POINT, "kernels": ["reduction"]}
        status, one_shot = _http("POST", f"{server.address}/v1/evaluate", request)
        assert status == 200
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:

            def exchange(method, path, body=None):
                headers = {"Content-Type": "application/json"} if body else {}
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                assert response.status == 200
                return response.read()

            payload = json.dumps(request)
            first = exchange("POST", "/v1/evaluate", payload)
            sock = conn.sock
            scrape = exchange("GET", "/metrics")
            # No request ran between the two scrapes.
            assert _http("GET", f"{server.address}/metrics") == (200, scrape)
            second = exchange("POST", "/v1/evaluate", payload)
            assert conn.sock is sock
        finally:
            conn.close()
        assert first == second == one_shot
        assert b"serve.completed" in scrape


class TestRankJobs:
    """The bulk workload: ``{"rank": {...}}`` requests through the service."""

    def test_rank_round_trip(self, service):
        payload = service.evaluate({"rank": {"sample": 40, "top": 5}})
        assert len(payload["rank"]) == 5
        assert payload["points_evaluated"] > 0
        assert payload["shards"] >= 1
        best = payload["rank"][0]
        for key in (
            "point",
            "mean_seconds",
            "mean_comm_fraction",
            "comm_lines_total",
            "locality_options",
        ):
            assert key in best
        # Deterministic: the same sweep returns the identical payload.
        assert service.evaluate({"rank": {"sample": 40, "top": 5}}) == payload

    def test_rank_matches_a_direct_explorer_ranking(self, service):
        payload = service.evaluate({"rank": {"sample": 40, "top": 3}})
        points = DesignSpace().feasible_points()
        step = max(len(points) // 40, 1)
        direct = Explorer(trace_cache=TraceCache()).rank_design_points(
            points[::step]
        )
        assert [e["point"] for e in payload["rank"]] == [
            e.point.label for e in direct[:3]
        ]
        assert payload["rank"][0]["mean_seconds"] == direct[0].mean_seconds

    def test_rank_builds_no_design_point(self, service, monkeypatch):
        from repro.core.design_point import DesignPoint

        service.evaluate({"rank": {"sample": 40, "top": 3}})
        built = []
        original = DesignPoint.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DesignPoint, "__init__", counting_init)
        first = DesignSpace().feasible_points()[0]
        DesignPoint(first.address_space, first.comm, first.locality)
        assert built == [1]  # the patch counts constructions
        built.clear()
        payload = service.evaluate({"rank": {"sample": 0, "top": 3}})
        assert payload["points_evaluated"] == 1933
        assert built == []

    @pytest.mark.parametrize(
        "request_body",
        [
            {"rank": "everything"},
            {"rank": {"sample": -1}},
            {"rank": {"sample": 1.5}},
            {"rank": {"top": 0}},
            {"rank": {"shards": 0}},
            {"rank": {"shards": "many"}},
            {"rank": {}, "faults": "pcie:fail=0.5"},
            {"rank": {}, "deadline": 0},
            {"rank": {}, "deadline": float("nan")},
            {"rank": {"sample": True}},
            {"rank": {"top": True}},
            {"rank": {"shards": True}},
            {"rank": {}, "deadline": True},
        ],
    )
    def test_bad_rank_requests_rejected(self, service, request_body):
        with pytest.raises(ConfigError):
            service.evaluate(request_body)

    def test_scrape_exports_cache_stats(self, service):
        service.evaluate({"point": POINT, "kernels": ["reduction"]})
        scrape = service.scrape()
        samples = dict(
            line.split(" ", 1) for line in scrape.strip().splitlines()
        )
        for cache_name in ("trace", "result", "compile"):
            assert any(
                name.startswith(f"exec.cache.{cache_name}.") for name in samples
            ), cache_name


class TestRankHTTP:
    def test_rank_job_over_http(self, server):
        status, body = _http(
            "POST",
            f"{server.address}/v1/jobs",
            {"rank": {"sample": 40, "top": 3}},
        )
        assert status == 202
        job_id = json.loads(body)["job"]
        deadline = time.monotonic() + 60.0
        info = {}
        while time.monotonic() < deadline:
            status, body = _http("GET", f"{server.address}/v1/jobs/{job_id}")
            assert status == 200
            info = json.loads(body)
            if info["state"] in ("done", "error"):
                break
            time.sleep(0.02)
        assert info["state"] == "done"
        assert len(info["result"]["rank"]) == 3

    def test_bad_rank_request_is_400(self, server):
        status, body = _http(
            "POST", f"{server.address}/v1/evaluate", {"rank": {"top": 0}}
        )
        assert status == 400 and json.loads(body)["error"] == "ConfigError"
