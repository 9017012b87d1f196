"""The supervised exploration daemon (``repro-explore serve``).

:class:`ExplorationService` is the HTTP-free core — a dispatcher thread
draining the :class:`~repro.serve.queue.CoalescingQueue` through an
:class:`~repro.core.explorer.Explorer` — and :class:`ExplorationServer`
wraps it in a stdlib ``ThreadingHTTPServer``. Robustness behaviours:

- **Coalescing + backpressure** come from the queue: identical in-flight
  requests share one computation; past the depth bound, submissions get
  a typed :class:`~repro.errors.QueueFullError` (HTTP 503).
- **Deadlines** are per request: a waiter whose deadline passes gets
  :class:`~repro.errors.DeadlineExceededError` (HTTP 504) while the job
  itself runs to completion — its result still lands in the store for
  the next asker.
- **Degradation under deadline pressure** reuses the detailed→fast
  machinery: a ``detailed`` request that has already burned most of its
  deadline waiting in the queue is executed through the fast model
  instead, flagged ``degraded`` in the response.
- **Watchdog**: a crashed worker pool (the runner's supervision budget
  exhausted) fails the in-flight request with a typed error, then the
  service rebuilds its explorer — fresh pool — and keeps serving, up to
  a restart budget; past the budget it reports unready and sheds.
- **Warm start**: booting against a ``--store`` directory reopens the
  durable index, so previously computed evaluations are served from
  disk without simulating anything.

Health (``/healthz``), readiness (``/readyz``), and a ``/metrics``
scrape of the ``serve.``/``exec.``/``store.`` registries round out the
operational surface.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional

from repro.config import knobs
from repro.core.explorer import Explorer
from repro.core.space import DesignSpace
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    DesignSpaceError,
    QueueFullError,
    ReproError,
    ServeError,
    SimulationError,
    TraceError,
)
from repro.faults.spec import FaultPlan
from repro.kernels.registry import all_kernels, kernel as kernel_by_name
from repro.obs.log import get_logger
from repro.obs.metrics import MetricRegistry
from repro.serve.queue import CoalescingQueue, Job

__all__ = ["ExplorationService", "ExplorationServer", "run_server"]

_log = get_logger("serve")

#: Fraction of a request's deadline it may burn waiting in the queue
#: before a ``detailed`` evaluation degrades to the fast model.
DEGRADE_PRESSURE = 0.5


class ExplorationService:
    """Dispatcher + queue + watchdog around one (rebuildable) Explorer."""

    def __init__(
        self,
        explorer_factory: Callable[[], Explorer],
        queue_depth: int = 32,
        default_deadline: float = 30.0,
        watchdog_budget: int = 3,
        history: int = 256,
    ) -> None:
        self.default_deadline = knobs.value("deadline", default_deadline, "default deadline")
        self.watchdog_budget = knobs.value("watchdog_budget", watchdog_budget, "watchdog budget")
        self.queue = CoalescingQueue(max_depth=queue_depth, history=history)
        self._factory = explorer_factory
        self.explorer = explorer_factory()
        self.metrics = MetricRegistry("serve")
        self._requests = self.metrics.counter(
            "requests", unit="requests", description="evaluation submissions"
        )
        self._completed = self.metrics.counter(
            "completed", unit="jobs", description="jobs finished successfully"
        )
        self._failed = self.metrics.counter(
            "failed", unit="jobs", description="jobs finished with a typed error"
        )
        self._deadline_timeouts = self.metrics.counter(
            "deadline_timeouts",
            unit="requests",
            description="waits abandoned past their deadline",
        )
        self._degraded = self.metrics.counter(
            "degraded",
            unit="jobs",
            description="detailed requests served by the fast model "
            "under deadline pressure",
        )
        self._watchdog_restarts = self.metrics.counter(
            "watchdog_restarts",
            unit="restarts",
            description="explorer rebuilds after a crashed worker pool",
        )
        self._queue_depth = self.metrics.gauge(
            "queue_depth", unit="jobs", description="pending jobs"
        )
        self._warm_entries = self.metrics.gauge(
            "warm_entries",
            unit="entries",
            description="store entries available at boot",
        )
        #: Valid design-point labels, resolved once at boot.
        self._points = {p.label: p for p in DesignSpace().feasible_points()}
        self._restarts_used = 0
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._dispatcher = threading.Thread(
            target=self._run, name="serve-dispatcher", daemon=True
        )
        if self.explorer.store is not None:
            warm = len(self.explorer.store)
            self._warm_entries.set(warm)
            if warm:
                _log.info("warm start: %d stored evaluation(s) available", warm)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._dispatcher.start()
        self._ready.set()

    def stop(self) -> None:
        self._stop.set()
        self._ready.clear()
        drained = self.queue.drain(ServeError("service shutting down"))
        if drained:
            _log.info("shutdown: failed %d pending job(s)", drained)
        self._dispatcher.join(timeout=10.0)

    @property
    def ready(self) -> bool:
        """Accepting work: dispatcher alive, restart budget not exhausted."""
        return (
            self._ready.is_set()
            and not self._stop.is_set()
            and self._dispatcher.is_alive()
        )

    @property
    def alive(self) -> bool:
        return not self._stop.is_set()

    # -- request intake ----------------------------------------------------

    def _canonical(self, request: dict) -> dict:
        """Validate and normalize a request body (ConfigError on bad input)."""
        if not isinstance(request, dict):
            raise ConfigError("request body must be a JSON object")
        if "rank" in request:
            return self._canonical_rank(request)
        point = request.get("point")
        if not isinstance(point, str) or point not in self._points:
            raise ConfigError(
                f"unknown design point {point!r}; labels look like "
                "'SHA+MAP/coarse/CC/strong'"
            )
        kernels = request.get("kernels", [])
        if not isinstance(kernels, list) or not all(
            isinstance(name, str) for name in kernels
        ):
            raise ConfigError("kernels must be a list of kernel names")
        # An absent or empty list means every kernel.
        kernels = kernels or [k.name for k in all_kernels()]
        for name in kernels:
            kernel_by_name(name)  # raises ConfigError on unknown names
        fidelity = knobs.value("fidelity", request.get("fidelity", "fast"), "fidelity")
        deadline = self._deadline(request)
        faults = request.get("faults")
        if faults is not None:
            if not isinstance(faults, str):
                raise ConfigError("faults must be a fault-spec string")
            FaultPlan.parse(faults)  # validate grammar up front
        return {
            "point": point,
            "kernels": list(kernels),
            "fidelity": fidelity,
            "deadline": deadline,
            "faults": faults,
        }

    def _deadline(self, request: dict) -> float:
        """The request's deadline in seconds (the service default when
        absent)."""
        deadline = request.get("deadline", self.default_deadline)
        return knobs.value("deadline", deadline, "deadline")

    def _canonical_rank(self, request: dict) -> dict:
        """Validate a rank-sweep request: ``{"rank": {...}}``.

        Rank jobs are the service's bulk workload — the full (or sampled)
        design space ranked in one job, sharded across the worker pool
        (:meth:`Explorer.rank_design_points` with ``shards``). They ride
        the same queue as point evaluations, so identical in-flight rank
        sweeps coalesce and backpressure applies unchanged.
        """
        spec = request.get("rank")
        if not isinstance(spec, dict):
            raise ConfigError("rank must be an object, e.g. {'rank': {}}")
        rank = {
            name: knobs.value(name, spec.get(name, default), f"rank.{name}")
            for name, default in (("sample", 0), ("top", 10), ("shards", "auto"))
        }
        if request.get("faults"):
            raise ConfigError("rank sweeps do not support fault injection")
        return {
            "rank": rank,
            "deadline": self._deadline(request),
            "faults": None,
        }

    def submit(self, request: dict) -> Job:
        """Queue (or coalesce) one evaluation; typed errors on bad input/full."""
        if not self.ready:
            raise QueueFullError("service is not accepting work (unready)")
        canonical = self._canonical(request)
        key = json.dumps(
            {k: v for k, v in canonical.items() if k != "deadline"}, sort_keys=True
        )
        job, created = self.queue.submit(key, canonical, time.monotonic())
        self._requests.inc()
        self._queue_depth.set(len(self.queue))
        if not created:
            _log.debug("coalesced request onto %s (%d waiters)", job.id, job.waiters)
        return job

    def evaluate(self, request: dict) -> dict:
        """Submit and wait (the synchronous ``POST /v1/evaluate`` path).

        Raises :class:`DeadlineExceededError` when the deadline passes
        first; the job keeps running and its result still reaches the
        store.
        """
        canonical = self._canonical(request)
        job = self.submit(canonical)
        try:
            return job.future.result(timeout=canonical["deadline"])
        except FutureTimeoutError:
            self._deadline_timeouts.inc()
            raise DeadlineExceededError(
                f"deadline of {canonical['deadline']:g}s passed before "
                f"{job.id} finished; poll /v1/jobs/{job.id} for the result"
            ) from None

    # -- dispatcher --------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            job = self.queue.next(timeout=0.1)
            self._queue_depth.set(len(self.queue))
            if job is None:
                continue
            try:
                result = self._execute(job)
            except ReproError as exc:
                self._failed.inc()
                self.queue.finish(job, None, exc)
                self._watchdog(job, exc)
            except Exception as exc:  # noqa: BLE001 - watchdog boundary
                self._failed.inc()
                self.queue.finish(job, None, ServeError(f"internal error: {exc}"))
                self._watchdog(job, exc)
            else:
                self._completed.inc()
                self.queue.finish(job, result, None)

    def _watchdog(self, job: Job, exc: BaseException) -> None:
        """Rebuild the explorer after a pool crash, within the budget.

        The runner already restarts broken pools internally; by the time
        a :class:`SimulationError` escapes it, the pool supervision
        budget is spent. One service-level rebuild gets a fresh explorer
        (fresh pool, same store); past ``watchdog_budget`` rebuilds the
        service declares itself unready instead of crash-looping.

        Fault-injected requests run on a one-off explorer; their typed
        failures are the *requested* outcome, so they never consume the
        budget of the shared pool's watchdog.
        """
        if job.request.get("faults"):
            return
        if not isinstance(exc, SimulationError):
            return
        if self._restarts_used >= self.watchdog_budget:
            _log.error(
                "watchdog budget exhausted (%d restarts); going unready",
                self._restarts_used,
            )
            self._ready.clear()
            self._stop.set()
            self.queue.drain(ServeError("service stopped: watchdog budget exhausted"))
            return
        self._restarts_used += 1
        self._watchdog_restarts.inc()
        _log.warning(
            "watchdog: rebuilding explorer after %s (%d/%d restarts)",
            type(exc).__name__,
            self._restarts_used,
            self.watchdog_budget,
        )
        self.explorer = self._factory()

    def _execute(self, job: Job) -> dict:
        request = job.request
        if request.get("rank"):
            return self._execute_rank(job)
        point = self._points[request["point"]]
        kernels = [kernel_by_name(name) for name in request["kernels"]]
        fidelity = request["fidelity"]
        degraded = False
        waited = time.monotonic() - job.enqueued_at
        if fidelity == "detailed" and waited > DEGRADE_PRESSURE * request["deadline"]:
            # Most of the deadline burned in the queue: serve the fast
            # model now rather than miss the deadline with the detailed
            # one. Same degradation contract as the per-job machinery.
            fidelity = "fast"
            degraded = True
            self._degraded.inc()
            _log.warning(
                "%s: degrading detailed -> fast (waited %.2fs of %.2fs deadline)",
                job.id,
                waited,
                request["deadline"],
            )
        explorer = self.explorer
        if request["faults"]:
            # Fault-injected evaluations get a one-off explorer: the
            # plan wraps every channel, results are uncacheable by
            # design, and the main explorer's store stays clean.
            explorer = Explorer(
                jobs=1,
                trace_cache=self.explorer.trace_cache,
                faults=FaultPlan.parse(request["faults"]),
            )
        evaluation = explorer.evaluate_design_point(
            point, kernels, detailed=fidelity == "detailed"
        )
        payload = {
            "point": evaluation.point.label,
            "fidelity": fidelity,
            "degraded": degraded,
            "mean_seconds": evaluation.mean_seconds,
            "mean_comm_fraction": evaluation.mean_comm_fraction,
            "comm_lines_total": evaluation.comm_lines_total,
            "locality_options": evaluation.locality_options,
        }
        if any(r.degraded for r in explorer.last_results):
            payload["degraded"] = True
        return payload

    def _execute_rank(self, job: Job) -> dict:
        """One rank sweep: sampled point space, sharded across the pool."""
        spec = job.request["rank"]
        points = DesignSpace().feasible_sample(spec["sample"])
        shards = self.explorer.shard_count(spec["shards"])
        evaluations = self.explorer.rank_design_points(points, shards=shards)
        return {
            "rank": [
                {
                    "point": e.point.label,
                    "mean_seconds": e.mean_seconds,
                    "mean_comm_fraction": e.mean_comm_fraction,
                    "comm_lines_total": e.comm_lines_total,
                    "locality_options": e.locality_options,
                }
                for e in evaluations[: spec["top"]]
            ],
            "points_evaluated": len(points),
            "shards": shards,
        }

    # -- observability -----------------------------------------------------

    def scrape(self) -> str:
        """The ``/metrics`` text: ``name value`` lines, sorted."""
        samples: Dict[str, float] = {}
        for name, value in self.metrics.as_dict().items():
            samples[f"serve.{name}"] = value
        samples["serve.queue.submitted"] = self.queue.submitted
        samples["serve.queue.coalesced"] = self.queue.coalesced
        samples["serve.queue.shed"] = self.queue.shed
        for name, value in self.explorer.run_stats.metrics.as_dict().items():
            samples[f"exec.{name}"] = value
        for cache_name, stats in self.explorer.cache_stats().items():
            for name, value in stats.items():
                samples[f"exec.cache.{cache_name}.{name}"] = value
        if self.explorer.store is not None:
            for name, value in self.explorer.store.metrics.as_dict().items():
                samples[f"store.{name}"] = value
        return "".join(
            f"{name} {value:g}\n" for name, value in sorted(samples.items())
        )


class _Handler(BaseHTTPRequestHandler):
    """JSON-over-HTTP surface for one :class:`ExplorationService`.

    A response is one write: ``wfile`` is buffered and
    ``handle_one_request`` flushes it once per request, so headers and
    body leave together instead of the body waiting out Nagle's algorithm
    for the client's delayed ACK. ``TCP_NODELAY`` keeps a reply larger
    than the buffer from stalling the same way.
    """

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    @property
    def service(self) -> ExplorationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        _log.debug("http: " + format, *args)

    def _reply(self, status: int, payload: "dict | str") -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, exc: BaseException) -> None:
        self._reply(status, {"error": type(exc).__name__, "detail": str(exc)})

    def handle_expect_100(self) -> bool:
        # The client holds the body back until it sees the interim reply,
        # so that reply cannot wait in the buffer for the final one.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _read_body(self) -> bytes:
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            # Where the body ends is unknown, so the connection cannot
            # carry another request.
            self.close_connection = True
            raise ConfigError(
                f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        length = int(declared)
        return self.rfile.read(length) if length else b"{}"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/healthz":
                self._reply(200 if self.service.alive else 503, {"alive": self.service.alive})
            elif self.path == "/readyz":
                ready = self.service.ready
                self._reply(200 if ready else 503, {"ready": ready})
            elif self.path == "/metrics":
                self._reply(200, self.service.scrape())
            elif self.path.startswith("/v1/jobs/"):
                job = self.service.queue.get(self.path[len("/v1/jobs/") :])
                if job is None:
                    self._reply(404, {"error": "NotFound", "detail": self.path})
                else:
                    self._reply(200, job.describe())
            else:
                self._reply(404, {"error": "NotFound", "detail": self.path})
        except Exception as exc:  # noqa: BLE001 - HTTP boundary
            self._error(500, exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            raw = self._read_body()
            try:
                request = json.loads(raw or b"{}")
            except ValueError as exc:
                self._error(400, ConfigError(f"request body is not JSON: {exc}"))
                return
            if self.path == "/v1/evaluate":
                self._reply(200, self.service.evaluate(request))
            elif self.path == "/v1/jobs":
                job = self.service.submit(request)
                self._reply(202, {"job": job.id, "state": job.state})
            else:
                self._reply(404, {"error": "NotFound", "detail": self.path})
        except QueueFullError as exc:
            self._error(503, exc)
        except DeadlineExceededError as exc:
            self._error(504, exc)
        except (ConfigError, DesignSpaceError, TraceError) as exc:
            self._error(400, exc)
        except ReproError as exc:
            self._error(500, exc)
        except Exception as exc:  # noqa: BLE001 - HTTP boundary
            self._error(500, exc)


class ExplorationServer:
    """A :class:`ThreadingHTTPServer` bound to one service instance."""

    def __init__(
        self, service: ExplorationService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        try:
            self.httpd = ThreadingHTTPServer((host, port), _Handler)
        except OSError as exc:
            raise ServeError(f"cannot bind {host}:{port}: {exc}") from exc
        self.httpd.daemon_threads = True
        self.httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Start service + HTTP loop in the background (tests, chaos)."""
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        _log.info("serving on %s", self.address)

    def serve_forever(self) -> None:
        """Foreground mode (the CLI): blocks until interrupted."""
        self.service.start()
        _log.info("serving on %s", self.address)
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self.stop()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.service.stop()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None


def run_server(
    host: str = "127.0.0.1",
    port: int = 8763,
    jobs: "int | str" = 1,
    queue_depth: int = 32,
    deadline: float = 30.0,
    watchdog_budget: int = 3,
    store_path: Optional[str] = None,
    retries: int = 0,
    job_timeout: Optional[float] = None,
) -> ExplorationServer:
    """Build a ready-to-start server from CLI-ish parameters.

    Every knob is checked before the store directory is opened, so a bad
    one raises :class:`~repro.errors.ConfigError` and leaves no trace on
    disk.
    """
    from repro.exec.retry import RetryPolicy
    from repro.store import ResultStore

    port = knobs.value("port", port, "port")
    jobs = knobs.value("jobs", jobs, "jobs")
    queue_depth = knobs.value("queue_depth", queue_depth, "queue depth")
    deadline = knobs.value("deadline", deadline, "default deadline")
    watchdog_budget = knobs.value("watchdog_budget", watchdog_budget, "watchdog budget")
    retries = knobs.value("retries", retries, "retries")
    job_timeout = knobs.value("job_timeout", job_timeout, "job timeout")
    store = ResultStore(store_path) if store_path else None

    def factory() -> Explorer:
        return Explorer(
            jobs=jobs,
            retry=RetryPolicy(retries=retries) if retries else None,
            job_timeout=job_timeout,
            store=store,
        )

    service = ExplorationService(
        explorer_factory=factory,
        queue_depth=queue_depth,
        default_deadline=deadline,
        watchdog_budget=watchdog_budget,
    )
    return ExplorationServer(service, host=host, port=port)
