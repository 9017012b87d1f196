"""The serve-mix workload: a live ``repro-explore serve`` under load.

The server runs as a subprocess (``serve --jobs 1 --store DIR``) and two
closed-loop clients, each on one keep-alive HTTP connection, drive it in
rounds. A round is, per client, a seeded shuffle of
:data:`FAST_PER_CLIENT` fast evaluations of random feasible labels and
one detailed single-kernel evaluation, with one full-space rank request
in the middle (both clients send it at once, so the queue coalesces
them). Between them the two clients cover all six kernels once every
three rounds; each detailed evaluation is of a (kernel, timing class)
pair not yet in the store, so it simulates and writes through with
fsync. The timing classes run out after 66 rounds.

Set-up starts the server on an empty store, fills it with one rank
request (every fast result lands on disk), stops it and starts it again
against the store, so first-touch fast lookups are disk reads.

Every response is compared with the answer the in-process ``Explorer``
gives, and with ``digests.json``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from layers import Recorder
from workloads import Round, TracedPass, Workload, digest, piece_seconds

__all__ = ["ServeMix"]

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Fast evaluations per client per round: the 3 rounds a run measures at
#: least collect 1050 fast latencies, so p99 has ten samples above it.
FAST_PER_CLIENT = 175
#: The scale the server's explorer runs detailed evaluations at.
DETAILED_SCALE = 0.02
RANK_REQUEST = {"rank": {}}
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


@dataclass(frozen=True)
class Request:
    kind: str  # "fast" | "detailed" | "rank"
    body: dict
    #: (kernel, timing class) for detailed requests, else None.
    key: Optional[tuple] = None


class Server:
    """One server subprocess; traced through ``serve_traced.py`` if asked."""

    def __init__(self, scratch: str, store: str, tag: str, mode: Optional[str] = None) -> None:
        self.log_path = os.path.join(scratch, f"server-{tag}.log")
        self.out_path = os.path.join(scratch, f"server-{tag}.json")
        args = ["serve", "--jobs", "1", "--store", store, "--port", "0"]
        if mode is None:
            self.command = [sys.executable, "-m", "repro.cli"] + args
        else:
            self.command = [
                sys.executable,
                os.path.join(HERE, "serve_traced.py"),
                "--out",
                self.out_path,
                "--mode",
                mode,
                "--",
            ] + args
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.command, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        pattern = re.compile(r"serving on http://([0-9.]+):(\d+)")
        while True:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as log:
                match = pattern.search(log.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start; see {self.log_path}")
            time.sleep(0.01)
        while True:
            try:
                conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
                conn.request("GET", "/readyz")
                ready = conn.getresponse().status == 200
                conn.close()
            except OSError:
                ready = False
            if ready:
                return self
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never became ready")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (the CLI's Ctrl-C path), then wait; kill if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def snapshot(self) -> dict:
        with open(self.out_path, encoding="utf-8") as handle:
            return json.load(handle)


class Client:
    """One closed-loop client on one keep-alive connection."""

    def __init__(self, server: Server) -> None:
        self.conn = http.client.HTTPConnection(server.host, server.port, timeout=120)

    def post(self, body: dict) -> Tuple[int, Optional[dict], float]:
        data = json.dumps(body).encode("utf-8")
        start = time.perf_counter()
        try:
            self.conn.request(
                "POST",
                "/v1/evaluate",
                body=data,
                headers={"Content-Type": "application/json"},
            )
            response = self.conn.getresponse()
            raw = response.read()
            elapsed = time.perf_counter() - start
            return response.status, json.loads(raw), elapsed
        except (OSError, http.client.HTTPException, ValueError):
            self.conn.close()
            return 0, None, time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()


class ServeMix(Workload):
    name = "serve-mix"
    #: The per-kind latencies are read from the records after the window.
    keep_outputs = True
    #: Client latency is mostly loopback TCP timers, which do not slow
    #: with the host, so host-speed scaling would only add noise.
    wall_clock = True

    def load(self) -> None:
        from repro.core.explorer import Explorer
        from repro.core.programmability import table5_dict
        from repro.core.space import DesignSpace
        from repro.exec.cache import SHARED_TRACE_CACHE
        from repro.exec.job import SimJob, run_sim_job
        from repro.kernels.registry import all_kernels
        from repro.locality.schemes import feasible_schemes
        from repro.taxonomy import CommMechanism

        self.Explorer = Explorer
        self.SimJob = SimJob
        self.run_sim_job = run_sim_job
        self.trace_cache = SHARED_TRACE_CACHE
        self.feasible_schemes = feasible_schemes
        self.table5_dict = table5_dict
        self.dma = CommMechanism.DMA_ASYNC
        self.points = DesignSpace().feasible_points()
        self.by_label = {p.label: p for p in self.points}
        self.labels = [p.label for p in self.points]
        self.kernels = [k.name for k in all_kernels()]
        # Per kernel, an order of the 22 timing classes (comm, async,
        # space), each with a seeded representative label. The order is
        # fixed, so every seed simulates the same (kernel, class) pairs in
        # a round and the server's peak memory does not depend on the seed.
        classes: Dict[tuple, List[str]] = {}
        for point in self.points:
            classes.setdefault(self.timing_class(point), []).append(point.label)
        rng = random.Random(self.seed)
        ordered = sorted(classes)
        self.pool = {}
        for shift, name in enumerate(self.kernels):
            order = ordered[shift:] + ordered[:shift]
            self.pool[name] = [(cls, rng.choice(classes[cls])) for cls in order]
        #: Rounds in which the two clients cover every kernel once.
        self.cycle = len(self.kernels) // 2
        self.rounds_available = self.cycle * min(len(v) for v in self.pool.values())
        self.server: Optional[Server] = None
        self.clients: List[Client] = []
        self.pristine = ""
        self.fast_expected: Optional[Dict[str, dict]] = None
        self.rank_expected: Optional[dict] = None
        self.detailed_cache: Dict[tuple, dict] = {}
        self.store_count = 0

    def timing_class(self, point) -> tuple:
        return (point.comm.value, point.comm is self.dma, point.address_space.value)

    # -- servers -------------------------------------------------------------

    def fresh_store(self) -> str:
        self.store_count += 1
        return os.path.join(self.scratch, f"store-{self.store_count}")

    def start(self, store: str, mode: Optional[str] = None) -> Server:
        self.stop_server()
        self.server = Server(self.scratch, store, f"{self.store_count}-{mode}", mode).start()
        self.clients = [Client(self.server), Client(self.server)]
        return self.server

    def stop_server(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def setup(self) -> None:
        """Boot on an empty store, fill it, restart against it."""
        store = self.fresh_store()
        self.start(store)
        status, payload, _ = self.clients[0].post(RANK_REQUEST)
        self.side_checks[0] += 1
        self.side_checks[1] += not self.matches(Request("rank", RANK_REQUEST), status, payload)
        self.stop_server()
        self.pristine = store + "-pristine"
        shutil.copytree(store, self.pristine)
        self.start(store)

    def restart_from_pristine(self, mode: str) -> Server:
        store = self.fresh_store()
        shutil.copytree(self.pristine, store)
        return self.start(store, mode)

    # -- rounds --------------------------------------------------------------

    def has_round(self, index: int) -> bool:
        return index < self.rounds_available

    def schedule(self, index: int) -> List[Tuple[list, Request, list]]:
        rng = random.Random(f"{self.seed}:{index}")
        plans = []
        for client in range(2):
            requests = [
                Request("fast", {"point": rng.choice(self.labels)})
                for _ in range(FAST_PER_CLIENT)
            ]
            name = self.kernels[(2 * index + client) % len(self.kernels)]
            cls, label = self.pool[name][index // self.cycle]
            requests.append(
                Request(
                    "detailed",
                    {"point": label, "kernels": [name], "fidelity": "detailed"},
                    key=(name,) + cls,
                )
            )
            rng.shuffle(requests)
            middle = len(requests) // 2
            plans.append(
                (requests[:middle], Request("rank", RANK_REQUEST), requests[middle:])
            )
        return plans

    def run_round(self, index: int) -> Round:
        plans = self.schedule(index)
        records: List[list] = [[], []]
        barrier = threading.Barrier(2)

        def send(client: int, request: Request) -> None:
            status, payload, elapsed = self.clients[client].post(request.body)
            records[client].append((request, status, payload, elapsed))

        def drive(client: int) -> None:
            before, rank, after = plans[client]
            barrier.wait()
            for request in before:
                send(client, request)
            # Both clients send the rank request together, so it coalesces.
            # It comes mid-round: the fast lookups before it in the first
            # round read the store from disk, the rank's write-through
            # then warms the memo.
            barrier.wait()
            send(client, rank)
            for request in after:
                send(client, request)

        helper = threading.Thread(target=drive, args=(1,))
        helper.start()
        start = time.perf_counter()
        drive(0)
        helper.join()
        seconds = time.perf_counter() - start
        flat = records[0] + records[1]
        return Round(
            seconds=seconds,
            work=float(sum(1 for _, status, _, _ in flat if status == 200)),
            latencies=[elapsed for *_, elapsed in flat],
            outputs={"records": flat},
            key="round",
        )

    def counts(self, rnd: Round) -> Dict[str, float]:
        return {}

    # -- checks --------------------------------------------------------------

    def evaluation_payload(self, point, fidelity: str, results) -> dict:
        totals = [r.total_seconds for r in results]
        fractions = [r.breakdown.communication_fraction for r in results]
        lines = sum(per_kernel[point.address_space] for per_kernel in self.table5_dict().values())
        return {
            "point": point.label,
            "fidelity": fidelity,
            "degraded": any(r.degraded for r in results),
            "mean_seconds": sum(totals) / len(totals),
            "mean_comm_fraction": sum(fractions) / len(fractions),
            "comm_lines_total": lines,
            "locality_options": len(self.feasible_schemes(point.address_space)),
        }

    def expected_fast(self) -> Dict[str, dict]:
        """Every label's fast evaluation, in-process (computed once)."""
        if self.fast_expected is None:
            explorer = self.Explorer(jobs=1)
            self.fast_expected = {}
            for point in self.points:
                evaluation = explorer.evaluate_design_point(point)
                self.fast_expected[point.label] = json.loads(
                    json.dumps(
                        {
                            "point": point.label,
                            "fidelity": "fast",
                            "degraded": False,
                            "mean_seconds": evaluation.mean_seconds,
                            "mean_comm_fraction": evaluation.mean_comm_fraction,
                            "comm_lines_total": evaluation.comm_lines_total,
                            "locality_options": evaluation.locality_options,
                        }
                    )
                )
        return self.fast_expected

    def expected_rank(self) -> dict:
        if self.rank_expected is None:
            ranking = self.Explorer(jobs=1).rank_design_points(self.points)
            self.rank_expected = json.loads(
                json.dumps(
                    {
                        "rank": [
                            {
                                "point": e.point.label,
                                "mean_seconds": e.mean_seconds,
                                "mean_comm_fraction": e.mean_comm_fraction,
                                "comm_lines_total": e.comm_lines_total,
                                "locality_options": e.locality_options,
                            }
                            for e in ranking[:10]
                        ],
                        "points_evaluated": len(self.points),
                        "shards": 2,
                    }
                )
            )
        return self.rank_expected

    def expected_detailed(self, key: tuple, label: str) -> dict:
        """The detailed evaluation the server should give, relabeled."""
        if key not in self.detailed_cache:
            point = self.by_label[label]
            kernel_name = key[0]
            from repro.kernels.registry import kernel

            job = self.SimJob(
                trace=self.trace_cache.get(kernel(kernel_name)).scaled(DETAILED_SCALE),
                mechanism=point.comm,
                async_overlap=point.comm is self.dma,
                address_space=point.address_space,
                system_name=point.label,
                detailed=True,
            )
            payload = self.evaluation_payload(point, "detailed", [self.run_sim_job(job)])
            self.detailed_cache[key] = json.loads(json.dumps(payload))
        return dict(self.detailed_cache[key], point=label)

    def expected_digests(self) -> dict:
        """The ``serve-mix`` section of ``digests.json``."""
        fast = self.expected_fast()
        detailed = {}
        for name in self.kernels:
            for cls, label in self.pool[name]:
                key = (name,) + cls
                payload = dict(self.expected_detailed(key, label))
                del payload["point"]
                detailed["|".join(map(str, key))] = digest(payload)
        return {
            "fast": digest(sorted(fast.items())),
            "rank": digest(self.expected_rank()),
            "detailed": detailed,
        }

    def matches(self, request: Request, status: int, payload: Optional[dict]) -> bool:
        if status != 200 or payload is None:
            return False
        stored = self.expected["serve-mix"]
        if request.kind == "rank":
            want = self.expected_rank()
            return payload == want and digest(payload) == stored["rank"]
        if request.kind == "fast":
            if not getattr(self, "_fast_digest_ok", False):
                self._fast_digest_ok = digest(sorted(self.expected_fast().items())) == stored["fast"]
            return self._fast_digest_ok and payload == self.expected_fast()[request.body["point"]]
        want = self.expected_detailed(request.key, request.body["point"])
        if payload != want:
            return False
        unlabeled = dict(payload)
        del unlabeled["point"]
        return digest(unlabeled) == stored["detailed"].get("|".join(map(str, request.key)))

    def check(self, rnd: Round) -> Tuple[int, int]:
        records = rnd.outputs["records"]
        failed = sum(
            1
            for request, status, payload, _ in records
            if not self.matches(request, status, payload)
        )
        return len(records), failed

    # -- metrics -------------------------------------------------------------

    @staticmethod
    def latencies_by_kind(rounds) -> Dict[str, List[float]]:
        kinds: Dict[str, List[float]] = {"fast": [], "detailed": [], "rank": []}
        for rnd in rounds:
            for request, _, _, elapsed in rnd.outputs["records"]:
                kinds[request.kind].append(elapsed)
        return kinds

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def traced_pass(self, rounds: int, untraced: Dict[str, float]) -> TracedPass:
        """Traced server on a copy of the filled store, then a profiled one.

        Spans and compile counters are taken inside the server process
        (``serve_traced.py``) and written out when it stops.
        """
        rounds = min(rounds, self.rounds_available)
        self.restart_from_pristine("trace")
        done = [self.run_round(i) for i in range(rounds)]
        server = self.server
        self.stop_server()
        snap = server.snapshot()
        self.restart_from_pristine("profile")
        profiled = self.run_round(0)
        server = self.server
        self.stop_server()
        shares = server.snapshot()["shares"]
        for rnd in done + [profiled]:
            self.side_check(rnd)

        recorder = Recorder()
        recorder.merge(snap["recorder"])
        serve = snap["serve"]
        client_s = 0.0
        for rnd in done:
            for request, _, _, elapsed in rnd.outputs["records"]:
                if request.kind != "rank":
                    client_s += elapsed
        server_s = sum(
            serve["wait"].get(kind, 0.0) + serve["execute"].get(kind, 0.0)
            for kind in ("fast", "detailed")
        )
        execute = recorder.inclusive("serve.execute")
        return TracedPass(
            recorder=recorder,
            compile_stats=snap["compile"],
            counts={},
            unattributed=recorder.self_time("serve.execute") / execute if execute else 0.0,
            overhead=piece_seconds(done)["round"] / untraced["round"],
            shares=shares,
            serve={
                "serve.queue_wait_s": sum(serve["wait"].values()),
                "serve.execute_s": sum(serve["execute"].values()),
                "serve.http_s": max(0.0, client_s - server_s),
                "serve.coalesced": serve["coalesced"],
            },
        )

    def close(self) -> None:
        self.stop_server()
