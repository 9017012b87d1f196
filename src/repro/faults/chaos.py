"""Seeded, deterministic chaos scenarios for the exploration service.

Each :class:`ChaosScenario` stages one failure mode — a SIGKILLed sweep,
a worker process dying mid-job, torn or corrupted store bytes, injected
communication faults, queue overload, deadline pressure — and asserts
the system's contract: the run must end with **byte-identical-to-clean
results or an explicit typed error**; never a hang, never silent
corruption. A scenario that observes anything else raises
:class:`~repro.errors.ChaosError`, which the CLI maps to the integrity
exit code (5).

Determinism: every random choice (which entry to corrupt, which byte to
flip, which worker to kill) comes from a :class:`random.Random` seeded
with :func:`~repro.faults.spec.derive_seed` of the run seed and the
scenario id, so a CI failure reproduces locally with the same ``--seed``.
Timing choices (when a SIGKILL lands) are driven by *observed state*
(journal bytes on disk, a queued job's state), not sleeps, so outcomes —
though not instruction-exact schedules — are stable across machines.

Scenario catalogue (ids are load-bearing: lint rule L006 requires each
to appear in ``docs/chaos-scenarios.md`` and ``tests/faults/test_chaos.py``):

- ``sweep-sigkill`` — kill a ``rank --store`` subprocess mid-sweep;
  rerun must be byte-identical to a storeless run, with store hits.
- ``shard-sigkill`` — kill a sharded ``rank --checkpoint`` subprocess
  and its pool workers (the whole process group) mid-sweep; none may
  survive, and the sharded rerun (and an unsharded resume of the same
  store) must be byte-identical to a clean run.
- ``worker-kill`` — SIGKILL a pool worker mid-batch; the supervised
  runner must deliver results equal to the serial clean run.
- ``store-torn-write`` — a crash mid-append leaves a torn record;
  reopening must recover the exact committed prefix.
- ``store-corrupt-entry`` — flip one committed payload byte; reads must
  quarantine and recompute, never serve the corrupt bytes.
- ``serve-comm-faults`` — inject comm faults against a live server; the
  response must be a typed error, and the next clean response
  byte-identical to the pre-fault baseline.
- ``serve-overload`` — flood a bounded queue once its occupier is
  observed running; overflow must shed with a typed 503 while accepted
  jobs finish and readiness recovers.
- ``serve-deadline`` — an idle tiny-deadline request must time out
  typed (504); a queued detailed request under pressure must degrade to
  the fast model and say so.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ChaosError
from repro.faults.spec import derive_seed
from repro.obs.log import get_logger

__all__ = ["ChaosScenario", "ChaosOutcome", "ChaosContext", "scenarios", "run_scenarios"]

_log = get_logger("faults.chaos")

#: Hard wall-clock bound on any single scenario: "never a hang" is part
#: of the contract, so a scenario that outlives this is itself a failure.
SCENARIO_TIMEOUT = 120.0


@dataclass(frozen=True)
class ChaosScenario:
    """One registered failure-mode scenario."""

    id: str
    description: str
    run: Callable[["ChaosContext"], str] = field(repr=False, compare=False)


@dataclass(frozen=True)
class ChaosOutcome:
    """The verdict for one scenario run."""

    scenario: str
    seed: int
    ok: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.scenario} (seed {self.seed}): {self.detail}"


@dataclass
class ChaosContext:
    """Per-scenario execution context: seeded RNG and a scratch directory."""

    scenario_id: str
    seed: int
    workdir: Path
    rng: random.Random

    def fail(self, message: str) -> "ChaosError":
        return ChaosError(f"{self.scenario_id}: {message}")

    # -- subprocess CLI helper --------------------------------------------

    def cli_env(self) -> Dict[str, str]:
        """Environment for ``python -m repro.cli`` subprocesses."""
        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
        return env

    def run_cli(
        self, *args: str, timeout: float = SCENARIO_TIMEOUT
    ) -> Tuple[int, bytes]:
        """Run the CLI to completion; returns (exit code, stdout bytes)."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            env=self.cli_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
        return proc.returncode, proc.stdout

    def spawn_cli(self, *args: str) -> "subprocess.Popen[bytes]":
        """Start the CLI in its own session, so its process group (the CLI
        plus any pool workers it forks) can be killed as a whole."""
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            env=self.cli_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )


_REGISTRY: "Dict[str, ChaosScenario]" = {}


def _scenario(scenario_id: str, description: str):
    def register(func: Callable[[ChaosContext], str]) -> Callable[[ChaosContext], str]:
        _REGISTRY[scenario_id] = ChaosScenario(
            id=scenario_id, description=description, run=func
        )
        return func

    return register


def scenarios() -> List[ChaosScenario]:
    """Every registered scenario, in registration order."""
    return list(_REGISTRY.values())


def run_scenarios(
    ids: Optional[List[str]] = None, seed: int = 0
) -> List[ChaosOutcome]:
    """Run the selected (default: all) scenarios; never raises per-scenario.

    Each scenario gets its own scratch directory and a RNG derived from
    ``(seed, scenario id)``. Failures are captured as non-``ok`` outcomes
    so one broken scenario cannot mask the rest; the CLI turns any
    non-``ok`` outcome into the integrity exit code.
    """
    selected = ids or [s.id for s in scenarios()]
    outcomes: List[ChaosOutcome] = []
    for scenario_id in selected:
        scenario = _REGISTRY.get(scenario_id)
        if scenario is None:
            known = ", ".join(sorted(_REGISTRY))
            raise ChaosError(f"unknown chaos scenario {scenario_id!r}; known: {known}")
        with tempfile.TemporaryDirectory(prefix=f"chaos-{scenario_id}-") as tmp:
            context = ChaosContext(
                scenario_id=scenario_id,
                seed=seed,
                workdir=Path(tmp),
                rng=random.Random(derive_seed(seed, "chaos", scenario_id)),
            )
            started = time.monotonic()
            try:
                detail = scenario.run(context)
                ok = True
            except ChaosError as exc:
                detail = str(exc)
                ok = False
            except Exception as exc:  # noqa: BLE001 - verdict boundary
                detail = f"unexpected {type(exc).__name__}: {exc}"
                ok = False
            elapsed = time.monotonic() - started
            if ok and elapsed > SCENARIO_TIMEOUT:
                ok = False
                detail = f"scenario exceeded its {SCENARIO_TIMEOUT:g}s bound"
            outcomes.append(
                ChaosOutcome(scenario=scenario_id, seed=seed, ok=ok, detail=detail)
            )
            _log.debug("%s", outcomes[-1].line())
    return outcomes


# -- store scenarios --------------------------------------------------------


def _seed_store(context: ChaosContext, root: Path, entries: int = 8) -> Dict[str, bytes]:
    """Populate a store with deterministic payloads; returns key->payload."""
    from repro.store import ResultStore

    payloads = {
        f"result/{context.rng.getrandbits(128):032x}": bytes(
            context.rng.getrandbits(8) for _ in range(context.rng.randrange(64, 256))
        )
        for _ in range(entries)
    }
    with ResultStore(root) as store:
        for key, payload in payloads.items():
            store.put_bytes(key, payload)
    return payloads


@_scenario(
    "store-torn-write",
    "a crash mid-append leaves a torn record; reopening recovers the "
    "exact committed prefix",
)
def _store_torn_write(context: ChaosContext) -> str:
    from repro.store import ResultStore

    root = context.workdir / "store"
    payloads = _seed_store(context, root)
    segment = next((root / "segments").glob("seg-*.jsonl"))
    # A crash between segment-append and journal-commit: committed bytes
    # followed by a torn, unjournaled record — and a torn journal line too.
    torn = b'{"k": "result/torn", "s": "deadbeef", "p": "QUJD'
    with open(segment, "ab") as handle:
        handle.write(torn[: context.rng.randrange(1, len(torn))])
    with open(root / "journal.jsonl", "ab") as handle:
        handle.write(b'{"segment": "seg-000001.jsonl", "le')
    with ResultStore(root) as store:
        if len(store) != len(payloads):
            raise context.fail(
                f"expected {len(payloads)} entries after recovery, got {len(store)}"
            )
        for key, payload in payloads.items():
            read = store.get_bytes(key)
            if read != payload:
                raise context.fail(f"entry {key} not byte-identical after recovery")
        report = store.verify()
        if not report.ok:
            raise context.fail(f"recovered store fails verify: {report.summary()}")
    return f"recovered {len(payloads)} committed entries, torn tail dropped"


@_scenario(
    "store-corrupt-entry",
    "one committed payload byte flipped on disk; reads quarantine and "
    "recompute, never serve corrupt bytes",
)
def _store_corrupt_entry(context: ChaosContext) -> str:
    from repro.store import ResultStore

    root = context.workdir / "store"
    payloads = _seed_store(context, root)
    victim = context.rng.choice(sorted(payloads))
    segment = next((root / "segments").glob("seg-*.jsonl"))
    raw = segment.read_bytes()
    lines = raw.split(b"\n")
    for i, line in enumerate(lines):
        if victim.encode() in line:
            record = json.loads(line)
            # Flip one character inside the base64 payload field.
            payload_text = record["p"]
            at = context.rng.randrange(len(payload_text) - 1)
            flipped = (
                payload_text[:at]
                + ("A" if payload_text[at] != "A" else "B")
                + payload_text[at + 1 :]
            )
            corrupt = line.replace(
                payload_text.encode("ascii"), flipped.encode("ascii")
            )
            # Same length: offsets of later records stay valid, exactly
            # like in-place bit rot.
            if len(corrupt) != len(line):
                raise context.fail("corruption stage changed the record length")
            lines[i] = corrupt
            break
    else:
        raise context.fail(f"victim record {victim} not found in segment")
    segment.write_bytes(b"\n".join(lines))
    with ResultStore(root) as store:
        report = store.verify()
        if report.ok or victim not in report.corrupt:
            raise context.fail("verify did not flag the corrupted entry")
        read = store.get_bytes(victim)
        if read is not None:
            raise context.fail("corrupt entry was served instead of quarantined")
        if store.corruptions < 1:
            raise context.fail("corruption was not counted")
        # The caller's contract: a miss means recompute-and-put repairs it.
        store.put_bytes(victim, payloads[victim])
        repaired = store.get_bytes(victim)
        if repaired != payloads[victim]:
            raise context.fail("repaired entry is not byte-identical")
        report = store.verify()
        if not report.ok:
            raise context.fail(f"store still corrupt after repair: {report.summary()}")
        intact = [k for k in payloads if k != victim]
        for key in intact:
            if store.get_bytes(key) != payloads[key]:
                raise context.fail(f"unrelated entry {key} damaged")
    return "corrupt entry quarantined, recomputed byte-identical, store verifies"


# -- process-kill scenarios -------------------------------------------------


@_scenario(
    "sweep-sigkill",
    "SIGKILL a rank --store sweep mid-run; the rerun is byte-identical "
    "to a clean run with a nonzero store hit rate",
)
def _sweep_sigkill(context: ChaosContext) -> str:
    from repro.store import ResultStore

    store_dir = context.workdir / "store"
    rank_args = ("rank", "--sample", "0", "--top", "5")
    code, clean = context.run_cli(*rank_args)
    if code != 0:
        raise context.fail(f"clean rank exited {code}")
    proc = context.spawn_cli(*rank_args, "--store", str(store_dir))
    journal = store_dir / "journal.jsonl"
    deadline = time.monotonic() + SCENARIO_TIMEOUT / 2
    killed = False
    try:
        # Kill as soon as at least one entry is durably committed — the
        # interesting window where the store is mid-sweep.
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if journal.exists() and journal.stat().st_size > 0:
                proc.send_signal(signal.SIGKILL)
                killed = True
                break
            time.sleep(0.002)
        proc.wait(timeout=SCENARIO_TIMEOUT / 2)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    code, rerun = context.run_cli(*rank_args, "--store", str(store_dir))
    if code != 0:
        raise context.fail(f"rerun against the killed store exited {code}")
    if rerun != clean:
        raise context.fail("rerun output is not byte-identical to the clean run")
    with ResultStore(store_dir) as store:
        entries = len(store)
        report = store.verify()
    if entries == 0:
        raise context.fail("store is empty after the killed sweep + rerun")
    if not report.ok:
        raise context.fail(f"store fails verify after the kill: {report.summary()}")
    # A warm pass must be served from the store (nonzero hit rate).
    code, stats_out = context.run_cli(*rank_args, "--store", str(store_dir), "--stats")
    if code != 0:
        raise context.fail(f"warm stats rerun exited {code}")
    store_line = next(
        (
            line
            for line in stats_out.decode("utf-8", "replace").splitlines()
            if line.startswith("[store]")
        ),
        "",
    )
    hits = 0
    for token in store_line.split():
        if token.startswith("hits="):
            hits = int(token[len("hits=") :])
    if hits == 0:
        raise context.fail(f"warm rerun reported no store hits ({store_line!r})")
    return (
        f"{'killed mid-sweep' if killed else 'sweep finished before the kill'}; "
        f"rerun byte-identical, {entries} entries verified, warm hits={hits}"
    )


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``, from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue  # exited while scanning
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, _ppid, pgrp = text[text.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(stat.parent.name))
    return sorted(members)


@_scenario(
    "shard-sigkill",
    "SIGKILL a sharded rank --checkpoint sweep mid-run; the sharded rerun "
    "and an unsharded resume of the same store are byte-identical to a "
    "clean run",
)
def _shard_sigkill(context: ChaosContext) -> str:
    from repro.store import ResultStore

    store_dir = context.workdir / "sweep.store"
    rank_args = ("rank", "--sample", "0", "--top", "5")
    shard_args = (*rank_args, "--shards", "4", "--jobs", "2")
    code, clean = context.run_cli(*rank_args)
    if code != 0:
        raise context.fail(f"clean rank exited {code}")
    proc = context.spawn_cli(*shard_args, "--checkpoint", str(store_dir))
    journal = store_dir / "journal.jsonl"
    deadline = time.monotonic() + SCENARIO_TIMEOUT / 2
    killed = False
    try:
        # Kill as soon as the store journal holds a commit — mid-sweep,
        # with some shard waves committed and others still in flight.
        # The whole process group goes: the parent and its pool workers.
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if journal.exists() and journal.stat().st_size > 0:
                os.killpg(proc.pid, signal.SIGKILL)
                killed = True
                break
            time.sleep(0.002)
        proc.wait(timeout=SCENARIO_TIMEOUT / 2)
        survivors = _group_members(proc.pid)
        settle = time.monotonic() + 10.0
        while survivors and time.monotonic() < settle:
            time.sleep(0.05)
            survivors = _group_members(proc.pid)
        if survivors:
            raise context.fail(f"processes survived the group kill: {survivors}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.poll() is None:
            proc.wait(timeout=10)
    code, rerun = context.run_cli(*shard_args, "--checkpoint", str(store_dir))
    if code != 0:
        raise context.fail(f"sharded rerun against the store exited {code}")
    if rerun != clean:
        raise context.fail("sharded rerun output is not byte-identical to the clean run")
    # Resume works across shard counts: an unsharded rerun must agree.
    code, unsharded = context.run_cli(*rank_args, "--checkpoint", str(store_dir))
    if code != 0:
        raise context.fail(f"unsharded resume of the store exited {code}")
    if unsharded != clean:
        raise context.fail("unsharded resume of the store is not byte-identical")
    with ResultStore(store_dir) as store:
        entries = len(store)
    return (
        f"{'killed mid-sweep' if killed else 'sweep finished before the kill'}; "
        f"sharded rerun and unsharded resume byte-identical "
        f"({entries} store entries)"
    )


def _kill_worker_once(payload: "Tuple[object, str, bool]") -> object:
    """Worker-side: optionally SIGKILL this worker once, then simulate.

    The sentinel file makes the kill happen exactly once across pool
    rebuilds and retries, so the scenario is deterministic: first
    dispatch of the chosen job murders its worker, every later dispatch
    computes normally.
    """
    from repro.exec.job import run_sim_job

    job, sentinel, should_kill = payload
    if should_kill and not os.path.exists(sentinel):
        with open(sentinel, "x"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return run_sim_job(job)


@_scenario(
    "worker-kill",
    "SIGKILL a pool worker mid-batch; the supervised runner rebuilds the "
    "pool and delivers results equal to the serial clean run",
)
def _worker_kill(context: ChaosContext) -> str:
    from repro.config.presets import CASE_STUDIES
    from repro.core.explorer import Explorer
    from repro.exec.job import run_sim_job
    from repro.exec.retry import RetryPolicy
    from repro.exec.runner import ParallelRunner
    from repro.exec.stats import RunStats
    from repro.kernels.registry import all_kernels

    explorer = Explorer()
    kernels = list(all_kernels())[:3]
    cases = list(CASE_STUDIES.values())
    jobs = [
        explorer._job(explorer.trace_cache.get(kernel), case=case)
        for kernel in kernels
        for case in cases
    ]
    clean = [run_sim_job(job) for job in jobs]
    sentinel = str(context.workdir / "killed-once")
    victim = context.rng.randrange(len(jobs))
    stats = RunStats()
    runner = ParallelRunner(jobs=2, stats=stats, retry=RetryPolicy(retries=2))
    payloads = [(job, sentinel, index == victim) for index, job in enumerate(jobs)]
    chaotic = runner.map(_kill_worker_once, payloads, stage="chaos-worker-kill")
    if not os.path.exists(sentinel):
        raise context.fail("the victim worker never died (sentinel missing)")
    if len(chaotic) != len(clean):
        raise context.fail("result count differs from the clean run")
    for index, (a, b) in enumerate(zip(clean, chaotic)):
        if a != b:
            raise context.fail(
                f"result {index} ({jobs[index].describe()}) differs after the kill"
            )
    restarts = stats.metrics.as_dict().get("worker_restarts", 0)
    if restarts < 1:
        raise context.fail("the runner never recorded a worker restart")
    return (
        f"worker killed on job {victim}; pool rebuilt ({restarts:g} restart(s)), "
        f"all {len(jobs)} results equal the clean run"
    )


# -- live-server scenarios --------------------------------------------------


def _http(
    method: str, url: str, body: Optional[dict] = None, timeout: float = 60.0
) -> Tuple[int, bytes]:
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _typed_error(body: bytes, *expected: str) -> str:
    """The typed error name carried in a JSON error body, validated."""
    payload = json.loads(body)
    name = payload.get("error", "")
    if expected and name not in expected:
        raise ChaosError(
            f"expected a typed error in {sorted(expected)}, got {name!r}"
        )
    return name


def _first_point_label() -> str:
    from repro.core.space import DesignSpace

    return DesignSpace().feasible_points()[0].label


@_scenario(
    "serve-comm-faults",
    "inject comm faults against a live server: the response is a typed "
    "error and the next clean response is byte-identical to the baseline",
)
def _serve_comm_faults(context: ChaosContext) -> str:
    from repro.serve import run_server

    server = run_server(port=0, store_path=str(context.workdir / "store"))
    server.start()
    try:
        base = server.address
        label = _first_point_label()
        status, baseline = _http("POST", base + "/v1/evaluate", {"point": label})
        if status != 200:
            raise context.fail(f"clean baseline request failed with {status}")
        fault_seed = context.rng.randrange(1, 1 << 16)
        status, body = _http(
            "POST",
            base + "/v1/evaluate",
            {
                "point": label,
                "faults": f"seed={fault_seed};*:fail=1.0,attempts=1000",
            },
        )
        if status == 200:
            raise context.fail(
                "total comm failure produced a 200; faults were not injected"
            )
        name = _typed_error(body, "SimulationError", "CommunicationError")
        status, after = _http("POST", base + "/v1/evaluate", {"point": label})
        if status != 200 or after != baseline:
            raise context.fail(
                "clean response after the fault is not byte-identical to the "
                "baseline"
            )
        status, _ = _http("GET", base + "/readyz")
        if status != 200:
            raise context.fail("service unready after a fault-injected request")
    finally:
        server.stop()
    return f"faulted request failed typed ({name}); clean path unaffected"


@_scenario(
    "serve-overload",
    "flood a bounded queue: overflow sheds with a typed 503 while "
    "accepted jobs finish and readiness recovers",
)
def _serve_overload(context: ChaosContext) -> str:
    from repro.serve import run_server

    server = run_server(port=0, queue_depth=2, deadline=90.0)
    server.start()
    try:
        base = server.address
        label = _first_point_label()

        def submit(kernel: str) -> Tuple[int, bytes]:
            return _http(
                "POST",
                base + "/v1/jobs",
                {"point": label, "fidelity": "detailed", "kernels": [kernel]},
            )

        # The occupier: the largest detailed trace. The flood starts only
        # once the dispatcher reports it running, so the queue's bound is
        # tested against observed state rather than request timing.
        kernels = ["k-mean", "reduction", "matrix mul", "convolution", "dct", "merge sort"]
        status, body = submit(kernels[0])
        if status != 202:
            raise context.fail(f"occupier submission got unexpected status {status}")
        occupier = json.loads(body)["job"]
        accepted: List[str] = [occupier]
        deadline = time.monotonic() + SCENARIO_TIMEOUT / 4
        state = "pending"
        while state == "pending" and time.monotonic() < deadline:
            _, body = _http("GET", f"{base}/v1/jobs/{occupier}")
            state = json.loads(body).get("state", "?")
            if state == "pending":
                time.sleep(0.01)
        if state != "running":
            raise context.fail(f"occupier never observed running (state {state!r})")
        # The flood: distinct detailed submissions until one is shed.
        shed = 0
        shed_name = ""
        for index, kernel in enumerate(kernels[1:], start=1):
            status, body = submit(kernel)
            if status == 202:
                accepted.append(json.loads(body)["job"])
            elif status == 503:
                shed += 1
                shed_name = _typed_error(body, "QueueFullError")
                break
            else:
                raise context.fail(f"submission {index} got unexpected status {status}")
        if shed == 0:
            raise context.fail("queue never shed load past its bound")
        # Coalescing: resubmitting an accepted request returns the same job.
        status, body = _http(
            "POST",
            base + "/v1/jobs",
            {"point": label, "fidelity": "detailed", "kernels": [kernels[0]]},
        )
        coalesced = status == 202 and json.loads(body)["job"] == accepted[0]
        # Every accepted job must finish (never a hang), then readiness
        # must recover.
        deadline = time.monotonic() + SCENARIO_TIMEOUT / 2
        states: Dict[str, str] = {}
        while time.monotonic() < deadline:
            states = {}
            for job_id in accepted:
                _, body = _http("GET", f"{base}/v1/jobs/{job_id}")
                states[job_id] = json.loads(body).get("state", "?")
            if all(state in ("done", "error") for state in states.values()):
                break
            time.sleep(0.1)
        unfinished = [j for j, s in states.items() if s not in ("done", "error")]
        if unfinished:
            raise context.fail(f"jobs never finished: {unfinished}")
        status, _ = _http("GET", base + "/readyz")
        if status != 200:
            raise context.fail("service did not recover readiness after the flood")
    finally:
        server.stop()
    return (
        f"{len(accepted)} accepted, {shed} shed typed ({shed_name}), "
        f"coalescing {'confirmed' if coalesced else 'not observed'}, "
        "all jobs finished, ready again"
    )


@_scenario(
    "serve-deadline",
    "deadline pressure: an idle tiny-deadline detailed request times out "
    "typed (504); a queued one degrades to the fast model and says so",
)
def _serve_deadline(context: ChaosContext) -> str:
    import threading

    from repro.serve import run_server

    server = run_server(port=0, deadline=60.0)
    server.start()
    try:
        base = server.address
        label = _first_point_label()
        # Idle queue, deadline far below detailed cost: the wait must be
        # abandoned with a typed 504 (the job itself completes later).
        status, body = _http(
            "POST",
            base + "/v1/evaluate",
            {"point": label, "fidelity": "detailed", "deadline": 0.05},
        )
        if status != 504:
            raise context.fail(f"tiny-deadline request got {status}, wanted 504")
        _typed_error(body, "DeadlineExceededError")
        # Occupy the dispatcher with a slow detailed job, then queue a
        # detailed request whose deadline will be half-burned by the
        # wait: it must degrade to the fast model and be flagged.
        occupier: Dict[str, object] = {}

        def occupy() -> None:
            occupier["response"] = _http(
                "POST",
                base + "/v1/evaluate",
                {"point": label, "fidelity": "detailed", "kernels": ["k-mean"]},
            )

        thread = threading.Thread(target=occupy)
        thread.start()
        time.sleep(0.2)  # let the occupier reach the dispatcher
        status, body = _http(
            "POST",
            base + "/v1/evaluate",
            {
                "point": label,
                "fidelity": "detailed",
                "kernels": ["reduction"],
                "deadline": 1.0,
            },
        )
        thread.join(timeout=SCENARIO_TIMEOUT / 2)
        if thread.is_alive():
            raise context.fail("the occupier request never returned")
        if status == 200:
            payload = json.loads(body)
            if not payload.get("degraded") or payload.get("fidelity") != "fast":
                raise context.fail(
                    "pressured request succeeded without degrading "
                    f"(fidelity={payload.get('fidelity')!r}, "
                    f"degraded={payload.get('degraded')!r})"
                )
            outcome = "degraded to fast (flagged)"
        elif status == 504:
            # Also a valid contract outcome: typed, not hung.
            _typed_error(body, "DeadlineExceededError")
            outcome = "timed out typed"
        else:
            raise context.fail(f"pressured request got unexpected status {status}")
    finally:
        server.stop()
    return f"idle tiny deadline -> typed 504; pressured request {outcome}"
