"""Run ``repro-explore serve`` with layer spans or a profiler attached.

Usage (the serve-mix workload starts it; arguments after ``--`` go to the
CLI unchanged)::

    python3 perfbench/serve_traced.py --out FILE --mode trace -- serve --jobs 1 ...

``--mode trace`` installs the span recorder (``layers.py``) and times the
queue: a job's wait runs from ``CoalescingQueue.submit`` (its
``enqueued_at``) to ``next``, its execution from ``next`` to ``finish``.
``--mode profile`` instead runs ``cProfile`` on the dispatcher thread
while a job executes. When the server stops (SIGINT), the spans, the
queue times, the compile-cache counters and the profile shares are
written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import Recorder, module_shares  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("trace", "profile"), required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.cli import main as cli_main
    from repro.perf.compiled import SHARED_COMPILE_CACHE
    from repro.serve.queue import CoalescingQueue

    recorder = Recorder()
    profile = cProfile.Profile() if args.mode == "profile" else None
    if profile is None:
        recorder.install()
        recorder.enabled = True
    lock = threading.Lock()
    queue = {"wait": {}, "execute": {}, "jobs": {}, "coalesced": 0}
    running = {}

    def add(table: str, kind: str, value: float) -> None:
        with lock:
            queue[table][kind] = queue[table].get(kind, 0.0) + value

    def kind_of(job) -> str:
        return "rank" if job.request.get("rank") else job.request.get("fidelity", "fast")

    submit, take, finish = CoalescingQueue.submit, CoalescingQueue.next, CoalescingQueue.finish

    def traced_submit(self, key, request, now):
        job, created = submit(self, key, request, now)
        if not created:
            with lock:
                queue["coalesced"] += 1
        return job, created

    def traced_next(self, timeout=None):
        job = take(self, timeout)
        if job is not None:
            kind = kind_of(job)
            add("wait", kind, time.monotonic() - job.enqueued_at)
            running[job.id] = (kind, time.perf_counter())
            recorder.begin("serve.execute")
            if profile is not None:
                profile.enable()
        return job

    def traced_finish(self, job, result, error):
        if profile is not None:
            profile.disable()
        recorder.end("serve.execute")
        entry = running.pop(job.id, None)
        if entry is not None:
            kind, start = entry
            add("execute", kind, time.perf_counter() - start)
            add("jobs", kind, 1)
        return finish(self, job, result, error)

    CoalescingQueue.submit = traced_submit
    CoalescingQueue.next = traced_next
    CoalescingQueue.finish = traced_finish

    code = cli_main(cli_args)
    snapshot = {
        "exit_code": code,
        "recorder": recorder.snapshot(),
        "serve": queue,
        "compile": dict(SHARED_COMPILE_CACHE.stats()),
        "shares": module_shares(profile) if profile is not None else {},
    }
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
