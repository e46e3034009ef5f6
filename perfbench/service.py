"""The ``service-zipf`` workload: a closed loop against ``repro serve``.

Each *round* copies the pristine starting store, starts a ``repro serve
--jobs 1`` subprocess on it, and lets two client threads send the
round's seeded request sequence back to back (closed loop: each client
waits for its reply before sending the next request).  The round's
window runs from the first request to the last reply.  After the window
the benchmark reads ``GET /v1/debug`` and ``/metrics.json``, samples the
server's CPU time and peak RSS from ``/proc``, and stops it with SIGINT.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs

HERE = Path(__file__).resolve().parent


@dataclass
class Round:
    """One server lifetime of the closed loop."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    window: Tuple[float, float]
    traced: bool
    latencies_s: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    responses: List[Tuple[List[inputs.Cell], dict]] = field(default_factory=list, repr=False)
    debug: dict = field(default_factory=dict, repr=False)
    metrics: dict = field(default_factory=dict, repr=False)
    spans_path: Optional[Path] = None
    #: Around the round (0 in traced runs, which run no reference): the
    #: reference service's mean latency, and the wall and CPU time of one
    #: ``hostref`` chunk.
    ref_s: float = 0.0
    chunk_s: float = 0.0
    chunk_cpu_s: float = 0.0


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """A ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, ctx, store: Path, spans_path: Optional[Path]):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ctx.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        serve_args = ["--port", "0", "--jobs", "1", "--trace-store", str(store)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve"] + serve_args
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spans_path),
                   ctx.recorder.run_id] + serve_args
        self.proc = subprocess.Popen(cmd, cwd=ctx.root, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
        self.host, self.port = self._address()

    def _address(self, timeout_s: float = 60.0) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited before binding (rc={self.proc.poll()})")
            if "listening on" in line:
                host, _, port = line.rsplit(" ", 1)[-1].strip().rpartition(":")
                return host, int(port)
        raise RuntimeError("server did not print its listening line in time")

    def stop(self) -> None:
        """SIGINT, then wait (kill after a grace period)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


def start_server(ctx, template: Path, index: int, traced: bool):
    """Restore the pristine store and start a server; returns (server, secs, spans)."""
    store = ctx.work / f"service-round{index}"
    spans_path = ctx.work / f"server-spans{index}.json" if traced else None
    started = time.perf_counter()
    shutil.copytree(template, store)
    server = Server(ctx, store, spans_path)
    return server, time.perf_counter() - started, spans_path


def run_round(ctx, server: Server, index: int, traced: bool,
              recorder) -> Round:
    """Send one round's request sequence from ``inputs.CLIENTS`` threads."""
    from repro.service.client import ServiceClient

    requests = iter(inputs.request_stream(ctx.seed, index))
    lock = threading.Lock()
    results: List[Tuple[float, List[inputs.Cell], int, object]] = []

    def client_loop() -> None:
        client = ServiceClient(server.host, server.port, timeout=120.0, retries=0)
        try:
            while True:
                with lock:
                    item = next(requests, None)
                if item is None:
                    return
                path, payload, cells = item
                with recorder.span("service"):
                    t0 = time.perf_counter()
                    try:
                        status, body = client.request("POST", path, payload)
                    except Exception as exc:  # counted as a failed request
                        status, body = 0, f"{type(exc).__name__}: {exc}"
                    elapsed = time.perf_counter() - t0
                with lock:
                    results.append((elapsed, cells, status, body))
        finally:
            client.close()

    cpu0 = _proc_cpu_s(server.proc.pid)
    threads = [threading.Thread(target=client_loop) for _ in range(inputs.CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    cpu = _proc_cpu_s(server.proc.pid) - cpu0
    result = Round(wall_s=end - start, cpu_s=cpu,
                   rss_mb=_proc_peak_rss_mb(server.proc.pid), window=(start, end),
                   traced=traced)
    for elapsed, cells, status, body in results:
        result.latencies_s.append(elapsed)
        if status != 200 or not isinstance(body, dict) or not body.get("ok"):
            result.failures.append(f"{cells[0]}: HTTP {status} {str(body)[:200]}")
            continue
        result.responses.append((cells, body))
    observer = ServiceClient(server.host, server.port, timeout=60.0)
    try:
        result.debug = observer.debug()
        result.metrics = observer.metrics()
    finally:
        observer.close()
    return result


def direct_results(seed: int):
    """Every cell of the universe simulated in-process, without store or server.

    Returns ``({cell: {"stats", "l1"} wire dicts}, {cell: StreamStats}, cache)``.
    """
    from repro.sim.runner import MissTraceCache, run_result
    from repro.trace.store import stats_to_dict

    cache = MissTraceCache()
    wire, stats = {}, {}
    cells = sorted(inputs.service_cells(seed),
                   key=lambda c: (c.workload, c.n_streams, c.filtered))
    for cell in cells:
        result = run_result(cell.workload, cell.config(), scale=inputs.SERVICE_SCALE,
                            seed=seed, cache=cache)
        stats[cell] = result.streams
        wire[cell] = {"stats": stats_to_dict(result.streams),
                      "l1": dataclasses.asdict(result.l1)}
    return wire, stats, cache


def compare_responses(rounds: List[Round], expected: Dict[inputs.Cell, dict], outcome) -> None:
    """Every response cell must equal the direct in-process result."""
    for rnd in rounds:
        for message in rnd.failures:
            outcome.check(False, message)
        for cells, body in rnd.responses:
            got = {(r["workload"], r["key"][1]): r for r in body.get("results", [])}
            problems = []
            for cell in cells:
                served = got.get((cell.workload, cell.n_streams))
                want = expected[cell]
                if served is None:
                    problems.append(f"{cell}: missing from response")
                elif served.get("stats") != want["stats"] or served.get("l1") != want["l1"]:
                    problems.append(f"{cell}: served stats differ from direct result")
            if len(got) != len(cells):
                problems.append(f"{cells[0]}: {len(got)} results for {len(cells)} cells")
            outcome.check(not problems, "; ".join(problems))
