"""The service's host reference: a fixed reference service in its own process.

    python3 perfbench/refserver.py   # prints "refserver listening on <port>"

A service round's latency depends on more than one core's speed.  The
client threads and the server run at the same time on the machine's two
cores, so the round also slows when the host gives those cores less
parallel time, which a one-thread loop (``hostref``) does not see; on
the 2-core VM two copies of that loop each ran 1.5-3x slower than one.
So a service round is normalised by a reference service of the same
shape: an asyncio HTTP/1.1 keep-alive server whose requests each hop to
a worker thread (as ``repro serve`` does for store reads) for a fixed
``hostref`` work unit, driven by the same closed loop of two client
threads.  ``RefService.measure`` returns the mean latency of its
requests: 1 ref for the service workload.  None of it is program code.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402

#: Reference work per request, as a share of one ``hostref`` chunk: about
#: the server CPU time of one ``service-zipf`` request.
WORK_SHARE = 0.5


def _work() -> int:
    return hostref.chunk(int(WORK_SHARE * hostref.CHUNK_STEPS))


async def _handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.decode("latin-1").split("\r\n"):
                if line.lower().startswith("content-length:"):
                    length = int(line.split(":", 1)[1])
            request = json.loads(await reader.readexactly(length))
            checksum = await asyncio.to_thread(_work)
            body = json.dumps({"ok": True, "id": request["id"], "checksum": checksum}).encode()
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def _serve() -> None:
    server = await asyncio.start_server(_handle, "127.0.0.1", 0)
    print(f"refserver listening on {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await server.serve_forever()


class RefService:
    """The reference server process and its closed-loop clients."""

    def __init__(self, clients: int):
        self.clients = clients
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"reference server did not start: {line!r}")
        self.port = int(line.rsplit(" ", 1)[1])

    def measure(self, requests: int) -> List[float]:
        """Latencies of ``requests`` requests sent back to back by the clients."""
        lock = threading.Lock()
        remaining = [requests]
        latencies: List[float] = []
        errors: List[str] = []

        def client() -> None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            try:
                while True:
                    with lock:
                        if remaining[0] == 0:
                            return
                        remaining[0] -= 1
                        ident = remaining[0]
                    t0 = time.perf_counter()
                    conn.request("POST", "/", json.dumps({"id": ident}),
                                 {"Content-Type": "application/json"})
                    reply = json.loads(conn.getresponse().read())
                    elapsed = time.perf_counter() - t0
                    with lock:
                        latencies.append(elapsed)
                        if reply.get("id") != ident:
                            errors.append(f"reference reply {reply} for request {ident}")
            finally:
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors or len(latencies) != requests:
            raise RuntimeError(f"reference service failed: {errors[:3]}")
        return latencies

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


if __name__ == "__main__":
    asyncio.run(_serve())
