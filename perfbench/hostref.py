"""The host-speed reference: fixed pure-Python work timed beside the program.

On a shared VM the host's speed drifts by tens of percent for seconds to
minutes at a time, often for longer than a whole run, and CPU time drifts
with it.  No reduction of the program's own times removes a slow phase
that covers a run.  So the benchmark times a block of this fixed loop
next to every request (exhibits) or round (service), and reports the
program's time in *ref* units: program time over the time one chunk of
this loop took at that moment.  A slow phase slows both, and the ratio
keeps only what the program itself changed.

The loop is the same kind of work as the program's hot loops, which are
pure Python (dict lookups and list appends in the replay engines): a
random walk over a 4096-entry dict.  The dict is small enough to stay in
the CPU's caches, so the time does not depend on what the program left
in them (a 64k-entry dict ran 40% slower after a large numpy pass), and
a chunk allocates one container, so the program's heap size does not
reach it through the garbage collector.  One chunk takes about 1 ms on
a 2-core Intel Xeon VM (Python 3.11) in a quiet phase, so 1 ref reads
roughly as 1 ms there.  The loop is part of the benchmark, never of the
program, so no change to the program can move it.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Iterable

#: Random-walk steps in one chunk.
CHUNK_STEPS = 5000
#: Reference time on each side of a timed call, as a share of the call's
#: time (before the call: its expected time), and the floor of a block.
SHARE, MIN_BLOCK_S = 0.1, 0.02
#: Seconds per ref, for the one metric the benchmark contract wants in
#: seconds (``setup_s``): about one chunk's time on the VM named above.
SECONDS_PER_REF = 1e-3
_KEYS = 1 << 12
_TABLE = {key: key for key in range(_KEYS)}


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def chunk(steps: int = CHUNK_STEPS) -> int:
    """One chunk of reference work (or ``steps`` steps of it); returns a checksum."""
    table = _TABLE
    trail = []
    x = 12345
    total = 0
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        value = table[(x >> 7) & (_KEYS - 1)]
        total += value
        if value & 3 == 0:
            trail.append(value)
    return total + len(trail)


@dataclass
class Block:
    """Chunks run back to back: their count, wall time and CPU time."""

    chunks: int
    wall_s: float
    cpu_s: float


def measure(min_s: float) -> Block:
    """Run whole chunks until at least ``min_s`` seconds have passed."""
    chunks = 0
    t0, c0 = time.perf_counter(), _cpu()
    while True:
        chunk()
        chunks += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return Block(chunks, elapsed, _cpu() - c0)


def block(call_s: float) -> Block:
    """A reference block for one side of a call of about ``call_s`` seconds."""
    return measure(max(MIN_BLOCK_S, SHARE * call_s))


def per_chunk(blocks: Iterable[Block]):
    """Pooled ``(wall_s, cpu_s)`` of one chunk over ``blocks``."""
    blocks = list(blocks)
    chunks = sum(b.chunks for b in blocks)
    return sum(b.wall_s for b in blocks) / chunks, sum(b.cpu_s for b in blocks) / chunks
