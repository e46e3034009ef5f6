"""Build one workload's starting store in a fresh process.

    python3 perfbench/setup_store.py --workload l2-match --seed 0 --store DIR \
        [--spans FILE --run-id ID]

The benchmark times this whole process, import of the program included:
its wall time is one ``setup_s`` sample.  ``--spans`` records layer
spans (see ``layers.py``) under the benchmark run's id and writes them
to FILE on exit.

* ``fig3-cold``: an empty store (the exhibit then runs cold).
* ``l2-match``: L1 miss traces and locality profiles of every pair.
* ``service-zipf``: L1 miss traces of every service workload plus the
  results of the stored share of the cell ranking.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402


def build(workload: str, seed: int, root: str) -> None:
    from repro.trace.store import TraceStore

    store = TraceStore(root)
    if workload == "fig3-cold":
        return
    from repro.sim.runner import MissTraceCache
    from repro.workloads import get_workload

    cache = MissTraceCache(store=store)
    if workload == "l2-match":
        from repro.analytic.screen import ensure_profiles

        for name, scale in inputs.l2_pairs():
            miss_trace, _ = cache.get(get_workload(name, scale=scale, seed=seed))
            digest = cache.trace_key(name, scale, seed)
            ensure_profiles(miss_trace, store=store, digest=digest)
        return
    if workload == "service-zipf":
        from repro.sim.parallel import SweepTask, TaskError, run_grid

        for name in inputs.SERVICE_NAMES:
            cache.get(get_workload(name, scale=inputs.SERVICE_SCALE, seed=seed))
        tasks = [
            SweepTask(key=i, workload=cell.workload, config=cell.config(),
                      scale=inputs.SERVICE_SCALE, seed=seed)
            for i, cell in enumerate(inputs.stored_cells(seed))
        ]
        errors = [r for r in run_grid(tasks, jobs=1, cache=cache) if isinstance(r, TaskError)]
        if errors:
            raise RuntimeError(f"{len(errors)} stored cells failed: {errors[0].error}")
        return
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", default=None)
    args = parser.parse_args()
    recorder = None
    if args.spans:
        recorder = layers.SpanRecorder(args.run_id)
        layers.install(recorder)
        recorder.enabled = True
        recorder.phase = "setup"
    build(args.workload, args.seed, args.store)
    if recorder is not None:
        recorder.dump(Path(args.spans))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
