"""``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_traced.py SPANS_FILE RUN_ID [repro serve arguments...]

Used for the traced rounds of ``service-zipf``: the layer wrappers of
``layers.py`` are installed in the server process, the CLI's ``serve``
command runs unchanged, and the spans are written to SPANS_FILE when
the server shuts down (SIGINT), under the benchmark run's RUN_ID.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def main() -> int:
    spans_path, run_id = Path(sys.argv[1]), sys.argv[2]
    recorder = layers.SpanRecorder(run_id)
    layers.install(recorder)
    recorder.enabled = True
    recorder.phase = "timed"
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve"] + sys.argv[3:])
    finally:
        recorder.enabled = False
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
