"""One benchmark measurement in a fresh interpreter.

    python3 bench/worker.py import SPAWNED_AT
    python3 bench/worker.py run|trace SPAWNED_AT CONFIG OUT

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start-up and the import of
``kgdecay.cli``.  ``run`` times ``kgdecay.cli.main(["run", ...])``; ``trace``
does the same with the tracer installed and adds its spans.  The last line of
standard output is one JSON object.
"""

import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from kgdecay import cli  # noqa: E402


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def main(argv):
    setup_s = time.monotonic() - float(argv[1])
    mode = argv[0]
    if mode == "import":
        return {"setup_s": setup_s}
    config, out = argv[2], argv[3]
    tracer = None
    if mode == "trace":
        import tracer as bench_tracer

        tracer = bench_tracer.Tracer()
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    code = cli.main(["run", "--config", config, "--out", out])
    run_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    result = {
        "setup_s": setup_s,
        "exit_code": code,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": _dir_bytes(out),
    }
    if tracer is not None:
        result["missing"] = tracer.missing
        result["layers"] = bench_tracer.layer_metrics(
            tracer.spans, run_s, setup_s, result["bytes_written"], tracer.missing_layers()
        )
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
