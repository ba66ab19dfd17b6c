"""One measured run of one workload, in a fresh process.

Usage: python3 perfbench/child.py '<json request>'

The request names the workload, the seed, the output directory, whether
to trace, and whether to stop after set-up.  The child prints one JSON
line: set-up seconds (``import seqcal`` plus ``parse_config``), seconds
spent in ``seqcal.cli.run``, the exit code of each step, its peak RSS,
the seconds of a fixed reference loop timed after all of that, and, when
traced, the tracer's summary.  It writes the spans of a traced run to
``<out>/spans.jsonl``.
"""

import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def reference_s(np) -> float:
    """Seconds for a fixed mix of large-array, small-array and interpreter work.

    Timed at the end of every child, it tells the parent how fast the
    host ran at the time (see run.REFERENCE_NOMINAL_S).
    """
    a = np.linspace(0.0, 1.0, 1 << 18)
    buf = np.empty_like(a)
    small = np.zeros(4)
    started = time.perf_counter()
    for _ in range(32):
        np.log1p(a, out=buf).sum()
    for _ in range(40_000):
        small = small * 0.5 + 1.0
    total = 0
    for i in range(400_000):
        total += i % 7
    return time.perf_counter() - started


def main(request: dict) -> dict:
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import seqcal  # noqa: F401  (the set-up cost being measured)
    from seqcal import cli
    from seqcal.calibrate import CalibrationDivergenceError
    from seqcal.exact import BudgetExceededError

    out = Path(request["out"])
    configs = [
        cli.parse_config({**config, "pipeline": pipeline, "seed": request["seed"],
                          "out": str(out / pipeline)})
        for pipeline, config in WORKLOADS[request["workload"]]["steps"]
    ]
    result = {"setup_s": time.perf_counter() - started}
    if request["setup_only"]:
        return _with_reference(result)

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    codes, wall = [], 0.0
    for cfg in configs:
        t0 = time.perf_counter()
        # The same mapping from exceptions to exit codes as cli.main.
        try:
            code, _ = cli.run(cfg)
        except cli.ConfigError:
            code = 2
        except (BudgetExceededError, CalibrationDivergenceError):
            code = 3
        wall += time.perf_counter() - t0
        codes.append(code)
    result.update(
        wall_s=wall,
        codes=codes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["stages"] = tracer.stage_totals("cli.run")
        result["counters"] = dict(tracer.counters)
        with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
    return _with_reference(result)


def _with_reference(result: dict) -> dict:
    """Time the reference loop last, so that it moves no measured figure."""
    import numpy as np

    result["reference_s"] = reference_s(np)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
