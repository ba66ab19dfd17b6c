"""The seqcal benchmark.

Runs one workload (or ``all`` of them, interleaved) through
``seqcal.cli.run``, one fresh child process at a time, for about
``--seconds`` seconds, checks every output and prints the metrics:

    python3 perfbench/run.py --workload exact-global --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35
    python3 perfbench/run.py --self-test

With ``--trace 0`` the end-to-end metrics are medians over the run's
children: ``wall_s`` (time in ``cli.run``), ``setup_s`` (fresh-process
``import seqcal`` plus ``parse_config``; extra set-up-only children are
interleaved so it always has several samples) and ``peak_rss_mb`` (the
child's ``ru_maxrss``).  The two times are given at a nominal host speed
(see REFERENCE_NOMINAL_S).  With ``--trace 1`` untraced and traced children
alternate; the per-layer metrics come from the traced ones, and
``trace.overhead_frac`` compares the two.  ``ops_failed_frac`` is the
final line's ``failed / attempted``: one operation is one check instance
for ``verify`` and one child run otherwise.

Every child of one run must write byte-identical artifacts (all but
``runinfo.json``); their SHA-256 digests are printed and saved under
``perfbench/out/results``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The benchmark builds nothing: it runs ``src/seqcal`` of the
checkout it sits in, and exits with code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import BATCH_METHODS
from workloads import WORKLOADS, check_step, verify_operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "seqcal"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 150
# The host's speed swings by a third and more, in phases of seconds whose
# mix drifts over minutes, so a run's raw median depends on when it ran.
# Every child therefore times a fixed reference loop (child.reference_s),
# and wall_s and setup_s are reported at the speed at which that loop
# takes REFERENCE_NOMINAL_S: raw median * REFERENCE_NOMINAL_S / reference
# median.  The raw medians are kept in the run's record.
REFERENCE_NOMINAL_S = 0.15

# One child at a time on a small machine: keep numpy's BLAS to one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
KINDS = ("markov", "limited_memory", "mixture", "drift", "global_tilt", "local_tilt", "memory_tilt")
ORACLES = ("entropy_exact", "entropy_rate_exact", "cross_entropy_exact", "kl_exact",
           "mean_var_exact", "log_partition_exact")
VERIFY_CHECKS = ("oracle_identities", "pinsker", "amplification", "sharpness", "global_fit",
                 "local_fit", "derivatives", "memory", "memory_decay")
SLOC_MODULES = ("models", "exact", "estimate", "calibrate", "memory", "cli", "rng")
# Only the verify pipeline reaches these, so they are reported for the
# verify workload alone; on the others they would always be 0.
VERIFY_ONLY = ("calibrate.tilted_variance_max.self_s",
               *(f"cli.verify.{check}.s" for check in VERIFY_CHECKS))


# ---------------------------------------------------------------------------
# One child.
# ---------------------------------------------------------------------------


def _spawn(request: dict):
    """Run child.py; returns (result dict or None, error text)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def setup_probe(workload: str, seed: int):
    """A child that stops after set-up: its record, or None if it failed."""
    out = OUT / "work" / "setup"
    result, _ = _spawn({"workload": workload, "seed": seed, "out": str(out),
                        "trace": False, "setup_only": True})
    return result


def _artifacts(directory: Path):
    """(SHA-256 digests, parsed JSON documents) of a step's artifacts."""
    digests, docs = {}, {}
    if not directory.is_dir():
        return digests, docs
    for path in sorted(directory.iterdir()):
        if path.name == "runinfo.json":  # volatile by design
            continue
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        if path.suffix == ".json":
            docs[path.name] = json.loads(data)
    return digests, docs


def measure(workload: str, seed: int, trace: bool, index: int) -> dict:
    """One workload child: its timings, checked outputs and digests."""
    out = OUT / "work" / f"{workload}-{seed}-{index}"
    shutil.rmtree(out, ignore_errors=True)
    result, error = _spawn({"workload": workload, "seed": seed, "out": str(out),
                            "trace": trace, "setup_only": False})
    sample = {"trace": trace, "problems": [], "digests": {}, "ops": None, "failed_ops": 0}
    if result is None:
        sample["problems"].append(error)
    else:
        sample.update(result)
        attempted = failed = 0
        for (pipeline, config), code in zip(WORKLOADS[workload]["steps"], result["codes"]):
            digests, docs = _artifacts(out / pipeline)
            sample["digests"][pipeline] = digests
            problems = check_step(pipeline, docs, config, code)
            sample["problems"] += problems
            if pipeline == "verify" and not problems:
                attempted, failed = verify_operations(docs)
        if attempted:
            sample["ops"], sample["failed_ops"] = attempted, failed
        if trace:
            spans = out / "spans.jsonl"
            if spans.exists():
                (OUT / "results").mkdir(parents=True, exist_ok=True)
                shutil.move(str(spans), OUT / "results" / f"{workload}-seed{seed}.spans.jsonl")
    shutil.rmtree(out, ignore_errors=True)
    return sample


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced child.
# ---------------------------------------------------------------------------


def layer_metrics(result: dict, workload: str) -> dict:
    spans, counters, stages = result["spans"], result["counters"], result["stages"]

    def calls(*names):
        return sum(spans[n]["calls"] for n in names if n in spans)

    def self_s(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def total_s(*names):
        return sum(spans[n]["total_s"] for n in names if n in spans)

    m = {}
    for kind in KINDS:
        names = [f"models.{kind}.{method}" for method in BATCH_METHODS]
        m[f"models.{kind}.calls"] = calls(*names)
        m[f"models.{kind}.rows"] = counters.get(f"models.{kind}.rows", 0)
        m[f"models.{kind}.self_s"] = self_s(*names)
    m["models.sample_batch.calls"] = calls("models.sample_batch")
    m["models.sample_batch.tokens"] = counters.get("models.sample_batch.tokens", 0)
    m["models.sample_batch.self_s"] = self_s("models.sample_batch")
    m["models.marginalize_to_window.self_s"] = self_s("models.marginalize_to_window")

    for fn in ("sequence_log_probs", "enumerate_sequences"):
        m[f"exact.{fn}.calls"] = calls(f"exact.{fn}")
        m[f"exact.{fn}.self_s"] = self_s(f"exact.{fn}")
    m["exact.prefix_expansion.calls"] = counters.get("exact.prefix_expansion.calls", 0)
    m["exact.prefix_expansion.iter_s"] = self_s("exact.prefix_expansion.iter")
    m["exact.functional_values.self_s"] = self_s("exact.FunctionalF.values")
    m["exact.conditional_mi_exact.self_s"] = self_s("exact.conditional_mi_exact")
    oracles = [f"exact.{fn}" for fn in ORACLES]
    m["exact.oracles.calls"] = calls(*oracles)
    m["exact.oracles.self_s"] = self_s(*oracles)
    m["exact.lattice_states"] = counters.get("exact.lattice_states", 0)

    for fn in ("fit_alpha_global", "fit_per_step_tilt", "tilted_variance_max"):
        m[f"calibrate.{fn}.self_s"] = self_s(f"calibrate.{fn}")
    m["calibrate.global_tilt_init.self_s"] = self_s("calibrate.GlobalTiltModel.__init__")
    m["calibrate.probes"] = counters.get("calibrate.probes", 0)

    for fn in ("drift_curve", "drift_curve_exact", "cross_entropy_mc"):
        m[f"estimate.{fn}.self_s"] = self_s(f"estimate.{fn}")

    for fn in ("memory_bound", "prediction_joint"):
        m[f"memory.{fn}.calls"] = calls(f"memory.{fn}")
        m[f"memory.{fn}.self_s"] = self_s(f"memory.{fn}")
    for fn in ("calibrate_to_comparator", "fit_limited_memory"):
        m[f"memory.{fn}.self_s"] = self_s(f"memory.{fn}")

    build = stages.get("cli.build_true_model", 0.0) + stages.get("cli.build_learned_model", 0.0)
    pipeline = sum(s for name, s in stages.items() if name.startswith("cli._pipeline_"))
    m["cli.build_s"] = build
    m["cli.pipeline_s"] = pipeline
    m["cli.write_s"] = total_s("cli.run") - build - pipeline
    for check in VERIFY_CHECKS:
        m[f"cli.verify.{check}.s"] = total_s(f"cli._check_{check}")
    if workload != "verify":
        for name in VERIFY_ONLY:
            del m[name]
    return m


def exact_counts(result: dict) -> dict:
    """Every count a traced child makes; these must repeat exactly."""
    counts = {f"{name}.calls": span["calls"] for name, span in result["spans"].items()}
    counts.update(result["counters"])
    return counts


def sloc() -> dict:
    """Non-blank, non-comment source lines per module."""
    out = {}
    for module in SLOC_MODULES:
        lines = (SRC / f"{module}.py").read_text(encoding="utf-8").splitlines()
        out[f"{module}.sloc"] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    return out


# ---------------------------------------------------------------------------
# A run: many children, then medians.
# ---------------------------------------------------------------------------


def run_workloads(seeds: dict, seconds: float, trace: bool) -> list:
    """Measure the workloads in `seeds` for about `seconds` each.

    Workloads take turns, one child each, in rounds.  Untraced runs
    follow every workload child with a set-up-only child; traced runs
    alternate untraced and traced children, with at least two traced ones
    so that their counts can be compared.
    """
    for workload, seed in seeds.items():
        setup_probe(workload, seed)  # compiles bytecode; not timed
    samples = {workload: [] for workload in seeds}
    setups = {workload: [] for workload in seeds}
    started = time.perf_counter()
    deadline = started + seconds * len(seeds)
    rounds = []
    while True:
        round_start = time.perf_counter()
        for workload, seed in seeds.items():
            done = samples[workload]
            done.append(measure(workload, seed, trace and len(done) % 2 == 1, len(done)))
            if not trace:
                setups[workload].append(setup_probe(workload, seed))
        now = time.perf_counter()
        rounds.append(now - round_start)
        enough = not trace or all(sum(s["trace"] for s in v) >= 2 for v in samples.values())
        # Start no round that would likely end past the deadline, so that
        # a run lasts about `seconds` whatever one child takes.
        if enough and now + statistics.median(rounds) > deadline:
            break
    return [summarize(w, seeds[w], samples[w], setups[w], trace) for w in seeds]


def _quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(workload, seed, samples, setups, trace) -> dict:
    problems = [p for s in samples for p in s["problems"]]
    if None in setups:
        problems.append("a set-up-only child failed")
        setups = [s for s in setups if s is not None]
    known_ops = next((s["ops"] for s in samples if s["ops"]), 1)
    attempted = failed = 0
    digests = samples[0]["digests"]
    for s in samples:
        ops = s["ops"] or known_ops
        attempted += ops
        if s["problems"]:
            failed += ops
        elif s["digests"] != digests:
            failed += ops
            problems.append("artifacts differ between children of one run")
        else:
            failed += s["failed_ops"]
    completed = [s for s in samples if "wall_s" in s]
    untraced = [s for s in completed if not s["trace"]]
    traced = [s for s in completed if s["trace"]]

    metrics, values, raw = {}, {}, {}
    if not trace and untraced:
        values = {
            "wall_s": [s["wall_s"] for s in untraced],
            "setup_s": [s["setup_s"] for s in untraced + setups],
            "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
            "reference_s": [s["reference_s"] for s in untraced + setups],
        }
        raw = {name: statistics.median(v) for name, v in values.items()}
        # Times in seconds at the nominal host speed; see REFERENCE_NOMINAL_S.
        host = raw["reference_s"] / REFERENCE_NOMINAL_S
        metrics = {
            "wall_s": raw["wall_s"] / host,
            "setup_s": raw["setup_s"] / host,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    elif trace and traced and untraced:
        counts = [exact_counts(s) for s in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("traced counts differ between children of one run")
        layers = [layer_metrics(s, workload) for s in traced]
        # Counts repeat exactly (checked above); times are medians.
        metrics = {name: statistics.median(m[name] for m in layers) if _unit(name) == "s"
                   else value for name, value in layers[0].items()}
        metrics["trace.overhead_frac"] = (
            statistics.median(s["wall_s"] for s in traced)
            / statistics.median(s["wall_s"] for s in untraced)
        ) - 1.0
        metrics.update(sloc())
        values = {"traced wall_s": [s["wall_s"] for s in traced],
                  "untraced wall_s": [s["wall_s"] for s in untraced]}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": not problems and bool(metrics),
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw_medians": raw,
        "samples": {name: len(v) for name, v in values.items()},
        "spread": {name: _quartile_spread(v) for name, v in values.items()},
        "values": values,
        "digests": digests,
    }


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".sloc"):
        return "lines"
    if name == "trace.overhead_frac":
        return "ratio"
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def report(record: dict) -> None:
    frac = record["failed"] / record["attempted"]
    print(f"== {record['workload']} (seed {record['seed']}, trace {int(record['trace'])}) "
          f"samples {record['samples']}")
    for name, value in record["metrics"].items():
        spread = record["spread"].get(name)
        extra = f"  (quartile spread {spread:.1%} of samples)" if spread is not None else ""
        if name in record["raw_medians"] and name != "peak_rss_mb":
            extra += f"  raw median {record['raw_medians'][name]:.6g} s"
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:42s} {shown} {_unit(name)}{extra}")
    print(f"  {'ops_failed_frac':42s} {frac:>16.6g} ({record['failed']}/{record['attempted']})")
    if "reference_s" in record["raw_medians"]:
        print(f"  {'reference_s (host speed)':42s} {record['raw_medians']['reference_s']:>16.6g} s"
              f" (nominal {REFERENCE_NOMINAL_S} s)")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def save(record: dict, env: dict) -> None:
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    doc = {**record, "environment": env, "sloc": sloc()}
    (OUT / "results" / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"details": doc}, sort_keys=True))


def final_line(records: list) -> dict:
    """The result line; with several workloads, metric names get a prefix."""
    metrics = {}
    for r in records:
        prefix = f"{r['workload']}." if len(records) > 1 else ""
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": _unit(name)}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def self_test() -> int:
    """Two traced children per workload at its default seed: counts must repeat."""
    ok = True
    for workload, spec in WORKLOADS.items():
        [record] = run_workloads({workload: spec["default_seed"]}, 0.0, trace=True)
        report(record)
        ok = ok and record["correct"]
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "cli.py").is_file():
        print(f"no seqcal source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.self_test:
        return self_test()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seeds = {w: WORKLOADS[w]["default_seed"] if args.seed is None else args.seed for w in names}
    env = environment()
    print("environment:", json.dumps(env, sort_keys=True))
    records = run_workloads(seeds, args.seconds, bool(args.trace))
    for record in records:
        report(record)
        save(record, env)
    print(json.dumps(final_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
