"""The benchmark's fixed workloads and the checks on their outputs.

Each workload is a list of (pipeline, config) steps run through
``seqcal.cli.run`` in one fresh child process.  The workloads put a
different module at the centre of their cost:

* ``exact-global``  -- one 4**10 lattice; ``exact`` and ``calibrate`` do
  nearly all the work and nothing is sampled.
* ``mc-drift``      -- T = 256 sampling with a drift model; ``models`` rows,
  sampling and ``estimate`` do all the work and nothing is enumerated.
* ``exact-perstep`` -- the per-step tilt fit, the tilt models' rows,
  ``memory``'s prefix re-expansion and the exact conditional MI, which the
  other workloads run only at toy size or not at all.
* ``verify``        -- about 900 tiny instances through every module, so
  per-call overhead dominates instead of array size.  Run by hand only;
  see the note at its entry.

The checks read only the artifacts a run writes.  They return a list of
problems; an empty list means the run's outputs are correct.
"""

from __future__ import annotations

import math

_TRUE_MODEL = {"kind": "random_markov", "order": 2, "concentration": 0.8}

WORKLOADS = {
    "exact-global": {
        "default_seed": 7,
        "steps": [
            ("calibrate-global", {
                "M": 4, "T": 10, "true_model": _TRUE_MODEL,
                "model": {"recipe": "drift", "p": 0.1},
                "epsilon": 0.05, "budget": 2_000_000,
            }),
        ],
    },
    "mc-drift": {
        "default_seed": 7,
        "steps": [
            ("drift", {
                "M": 4, "T": 256, "true_model": _TRUE_MODEL,
                "model": {"recipe": "drift", "p": 0.01},
                "n_gen": 512, "n_samples": 20000, "prefix_len": 8, "n_prefixes": 256,
            }),
        ],
    },
    "exact-perstep": {
        "default_seed": 7,
        "steps": [
            (pipeline, {
                "M": 4, "T": 9, "true_model": _TRUE_MODEL,
                "model": {"recipe": "drift", "p": 0.1},
                "tau": [1, 2, 3], "prefix_len": 1,
            })
            for pipeline in ("calibrate-local", "memory")
        ],
    },
    # The values of configs/verify.json with "instances": 200, copied so
    # that editing the example config does not change the benchmark.
    # Known failure: at seed 1, local_calibration instance 37 fails only
    # its premise (mismatch 0.00998 < 0.01), so 1 of 901 instances fails
    # and the exit code is 4.  It stays visible here until src fixes it.
    # Because some seeds give such a failed instance, this workload is run
    # by hand and is not listed in BENCHMARK.json, whose workloads must
    # have no failed operation at any seed.
    "verify": {
        "default_seed": 1,
        "steps": [
            ("verify", {"M": 3, "T": 4, "instances": 200, "budget": 1_000_000}),
        ],
    },
}


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_calibrate_global(docs, cfg, code):
    cal = docs["calibration_global.json"]
    problems = []
    moment_gap = abs(cal["mu_target"] - cal["mu_tilted"])
    if not moment_gap <= cfg["T"] * cal["tolerance"]:
        problems.append(f"global moment gap {moment_gap!r} > T * tolerance")
    identity_gap = abs(cal["cross_entropy_tilted"] - cal["entropy_rate_tilted"])
    if not identity_gap <= 1e-8:
        problems.append(f"|CE - entropy rate| after tilt {identity_gap!r} > 1e-8")
    return problems


def _check_calibrate_local(docs, cfg, code):
    cal = docs["calibration_local.json"]
    moment_gap = abs(cal["mu_target"] - cal["mu_tilted"])
    if not moment_gap <= 1e-8:
        return [f"local moment gap {moment_gap!r} > 1e-8"]
    return []


def _check_memory(docs, cfg, code):
    problems = []
    for est in docs["memory.json"]:
        if not est["valid"]:
            problems.append(f"memory estimate at tau={est['tau']} is not valid")
        if est["exact_mi"] is None or not est["bound"] >= est["exact_mi"] - 1e-9:
            problems.append(f"memory bound at tau={est['tau']} below the exact MI")
    return problems


def _check_drift(docs, cfg, code):
    curve = docs["drift_curve.json"]
    gap = docs["ent_rate_gap.json"]
    problems = []
    if not _finite(*curve["means"], *curve["stderrs"]):
        problems.append("drift curve is not finite")
    elif not all(0.0 <= m <= math.log(cfg["M"]) for m in curve["means"]):
        problems.append("drift curve mean outside [0, log M]")
    keys = ("start", "start_stderr", "end", "end_stderr", "gap", "gap_stderr")
    if not _finite(*(gap[k] for k in keys)):
        problems.append("entropy-rate gap estimates are not finite")
    elif not gap["gap_stderr"] > 0.0:
        problems.append("gap_stderr is not positive")
    return problems


def _check_verify(docs, cfg, code):
    # Failed instances are failed operations, not wrong output; the
    # output is wrong when the exit code disagrees with the report.
    n_failures = docs["verify_report.json"]["n_failures"]
    if code != (4 if n_failures > 0 else 0):
        return [f"verify exited {code} with {n_failures} failures in its report"]
    return []


_CHECKS = {
    "calibrate-global": _check_calibrate_global,
    "calibrate-local": _check_calibrate_local,
    "memory": _check_memory,
    "drift": _check_drift,
    "verify": _check_verify,
}


def check_step(pipeline, docs, cfg, code):
    """Problems with one pipeline's outputs; empty when they are correct."""
    if pipeline != "verify" and code != 0:
        return [f"{pipeline} exited {code}"]
    try:
        return _CHECKS[pipeline](docs, cfg, code)
    except (KeyError, TypeError) as err:
        return [f"{pipeline} artifacts are malformed: {err!r}"]


def verify_operations(docs):
    """(attempted, failed) check instances of one verify report."""
    report = docs["verify_report.json"]
    return sum(c["instances"] for c in report["checks"]), report["n_failures"]
