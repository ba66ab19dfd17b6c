"""Golden SHA-256 digests of the CLI's artifacts, and the script that regenerates them.

Usage: ``PYTHONPATH=src python tests/golden_digests.py``

Runs each of :data:`RUNS` in-process through ``seqcal.cli.run``, each
into its own temporary directory, and writes ``tests/golden/digests.json``:
the SHA-256 of every file a run writes except the volatile
``runinfo.json``, by run, with the environment that made them.
``tests/test_golden.py`` compares a fresh run against that file.

The runs are the benchmark's three gated workloads at seeds 7 and 11,
``verify`` with 200 instances at seeds 1 and 2, and one small config of
each other pipeline at seed 3: ``bounds``, ``gen``, ``inspect``,
``drift`` with prefixes, ``memory`` at an integer ``t_policy``, and a
``calibrate-local`` run in bits.  The configs are copies, so that
editing the benchmark does not move the digests.

A change that moves an artifact byte regenerates the file and lists
each changed artifact, its largest field move and why.  An unchanged
file is the change's claim that every artifact kept its bytes.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

_TRUE_MODEL = {"kind": "random_markov", "order": 2, "concentration": 0.8}
_PER_STEP = {"M": 4, "T": 9, "true_model": _TRUE_MODEL, "model": {"recipe": "drift", "p": 0.1},
             "tau": [1, 2, 3], "prefix_len": 1}

# (workload, pipeline, config) of each run; every run but verify's is made at each seed of SEEDS.
RUNS = [
    ("exact-global", "calibrate-global", {
        "M": 4, "T": 10, "true_model": _TRUE_MODEL, "model": {"recipe": "drift", "p": 0.1},
        "epsilon": 0.05, "budget": 2_000_000,
    }),
    ("mc-drift", "drift", {
        "M": 4, "T": 256, "true_model": _TRUE_MODEL, "model": {"recipe": "drift", "p": 0.01},
        "n_gen": 512, "n_samples": 20000, "prefix_len": 8, "n_prefixes": 256,
    }),
    ("exact-perstep", "calibrate-local", _PER_STEP),
    ("exact-perstep", "memory", _PER_STEP),
]
SEEDS = (7, 11)
VERIFY = ("verify", "verify", {"M": 3, "T": 4, "instances": 200, "budget": 1_000_000})
VERIFY_SEEDS = (1, 2)

_SMALL_MODELS = {"true_model": {"kind": "random_markov", "order": 1}, "model": {"recipe": "drift", "p": 0.2}}
# (workload, pipeline, config) of each small run, each made at SMALL_SEED.
SMALL = [
    ("small", "bounds", {"M": 3, "T": 6, **_SMALL_MODELS, "epsilon": 0.05}),
    ("small", "gen", {"M": 3, "T": 6, **_SMALL_MODELS, "n_gen": 64}),
    ("small", "inspect", {"M": 3, "T": 6, **_SMALL_MODELS}),
    ("small", "drift", {"M": 3, "T": 16, **_SMALL_MODELS, "n_gen": 128, "n_samples": 2000,
                        "prefix_len": 2, "n_prefixes": 32}),
    ("small", "memory", {"M": 3, "T": 6, **_SMALL_MODELS, "tau": [1, 2], "t_policy": 5}),
    ("small-bits", "calibrate-local", {"M": 3, "T": 5, **_SMALL_MODELS, "prefix_len": 1, "units": "bits"}),
]
SMALL_SEED = 3


def environment() -> dict:
    """What the digests depend on besides the source: Python, numpy, and the machine.

    numpy picks its exp and log loops by the CPU features it finds, so
    those are part of the machine.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def _runs():
    for workload, pipeline, config in RUNS:
        for seed in SEEDS:
            yield f"{workload}/{pipeline}/seed{seed}", pipeline, config, seed
    workload, pipeline, config = VERIFY
    for seed in VERIFY_SEEDS:
        yield f"{workload}/{pipeline}/seed{seed}", pipeline, config, seed
    for workload, pipeline, config in SMALL:
        yield f"{workload}/{pipeline}/seed{SMALL_SEED}", pipeline, config, SMALL_SEED


def run_digests(root: Path) -> dict:
    """{run: {artifact: SHA-256}} of every run, each written under `root`."""
    from seqcal import cli

    out = {}
    for key, pipeline, config, seed in _runs():
        outdir = root / key.replace("/", "-")
        cli.run(cli.parse_config({**config, "pipeline": pipeline, "seed": seed, "out": str(outdir)}))
        out[key] = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.iterdir())
            if path.name != "runinfo.json"
        }
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_digests(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"environment": environment(), "runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, runs.values()))} digests of {len(runs)} runs to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
