"""Sample-mode per-step fits pinned bitwise, by SHA-256 digests of their reports.

No CLI pipeline runs sample mode, so the golden artifact digests cannot
see it.  This test fixes one 1,000-sequence sample at M = 4, T = 9 and
pins ``memory_bounds(samples, model, [1, 2, 3])`` and
``fit_alpha_local(samples, model)``: the SHA-256 of each report's
``to_dict()`` JSON.  Like the golden digests, the bytes depend on the
Python and numpy versions and the machine, so on another environment
the test skips and names the difference.

``tests/golden/sample_mode.json`` holds the digests and the environment
that made them; regenerate it with
``PYTHONPATH=src python tests/test_sample_pin.py``.
"""

import hashlib
import json

import numpy as np
import pytest

import seqcal as sc
from golden_digests import GOLDEN, environment

PINNED = GOLDEN.parent / "sample_mode.json"


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _reports() -> dict:
    rng = np.random.default_rng(36)
    truth = sc.MarkovModel.random(sc.make_spec(4, 9), 2, rng, concentration=0.8)
    model = sc.DriftModel(truth.perturbed(rng, 0.25), 0.1)
    samples = truth.sample_batch(1000, rng)
    _, result = sc.fit_alpha_local(samples, model)
    estimates = sc.memory_bounds(samples, model, [1, 2, 3])
    return {
        "fit_alpha_local": _digest(result.to_dict()),
        "memory_bounds": _digest([e.to_dict() for e in estimates]),
    }


def test_sample_mode_reports_keep_their_bytes():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    made, here = pinned["environment"], environment()
    if made != here:
        differs = {key: {"file": made.get(key), "here": here.get(key)}
                   for key in sorted(made.keys() | here.keys()) if made.get(key) != here.get(key)}
        pytest.skip(f"sample-mode digests were made on another environment: {differs}")
    assert _reports() == pinned["digests"]


if __name__ == "__main__":
    doc = {"environment": environment(), "digests": _reports()}
    PINNED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
