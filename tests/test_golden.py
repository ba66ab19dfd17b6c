"""Every artifact byte against the committed golden digests.

``tests/golden/digests.json`` holds the SHA-256 of each artifact of the
runs in ``golden_digests.py``; regenerate it with that script.  The
bytes depend on the Python and numpy versions and the machine, so on an
environment other than the file's the test skips and names both.
"""

import json

import pytest

from golden_digests import GOLDEN, environment, run_digests


def test_artifacts_keep_their_golden_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    made, here = golden["environment"], environment()
    if made != here:
        differs = {key: {"file": made.get(key), "here": here.get(key)}
                   for key in sorted(made.keys() | here.keys()) if made.get(key) != here.get(key)}
        pytest.skip(f"golden digests were made on another environment: {differs}")
    runs = run_digests(tmp_path)
    assert runs.keys() == golden["runs"].keys()
    moved = [f"{key}/{name}" for key, digests in golden["runs"].items()
             for name in sorted(digests.keys() | runs[key].keys())
             if digests.get(name) != runs[key].get(name)]
    assert not moved, f"artifacts whose bytes moved: {moved}"


def test_artifact_diff_names_each_moved_field(tmp_path):
    from artifact_diff import compare

    old, new = tmp_path / "old" / "run", tmp_path / "new" / "run"
    for root, (x, mi, n) in ((old, (2.0, 1e-9, 3)), (new, (2.0 + 4e-12, 3e-9, 4))):
        root.mkdir(parents=True)
        (root / "a.json").write_text(json.dumps({"x": x, "per_step": {"2": {"mi": mi}}, "n": n, "h": "ab"}))
        (root / "b.csv").write_text("quantity,value\nalpha,0.5\n")
        (root / "runinfo.json").write_text(json.dumps({"wall_s": x}))
    moves = compare(tmp_path / "old", tmp_path / "new")
    assert moves.keys() == {"run/a.json"}
    fields = moves["run/a.json"]
    assert fields.keys() == {("x", "rel"), ("per_step.*.mi", "abs"), ("n", "diff")}
    assert fields["x", "rel"] == (pytest.approx(2e-12), pytest.approx(4e-12))
    assert fields["per_step.*.mi", "abs"] == pytest.approx(2e-9)
    assert fields["n", "diff"] == 1
