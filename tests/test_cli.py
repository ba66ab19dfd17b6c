import json
import math

import numpy as np
import pytest

from seqcal import MarkovModel, fit_limited_memory, make_spec, memory_bound
from seqcal.cli import ConfigError, _memory_chain_holds, main, parse_config, run, verify_suite

from conftest import count_advance


BASE_CONFIG = {
    "M": 3,
    "T": 5,
    "pipeline": "drift",
    "true_model": {"kind": "random_markov", "order": 1, "concentration": 0.8},
    "model": {"recipe": "drift", "p": 0.2},
    "seed": 7,
    "n_gen": 256,
    "epsilon": 0.05,
    "tau": [1, 2],
    "prefix_len": 1,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = dict(BASE_CONFIG)
    raw.update(overrides or {})
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfigParsing:
    def test_missing_m_names_key(self):
        with pytest.raises(ConfigError, match="'M'"):
            parse_config({"T": 4, "pipeline": "drift"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="mm"):
            parse_config({"M": 2, "T": 2, "pipeline": "drift", "mm": 1})

    def test_workers_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match="'workers': unknown key"):
            parse_config({"M": 2, "T": 2, "pipeline": "drift", "workers": 1})

    def test_smoothing_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match="'smoothing': unknown key"):
            parse_config({"M": 2, "T": 2, "pipeline": "memory", "smoothing": 0.1})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="'T'"):
            parse_config({"M": 2, "T": "four", "pipeline": "drift"})
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config({"M": 2, "T": 2, "pipeline": "drift", "epsilon": 2.0})
        with pytest.raises(ConfigError, match="tau"):
            parse_config({"M": 2, "T": 2, "pipeline": "drift", "tau": [0]})

    def test_config_hash_ignores_out_dir(self):
        a = parse_config({**BASE_CONFIG, "out": "a"})
        b = parse_config({**BASE_CONFIG, "out": "b"})
        assert a.config_hash() == b.config_hash()

    def test_canonical_round_trip(self):
        cfg = parse_config(dict(BASE_CONFIG))
        again = parse_config(json.loads(json.dumps(cfg.canonical())))
        assert again.canonical() == cfg.canonical()
        assert again.config_hash() == cfg.config_hash()


class TestPipelines:
    def test_drift_artifacts(self, tmp_path):
        cfg = parse_config({**BASE_CONFIG, "out": str(tmp_path / "run")})
        code, outdir = run(cfg)
        assert code == 0
        for name in ("drift_curve.csv", "drift_curve.json", "ent_rate_gap.json",
                     "manifest.json", "runinfo.json"):
            assert (outdir / name).exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config_hash"] == cfg.config_hash()
        assert "drift_curve.csv" in manifest["artifacts"]

    def test_drift_flat_for_truth_model(self, tmp_path):
        cfg = parse_config({
            **BASE_CONFIG,
            "true_model": {"kind": "stationary_markov", "concentration": 0.8},
            "model": {"recipe": "identity"},
            "n_gen": 4096,
            "n_prefixes": 4096,
            "out": str(tmp_path / "flat"),
        })
        code, outdir = run(cfg)
        assert code == 0
        doc = json.loads((outdir / "drift_curve.json").read_text())
        means = np.array(doc["means"])
        stderrs = np.array(doc["stderrs"])
        assert means.max() - means.min() <= 3 * math.hypot(*stderrs.tolist())

    def test_calibrate_global(self, tmp_path):
        cfg = parse_config({**BASE_CONFIG, "pipeline": "calibrate-global",
                            "out": str(tmp_path / "cg")})
        code, outdir = run(cfg)
        assert code == 0
        doc = json.loads((outdir / "calibration_global.json").read_text())
        assert abs(doc["cross_entropy_tilted"] - doc["entropy_rate_tilted"]) <= 1e-8
        assert doc["objective"] <= doc["baseline_objective"] + 1e-12

    def test_calibrate_local(self, tmp_path):
        cfg = parse_config({**BASE_CONFIG, "pipeline": "calibrate-local",
                            "out": str(tmp_path / "cl")})
        code, outdir = run(cfg)
        assert code == 0
        doc = json.loads((outdir / "calibration_local.json").read_text())
        before = doc["drift_before"]["means"]
        after = doc["drift_after"]["means"]
        assert len(before) == len(after)
        assert (outdir / "drift_before.csv").exists()

    def test_memory_table(self, tmp_path):
        cfg = parse_config({**BASE_CONFIG, "pipeline": "memory",
                            "out": str(tmp_path / "mem")})
        code, outdir = run(cfg)
        assert code == 0
        rows = (outdir / "memory.csv").read_text().strip().split("\n")
        assert len(rows) == 3  # header + two taus
        doc = json.loads((outdir / "memory.json").read_text())
        for est in doc:
            assert est["bound"] >= est["exact_mi"] - 1e-9

    def test_bounds(self, tmp_path):
        cfg = parse_config({**BASE_CONFIG, "pipeline": "bounds",
                            "out": str(tmp_path / "b")})
        code, outdir = run(cfg)
        assert code == 0
        doc = json.loads((outdir / "bounds.json").read_text())
        # The premise holds by construction at the measured regret.
        at_measured = doc["bound_at_measured"]
        assert doc["mixture_kl_per_token_at_measured"] <= at_measured["mixture_kl_bound"] + 1e-12
        assert doc["gap_at_measured"] <= at_measured["generation_gap_bound"] + 1e-12

    def test_bits_units_scale_csv_only(self, tmp_path):
        nats = parse_config({**BASE_CONFIG, "out": str(tmp_path / "n")})
        bits = parse_config({**BASE_CONFIG, "units": "bits", "out": str(tmp_path / "b")})
        _, out_n = run(nats)
        _, out_b = run(bits)
        row_n = (out_n / "drift_curve.csv").read_text().strip().split("\n")[1].split(",")
        row_b = (out_b / "drift_curve.csv").read_text().strip().split("\n")[1].split(",")
        assert float(row_b[1]) == pytest.approx(float(row_n[1]) / math.log(2), rel=1e-12)
        # JSON documents stay in nats regardless
        doc_n = json.loads((out_n / "drift_curve.json").read_text())
        doc_b = json.loads((out_b / "drift_curve.json").read_text())
        assert doc_n["means"] == doc_b["means"]

    def test_gen_and_inspect(self, tmp_path):
        cfg = parse_config({**BASE_CONFIG, "pipeline": "gen", "n_gen": 16,
                            "out": str(tmp_path / "g")})
        code, outdir = run(cfg)
        assert code == 0
        rows = (outdir / "sequences.csv").read_text().strip().split("\n")
        assert rows[0] == "w1,w2,w3,w4,w5"
        assert len(rows) == 17
        cfg = parse_config({**BASE_CONFIG, "pipeline": "inspect",
                            "out": str(tmp_path / "i")})
        code, outdir = run(cfg)
        doc = json.loads((outdir / "inspect.json").read_text())
        assert doc["true_model"]["kind"] == "markov"
        assert doc["model"]["kind"] == "drift"


class TestMainEntry:
    def test_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"T": 4}))
        assert main(["drift", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "'M'" in err

    def test_budget_exceeded_maps_to_3(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 10, "T": 10, "pipeline": "drift",
                                      "model": {"recipe": "identity"}, "budget": 100})
        # drift itself does not enumerate; memory does
        assert main(["memory", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 3

    def test_overrides_recorded(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["drift", "--config", str(cfg), "--seed", "99",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["overrides"] == {"seed": 99}
        assert manifest["seed"] == 99

    @pytest.mark.parametrize(
        "pipeline", ["drift", "calibrate-global", "calibrate-local", "memory", "verify"]
    )
    def test_replay_bit_exact(self, tmp_path, pipeline):
        overrides = {"T": 4, "instances": 4} if pipeline == "verify" else None
        cfg = write_config(tmp_path, overrides)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([pipeline, "--config", str(cfg), "--out", str(a)]) == 0
        assert main([pipeline, "--config", str(cfg), "--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir() if p.name != "runinfo.json")
        # verify writes its report and the manifest; every other pipeline more.
        assert "manifest.json" in names and len(names) >= (2 if pipeline == "verify" else 3)
        assert names == sorted(p.name for p in b.iterdir() if p.name != "runinfo.json")
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestVerifyPipeline:
    def test_memory_chain_advances_comparator_once_per_level(self, rng):
        truth = MarkovModel.random(make_spec(2, 5), 2, rng)
        full = truth.perturbed(rng, 0.3)
        comparator = fit_limited_memory(truth, 1)
        est = memory_bound(truth, full, comparator)
        calls = count_advance(comparator)
        assert _memory_chain_holds(truth, full, comparator, est, None, 1e-10)
        assert calls == [truth.spec.T - 1]

    def test_bundled_fixture_passes(self, tmp_path):
        from pathlib import Path

        bundled = Path(__file__).resolve().parent.parent / "configs" / "verify.json"
        assert main(["verify", "--config", str(bundled), "--instances", "10",
                     "--out", str(tmp_path / "bundled")]) == 0

    def test_small_suite_passes(self, tmp_path):
        cfg = parse_config({"M": 3, "T": 4, "pipeline": "verify", "seed": 3,
                            "instances": 8, "out": str(tmp_path / "v")})
        code, outdir = run(cfg)
        assert code == 0
        report = json.loads((outdir / "verify_report.json").read_text())
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert "oracle_identities" in names
        assert "memory_bound_dominates" in names

    def test_deterministic_report(self):
        cfg = parse_config({"M": 3, "T": 4, "pipeline": "verify", "seed": 5,
                            "instances": 5})
        a = verify_suite(cfg)
        b = verify_suite(cfg)
        assert a == b
