import argparse
import json
import math
import weakref

import numpy as np
import pytest

import seqcal.exact
import seqcal.memory
import seqcal.verify
from seqcal import (
    EnumerationBudget,
    MarkovModel,
    MixtureModel,
    amplification_bound,
    cross_entropy_exact,
    entropy_rate_exact,
    fit_limited_memory,
    kl_exact,
    make_spec,
    memory_bound,
)
from seqcal.cli import (
    PIPELINES,
    ConfigError,
    ExperimentConfig,
    _add_common_flags,
    _sample_prefixes,
    build_learned_model,
    build_true_model,
    main,
    parse_config,
    run,
)
from seqcal.rng import named_stream
from seqcal.verify import _check_local_fit, _check_memory_decay, _memory_chain_holds, verify_suite

from conftest import count_calls


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

    @pytest.mark.parametrize("pipeline", list(PIPELINES))
    def test_defaults_are_the_declared_fields(self, pipeline):
        assert parse_config({"M": 2, "T": 3, "pipeline": pipeline}) == ExperimentConfig(2, 3, pipeline)

    def test_config_hash_ignores_out_dir(self):
        a = parse_config({**BASE_CONFIG, "out": "a"})
        b = parse_config({**BASE_CONFIG, "out": "b"})
        assert a.config_hash() == b.config_hash()

    def test_canonical_round_trip(self):
        cfg = parse_config(dict(BASE_CONFIG))
        again = parse_config(json.loads(json.dumps(cfg.canonical())))
        assert again.canonical() == cfg.canonical()
        assert again.config_hash() == cfg.config_hash()


class TestModelBuilders:
    def test_learned_kind_draws_independently_of_truth(self):
        desc = {"kind": "random_markov", "order": 2}
        cfg = parse_config({**BASE_CONFIG, "true_model": desc, "model": desc})
        truth = build_true_model(cfg)
        learned = build_learned_model(cfg, truth)
        expected = MarkovModel.random(cfg.spec(), 2, named_stream(cfg.seed, "learned-model"))
        for table, own, true_table in zip(learned.tables, expected.tables, truth.tables):
            assert np.array_equal(table, own)
            assert not np.array_equal(table, true_table)

    @pytest.mark.parametrize("desc", [{"kind": "bogus"}, {"kind": "file"}])
    def test_learned_kind_errors_name_model(self, desc):
        cfg = parse_config({**BASE_CONFIG, "model": desc})
        with pytest.raises(ConfigError, match="^config key 'model'"):
            build_learned_model(cfg, build_true_model(cfg))


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

    def test_ent_rate_gap_reads_the_written_curve(self, tmp_path):
        cfg = parse_config({**BASE_CONFIG, "out": str(tmp_path / "run")})
        code, outdir = run(cfg)
        assert code == 0
        curve = json.loads((outdir / "drift_curve.json").read_text())
        gap = json.loads((outdir / "ent_rate_gap.json").read_text())
        assert gap["curve"] == curve
        assert (gap["end"], gap["end_stderr"]) == (curve["means"][-1], curve["stderrs"][-1])

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

    def test_sampled_prefix_rows_are_dead_at_the_next_draw(self, monkeypatch):
        # Only the tokens of a prefix step are kept, so no step's rows stay
        # alive, in the reader or the sampler's frame, when the next rows
        # are drawn.
        cfg = parse_config({**BASE_CONFIG, "prefix_len": 4, "n_prefixes": 32})
        truth = build_true_model(cfg)
        refs, dead = [], []

        def rows(state, _rows=truth.rows):
            dead.append([ref() is None for ref in refs])
            out = _rows(state)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(truth, "rows", rows)
        assert _sample_prefixes(cfg, truth).shape == (32, 4)
        assert dead == [[True] * t for t in range(4)]

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

    def test_bounds_walks_each_lattice_once(self, tmp_path, monkeypatch):
        # The truth, the model and the two mixtures: four walks, and every
        # field equal to its public oracle.
        cfg = parse_config({**BASE_CONFIG, "pipeline": "bounds", "out": str(tmp_path / "b")})
        walked = []
        grow = seqcal.exact._grow

        def counting(models, states, first, last, *args, **kwargs):
            # Every walk from the root starts here at level 1; at T = 5 the
            # tail blocks of `sequence_log_probs` start at level 3.
            if first == 1:
                walked.append(models[0].kind)
            return grow(models, states, first, last, *args, **kwargs)

        monkeypatch.setattr(seqcal.exact, "_grow", counting)
        code, outdir = run(cfg)
        monkeypatch.undo()
        assert code == 0
        assert sorted(walked) == ["drift", "markov", "mixture", "mixture"]
        doc = json.loads((outdir / "bounds.json").read_text())
        truth = build_true_model(cfg)
        model = build_learned_model(cfg, truth)
        mixture = MixtureModel(model, cfg.epsilon)
        measured = kl_exact(truth, model) / cfg.T
        assert 0.0 < measured < 1.0
        mix_m = MixtureModel(model, measured)
        assert doc["measured_epsilon"] == measured
        assert doc["mixture_kl_per_token"] == kl_exact(truth, mixture) / cfg.T
        assert doc["mixture_cross_entropy"] == cross_entropy_exact(truth, mixture)
        assert doc["mixture_entropy_rate"] == entropy_rate_exact(mixture)
        assert doc["bound_at_measured"] == amplification_bound(measured, cfg.T, cfg.M).to_dict()
        assert doc["mixture_kl_per_token_at_measured"] == kl_exact(truth, mix_m) / cfg.T
        assert doc["gap_at_measured"] == abs(cross_entropy_exact(truth, mix_m) - entropy_rate_exact(mix_m))

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


class TestModelFileBudget:
    def test_inspect_reloads_a_global_tilt_under_the_configured_budget(self, tmp_path):
        # calibrate-global at M = 4, T = 10 writes a tilt whose 4**10
        # lattice exceeds the default budget; a file model loads under the
        # configured one.
        config = {**BASE_CONFIG, "M": 4, "T": 10, "true_model": {"kind": "random_markov", "order": 2,
                  "concentration": 0.8}, "model": {"recipe": "drift", "p": 0.1}, "budget": 2_000_000}
        code, outdir = run(parse_config({**config, "pipeline": "calibrate-global", "out": str(tmp_path / "c")}))
        assert code == 0
        model = {"kind": "file", "path": str(outdir / "calibrated_model.json")}
        cfg = write_config(tmp_path, {**config, "model": model})
        assert main(["inspect", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 0
        doc = json.loads((tmp_path / "i" / "inspect.json").read_text())
        assert doc["model"]["kind"] == "global_tilt"
        assert math.isfinite(doc["model"]["entropy_rate"])


class TestMainEntry:
    def test_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"T": 4}))
        assert main(["drift", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "'M'" in err

    @pytest.mark.parametrize("key, value", [
        ("t_policy", 9),
        ("true_model", {"kind": "random_markov", "order": -1}),
        ("true_model", {"kind": "random_markov", "concentration": 0}),
        ("model", {"recipe": "drift", "p": 2}),
        ("model", {"recipe": "mixture", "gamma": "x"}),
        ("true_model", {"kind": "file", "path": "missing.json"}),
        ("model", {"kind": "file", "path": "missing.json"}),
        ("model", {"recipe": "mixture", "gamma": None}),
        ("model", {"recipe": "drift", "p": [0.1]}),
        ("true_model", {"kind": "random_markov", "order": None}),
        ("true_model", {"kind": "inline", "model": 5}),
        ("true_model", {"kind": "inline", "model": {
            "format_version": 1, "kind": "markov", "M": 3, "T": 4,
            "parameters": {"tables": [[[1 / 3] * 3]]}}}),
    ], ids=["t_policy", "order", "concentration", "drift_p", "gamma", "true_file", "model_file",
            "null_gamma", "list_p", "null_order", "inline_not_a_document", "inline_no_order"])
    def test_bad_description_exits_2_naming_its_key(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {"M": 3, "T": 4, key: value})
        assert main(["memory", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix_len, code", [(4, 2), (3, 0)])
    def test_prefix_len_must_be_below_T(self, tmp_path, capsys, prefix_len, code):
        # A seed as long as the sequence leaves no generated step to measure.
        cfg = write_config(tmp_path, {"M": 2, "T": 4, "prefix_len": prefix_len})
        assert main(["calibrate-local", "--config", str(cfg), "--out", str(tmp_path / "c")]) == code
        if code == 2:
            assert "config key 'prefix_len'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["random_markov", "stationary_markov"])
    @pytest.mark.parametrize("concentration", [0, -2.0])
    def test_non_positive_concentration_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch, kind, concentration
    ):
        monkeypatch.chdir(tmp_path)
        desc = {"kind": kind, "concentration": concentration}
        cfg = write_config(tmp_path, {"M": 3, "T": 4, "true_model": desc})
        assert main(["drift", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert "config key 'true_model': concentration must be a positive finite number" in err

    @pytest.mark.parametrize("T, tau, code", [
        (4, [1, 3, 5], 2),
        (2, [1, 2], 2),
        (1, [1], 2),
        (4, [3], 0),
    ])
    def test_memory_gap_must_be_below_T(self, tmp_path, capsys, T, tau, code):
        cfg = write_config(tmp_path, {"M": 2, "T": T, "tau": tau, "prefix_len": 0})
        assert main(["memory", "--config", str(cfg), "--out", str(tmp_path / "m")]) == code
        if code == 2:
            assert "config key 'tau'" in capsys.readouterr().err

    def test_budget_exceeded_maps_to_3(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 10, "T": 10, "pipeline": "drift",
                                      "model": {"recipe": "identity"}, "budget": 100})
        # drift itself does not enumerate; memory does
        assert main(["memory", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 3

    @pytest.mark.parametrize("budget, code", [(16, 0), (15, 3)])
    def test_budget_boundary_exit_code(self, tmp_path, budget, code):
        # memory enumerates M**T = 16 states: exactly at the budget runs.
        cfg = write_config(tmp_path, {"M": 2, "T": 4, "budget": budget})
        assert main(["memory", "--config", str(cfg), "--out", str(tmp_path / "m")]) == code

    def test_overrides_recorded(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["drift", "--config", str(cfg), "--seed", "99",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["overrides"] == {"seed": 99}
        assert manifest["seed"] == 99

    def test_every_flag_is_an_override(self, tmp_path):
        flags = {
            "seed": ("5", 5), "format": ("json", "json"), "units": ("bits", "bits"),
            "M": ("2", 2), "T": ("3", 3), "epsilon": ("0.1", 0.1), "tau": ("1,2", [1, 2]),
            "n_gen": ("8", 8), "instances": ("3", 3), "tolerance": ("1e-9", 1e-9),
            "prefix_len": ("1", 1),
        }
        parser = argparse.ArgumentParser()
        _add_common_flags(parser)
        assert set(vars(parser.parse_args([]))) == {*flags, "config", "out"}
        argv = ["gen", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]
        for key, (text, _) in flags.items():
            argv += [f"--{key.replace('_', '-')}", text]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        expected = {key: value for key, (_, value) in flags.items()}
        assert manifest["overrides"] == expected
        assert {key: manifest["config"][key] for key in expected} == expected

    def test_non_finite_inline_model_exits_2(self, tmp_path, capsys):
        spec = make_spec(3, 4)
        doc = seqcal.model_to_dict(seqcal.LocalTiltModel(MarkovModel.uniform(spec), 0.5))
        doc["parameters"]["alpha"] = math.nan
        cfg = write_config(tmp_path, {"M": 3, "T": 4, "true_model": {"kind": "inline", "model": doc}})
        assert main(["inspect", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 2
        assert "config key 'true_model': alpha must be finite" in capsys.readouterr().err

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
        calls = count_calls(comparator, "advance")
        assert _memory_chain_holds(truth, full, comparator, est, None, 1e-10)
        assert calls == [truth.spec.T - 1]

    def test_decay_check_walks_each_instance_three_times(self, monkeypatch):
        # One walk serves the fits and bounds at tau = 1, 2, 3, and the
        # windowed check's fit and bound take one each; a walk per fit and
        # per bound made 8.
        walks = []

        class Counted(seqcal.memory._WindowMass):
            def __init__(self, *args, **kwargs):
                walks.append(tuple(args[2]))  # the walk's windows
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(seqcal.memory, "_WindowMass", Counted)
        report = _check_memory_decay(named_stream(1, "verify-decay"), 1, EnumerationBudget(), 1e-10)
        assert report["failures"] == []
        assert walks == [(1, 2, 3), (1,), (1,)]

    @pytest.mark.parametrize("seed, instance", [(1, 37), (29, 27)])
    def test_local_premise_miss_is_redrawn(self, seed, instance):
        # These draws hold every claim but miss the premise mismatch >= 0.01.
        report = _check_local_fit(named_stream(seed, "verify-local"), 40, EnumerationBudget(), 1e-10)
        assert report["failures"] == []
        [redrawn] = report["redrawn"]
        assert redrawn["instance"] == instance and redrawn["mismatch"] < 0.01

    def test_local_premise_miss_past_the_cap_fails(self, monkeypatch):
        monkeypatch.setattr(seqcal.verify, "_LOCAL_MAX_REDRAWS", 0)
        report = _check_local_fit(named_stream(1, "verify-local"), 38, EnumerationBudget(), 1e-10)
        assert report["redrawn"] == []
        [failure] = report["failures"]
        assert failure["instance"] == 37 and failure["mismatch"] < 0.01

    def test_benchmark_verify_config_passes(self, tmp_path):
        cfg = parse_config({"M": 3, "T": 4, "pipeline": "verify", "seed": 1, "instances": 200,
                            "budget": 1_000_000, "out": str(tmp_path / "v")})
        code, outdir = run(cfg)
        assert code == 0
        assert json.loads((outdir / "verify_report.json").read_text())["n_failures"] == 0

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
