"""Experiment orchestration.

Builds models from a flat JSON config and runs one of the pipelines
(calibrate-global, calibrate-local, drift, memory, bounds, verify, gen,
inspect).  A pipeline returns JSON documents, in nats, and plot-ready
CSV tables, in the run's units; :func:`run` alone encodes and writes
them, the tables only in csv format, with a run manifest.  Consumers
are scripts and people reading files; there is no interactive mode.

Reproducibility contract: every result artifact is a pure function of
the canonical config and the seed, so re-running with the same config
and seed reproduces the files byte for byte.  Volatile facts (wall time,
start timestamp) go to ``runinfo.json``, which is excluded from that
guarantee; ``manifest.json`` records the config hash, seeds, versions
and artifact checksums and is itself deterministic.

Exit codes: 0 success, 2 config error, 3 resource/budget or numerical
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timezone
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    CalibrationDivergenceError,
    LocalTiltModel,
    _fit_step,
    amplification_bound,
    calibrate_entropy_rate,
)
from .estimate import (
    _exact_drift_curve,
    cross_entropy_mc,
    drift_curve,
    drift_curve_exact,
    ent_rate_gap,
)
from .exact import (
    BudgetExceededError,
    EnumerationBudget,
    _cross_entropy_from_log_probs,
    _entropy_from_log_probs,
    _kl_from_log_probs,
    entropy_rate_exact,
    sequence_log_probs,
)
from .memory import memory_bounds
from .models import (
    ConditionalModel,
    DriftModel,
    MarkovModel,
    MixtureModel,
    PerTokenMixture,
    dirichlet_rows,
    load_model,
    make_spec,
    model_from_dict,
    model_hash,
    model_to_dict,
    stationary_distribution,
)
from .rng import named_stream

MANIFEST_FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


# ---------------------------------------------------------------------------
# Model construction from descriptions.
# ---------------------------------------------------------------------------


def _build_described_model(desc: dict, cfg: ExperimentConfig, key: str, stream: str) -> ConditionalModel:
    """The model of a ``kind`` description, drawn from `stream`; errors name `key`."""
    spec = cfg.spec()
    kind = desc.get("kind")
    if kind == "uniform":
        return MarkovModel.uniform(spec, int(desc.get("order", 0)))
    if kind == "random_markov":
        return MarkovModel.random(
            spec,
            int(desc.get("order", 1)),
            named_stream(cfg.seed, stream),
            concentration=desc.get("concentration", 1.0),
        )
    if kind == "stationary_markov":
        # Order-1 chain started from its stationary distribution, so its
        # own generations have a time-invariant conditional entropy.
        transition = dirichlet_rows(named_stream(cfg.seed, stream), spec.M, spec.M,
                                    desc.get("concentration", 1.0))
        pi = stationary_distribution(transition)
        return MarkovModel(spec, 1, [pi[None, :], transition])
    if kind == "file":
        path = desc.get("path")
        if not path:
            raise ConfigError(key, "kind 'file' requires a 'path'")
        model = load_model(path, cfg.enumeration_budget())
        if model.spec != spec:
            raise ConfigError(key, "file model does not match configured M/T")
        return model
    if kind == "inline":
        model = model_from_dict(desc.get("model", {}), cfg.enumeration_budget())
        if model.spec != spec:
            raise ConfigError(key, "inline model does not match configured M/T")
        return model
    raise ConfigError(key, f"unknown kind {kind!r}")


def build_true_model(cfg: ExperimentConfig) -> ConditionalModel:
    return _build_described_model(cfg.true_model, cfg, "true_model", "true-model")


def build_learned_model(cfg: ExperimentConfig, truth: ConditionalModel) -> ConditionalModel:
    """The learned model: a kind drawn independently of the truth, or a recipe applied to it."""
    desc = cfg.model
    if "kind" in desc:
        return _build_described_model(desc, cfg, "model", "learned-model")
    recipe = desc.get("recipe", "identity")
    rng = named_stream(cfg.seed, "learned-model")
    if recipe == "identity":
        return truth
    if recipe == "dirichlet_perturb":
        if not isinstance(truth, MarkovModel):
            raise ConfigError("model", "dirichlet_perturb requires a table-model truth")
        return truth.perturbed(rng, float(desc.get("scale", 0.25)))
    if recipe == "drift":
        return DriftModel(truth, desc.get("p"))
    if recipe == "mixture":
        return MixtureModel(truth, float(desc.get("gamma", cfg.epsilon)))
    if recipe == "per_token_mixture":
        return PerTokenMixture(truth, float(desc.get("gamma", cfg.epsilon)))
    raise ConfigError("model", f"unknown recipe {recipe!r}")


def _described(build, key: str, *args) -> ConditionalModel:
    """``build(*args)``, turning the error of a bad value, type, field or file into a ConfigError."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except KeyError as err:
        raise ConfigError(key, f"missing field {err}") from err
    except (ValueError, TypeError, AttributeError, OSError) as err:
        raise ConfigError(key, str(err)) from err


# ---------------------------------------------------------------------------
# Pipelines.  Each returns (exit_code, docs, tables), both keyed by artifact
# stem: docs are JSON-able documents, tables are CSV tables as (header, rows),
# their rows lazy.
# ---------------------------------------------------------------------------


# Internal values are nats.  A pipeline multiplies the information values
# of its tables by the run's scale, never alpha_star, t, n, tau, T or M.
_UNITS = {"nats": 1.0, "bits": 1.0 / math.log(2.0)}


def _json_bytes(doc) -> bytes:
    """Strict JSON: a float that is not finite is the string "Infinity", "-Infinity" or "NaN"."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        text = json.dumps(_finite_json(doc), sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


def _finite_json(doc):
    """`doc` with each float that is not finite replaced by its name, which keeps the sign."""
    if isinstance(doc, float) and not math.isfinite(doc):
        return "NaN" if math.isnan(doc) else "Infinity" if doc > 0.0 else "-Infinity"
    if isinstance(doc, dict):
        return {key: _finite_json(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite_json(value) for value in doc]
    return doc


def _csv(header, rows) -> bytes:
    """A CSV table: None is an empty cell, a float its repr and anything else its str."""
    lines = [",".join(header)]
    lines.extend(",".join("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _curve_table(curve, scale: float):
    """A drift curve's table: step t, mean and stderr in the run's units, and the generation count n."""
    rows = ((int(t), float(m) * scale, float(s) * scale, curve.n_generations)
            for t, m, s in zip(curve.steps, curve.means, curve.stderrs))
    return ("t", "mean", "stderr", "n"), rows


def _seed_prov(cfg: ExperimentConfig, stream: str) -> dict:
    return {"seed": cfg.seed, "stream": stream, "config_hash": cfg.config_hash()}


def _sample_prefixes(cfg: ExperimentConfig, truth: ConditionalModel):
    if cfg.prefix_len < 1:
        return None
    rng = named_stream(cfg.seed, "prefixes")
    steps = truth._generate(truth.init_state(cfg.n_prefixes), 0, rng)
    return np.stack(list(islice(map(itemgetter(2), steps), cfg.prefix_len)), axis=1)


def _pipeline_drift(cfg, truth, model, budget):
    curve = drift_curve(
        model,
        cfg.n_gen,
        named_stream(cfg.seed, "drift"),
        prefixes=_sample_prefixes(cfg, truth),
        provenance=_seed_prov(cfg, "drift"),
    )
    ce = cross_entropy_mc(truth, model, cfg.n_samples, named_stream(cfg.seed, "ent-rate-gap"))
    docs = {"drift_curve": curve.to_dict(), "ent_rate_gap": ent_rate_gap(curve, ce).to_dict()}
    return 0, docs, {"drift_curve": _curve_table(curve, _UNITS[cfg.units])}


def _calibration_output(cfg, name, model, result, extra):
    """The documents and table of a fit: its report with `extra`, the tilted model, and its quantities."""
    scale = _UNITS[cfg.units]
    docs = {name: {**result.to_dict(), **extra}, "calibrated_model": model_to_dict(model)}
    rows = ((key, float(getattr(result, key)) * (1.0 if key == "alpha_star" else scale))
            for key in ("alpha_star", "objective", "baseline_objective", "improvement"))
    return docs, {name: (("quantity", "value"), rows)}


def _pipeline_calibrate_global(cfg, truth, model, budget):
    tilted, result = calibrate_entropy_rate(
        truth,
        model,
        cfg.epsilon,
        tolerance=cfg.tolerance,
        budget=budget,
        provenance=_seed_prov(cfg, "calibrate-global"),
    )
    # The fit's objective is CE(truth || tilted); the tilted entropy is
    # one blocked pass over the fit's problem at alpha*, so the tilted
    # model's lattice vector and pyramid are never built.
    extra = {
        "entropy_rate_tilted": _entropy_from_log_probs(tilted._problem.tilt(tilted.alpha)) / cfg.T,
        "cross_entropy_tilted": result.objective,
    }
    return 0, *_calibration_output(cfg, "calibration_global", tilted, result, extra)


def _pipeline_calibrate_local(cfg, truth, model, budget):
    # fit_alpha_local, keeping the problem it fits.
    problem = LocalTiltModel(model, 0.0)._problem(truth, budget)
    tilted, result = _fit_step(problem, cfg.tolerance, _seed_prov(cfg, "calibrate-local"))
    # The final step is untilted (lookahead feature 0), so the
    # flattening comparison uses the last tilted step as the proxy.
    # Seeded by the truth, both curves are read off the problem, which
    # keeps the rows of every step but the folded last; a curve to step T
    # walks the lattice.
    P, t_max = cfg.prefix_len, max(cfg.T - 1, cfg.prefix_len + 1)
    if t_max < cfg.T:
        before, after = (_exact_drift_curve(m, problem.forward(alpha, P + 1, t_max), P, t_max)
                         for m, alpha in ((model, 0.0), (tilted, tilted.alpha)))
    else:
        before, after = (drift_curve_exact(m, budget, seed_model=truth, prefix_len=P, t_max=t_max)
                         for m in (model, tilted))
    extra = {"drift_before": before.to_dict(), "drift_after": after.to_dict()}
    docs, tables = _calibration_output(cfg, "calibration_local", tilted, result, extra)
    scale = _UNITS[cfg.units]
    tables.update(drift_before=_curve_table(before, scale), drift_after=_curve_table(after, scale))
    return 0, docs, tables


def _pipeline_memory(cfg, truth, model, budget):
    estimates = memory_bounds(truth, model, cfg.tau, t_policy=cfg.t_policy, budget=budget,
                              tolerance=cfg.tolerance, provenance=_seed_prov(cfg, "memory"))
    scale = _UNITS[cfg.units]

    def scaled(value):
        return None if value is None else float(value) * scale

    header = ("tau", "ce_comparator", "bound", "alpha_star", "exact_mi", "ce_stderr", "bound_stderr")
    rows = ((e.tau, scaled(e.ce_comparator), scaled(e.bound), float(e.alpha_star), scaled(e.exact_mi),
             scaled(e.ce_stderr), scaled(e.bound_stderr)) for e in estimates)
    return 0, {"memory": [e.to_dict() for e in estimates]}, {"memory": (header, rows)}


def _pipeline_bounds(cfg, truth, model, budget):
    T = cfg.T
    doc = amplification_bound(cfg.epsilon, T, cfg.M).to_dict()
    try:
        # One lattice walk per model: the truth, the model and each mixture.
        lp_true = sequence_log_probs(truth, budget)
        measured = _kl_from_log_probs(lp_true, sequence_log_probs(model, budget)) / T
        lp_mix = sequence_log_probs(MixtureModel(model, cfg.epsilon), budget)
        doc["measured_epsilon"] = measured
        doc["mixture_kl_per_token"] = _kl_from_log_probs(lp_true, lp_mix) / T
        doc["mixture_cross_entropy"] = _cross_entropy_from_log_probs(lp_true, lp_mix, T)
        doc["mixture_entropy_rate"] = _entropy_from_log_probs(lp_mix) / T
        # The configured epsilon is only a claim; the bounds evaluated at
        # the measured regret have a valid premise by construction.
        if 0.0 < measured < 1.0:
            lp_mix_m = sequence_log_probs(MixtureModel(model, measured), budget)
            doc["bound_at_measured"] = amplification_bound(measured, T, cfg.M).to_dict()
            doc["mixture_kl_per_token_at_measured"] = _kl_from_log_probs(lp_true, lp_mix_m) / T
            ce_m = _cross_entropy_from_log_probs(lp_true, lp_mix_m, T)
            doc["gap_at_measured"] = abs(ce_m - _entropy_from_log_probs(lp_mix_m) / T)
    except BudgetExceededError:
        doc["measured_epsilon"] = None
    scale = _UNITS[cfg.units]
    rows = ((key, value if key in ("T", "M") else float(value) * scale)
            for key, value in sorted(doc.items()) if value is not None and not isinstance(value, dict))
    return 0, {"bounds": doc}, {"bounds": (("quantity", "value"), rows)}


def _pipeline_gen(cfg, truth, model, budget):
    seqs = model.sample_batch(cfg.n_gen, named_stream(cfg.seed, "gen"))
    doc = {
        "sequences": seqs.tolist(),
        "provenance": _seed_prov(cfg, "gen"),
        "model_hash": model_hash(model),
    }
    header = [f"w{t}" for t in range(1, cfg.T + 1)]
    return 0, {"sequences": doc}, {"sequences": (header, doc["sequences"])}


def _pipeline_inspect(cfg, truth, model, budget):
    def summary(m):
        doc = {
            "kind": m.kind,
            "M": m.spec.M,
            "T": m.spec.T,
            "hash": model_hash(m),
        }
        try:
            doc["entropy_rate"] = entropy_rate_exact(m, budget)
        except BudgetExceededError:
            doc["entropy_rate"] = None
        return doc

    return 0, {"inspect": {"true_model": summary(truth), "model": summary(model)}}, {}


def _pipeline_verify(cfg, truth, model, budget):
    from .verify import verify_suite  # deferred: only this pipeline needs it

    report = verify_suite(cfg)
    return 0 if report["passed"] else 4, {"verify_report": report}, {}


PIPELINES = {
    "calibrate-global": _pipeline_calibrate_global,
    "calibrate-local": _pipeline_calibrate_local,
    "drift": _pipeline_drift,
    "memory": _pipeline_memory,
    "bounds": _pipeline_bounds,
    "verify": _pipeline_verify,
    "gen": _pipeline_gen,
    "inspect": _pipeline_inspect,
}


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """An experiment; each field is one config key and declares it once.

    :func:`parse_config` checks a raw value against the field's annotated
    type and its metadata: ``minimum``, the least value, and ``choices``,
    the allowed ones.  A field without a default is a required key.
    """

    M: int = field(metadata={"minimum": 2})
    T: int = field(metadata={"minimum": 1})
    pipeline: str = field(metadata={"choices": PIPELINES})
    true_model: dict = field(default_factory=lambda: {"kind": "random_markov", "order": 1})
    model: dict = field(default_factory=lambda: {"recipe": "identity"})
    seed: int = field(default=0, metadata={"minimum": 0})
    out: str | None = None
    format: str = field(default="csv", metadata={"choices": ("csv", "json")})
    budget: int = field(default=10**6, metadata={"minimum": 1})
    epsilon: float = 0.01
    tau: list = field(default_factory=lambda: [1])
    n_gen: int = field(default=512, metadata={"minimum": 2})
    n_samples: int = field(default=100000, metadata={"minimum": 2})
    tolerance: float = field(default=1e-10, metadata={"minimum": 0.0})
    t_policy: str | int = "average"
    prefix_len: int = field(default=0, metadata={"minimum": 0})
    n_prefixes: int = field(default=128, metadata={"minimum": 1})
    instances: int = field(default=50, metadata={"minimum": 1})
    units: str = field(default="nats", metadata={"choices": _UNITS})

    def spec(self):
        return make_spec(self.M, self.T)

    def enumeration_budget(self) -> EnumerationBudget:
        return EnumerationBudget(self.budget)

    def canonical(self) -> dict:
        # The output directory is where results land, not what they
        # are; leaving it out keeps the hash a pure experiment identity.
        doc = asdict(self)
        doc["tau"] = [int(t) for t in self.tau]
        del doc["out"]
        return doc

    def canonical_text(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


def _checked(f, value):
    """A raw value of the config field `f`, checked against its declaration."""
    kind = f.type.removesuffix(" | None")  # the annotation's text
    types, noun = {
        "int": (int, "an integer"),
        "float": ((int, float), "a number"),
        "str": (str, "a string"),
        "dict": (dict, "an object"),
    }[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f.name, f"expected {noun}, got {value!r}")
    if kind == "float":
        value = float(value)
    minimum, choices = f.metadata.get("minimum"), f.metadata.get("choices")
    if minimum is not None and value < minimum:
        raise ConfigError(f.name, f"must be >= {minimum}, got {value}")
    if choices is not None and value not in choices:
        raise ConfigError(f.name, f"must be one of {sorted(choices)}, got {value!r}")
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    declared = fields(ExperimentConfig)
    names = {f.name for f in declared}
    for key in raw:
        if key not in names:
            raise ConfigError(key, "unknown key")
    values = {}
    if "tau" in raw:
        tau = raw["tau"]
        if isinstance(tau, int) and not isinstance(tau, bool):
            tau = [tau]
        if not isinstance(tau, list) or not tau or any(
            isinstance(t, bool) or not isinstance(t, int) or t < 1 for t in tau
        ):
            raise ConfigError("tau", f"expected a positive integer or list of them, got {raw['tau']!r}")
        values["tau"] = tau
    if "t_policy" in raw:
        t_policy = raw["t_policy"]
        if not (t_policy == "average" or (isinstance(t_policy, int) and not isinstance(t_policy, bool))):
            raise ConfigError("t_policy", f"expected 'average' or a step index, got {t_policy!r}")
        values["t_policy"] = t_policy
    for f in declared:
        if f.name in values:
            continue
        if f.name in raw:
            values[f.name] = _checked(f, raw[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f.name, "missing required key")
    cfg = ExperimentConfig(**values)
    if not 0.0 < cfg.epsilon < 1.0:
        raise ConfigError("epsilon", f"must lie in (0, 1), got {cfg.epsilon}")
    if cfg.prefix_len >= cfg.T:
        raise ConfigError("prefix_len", f"must be < T = {cfg.T}")
    if cfg.pipeline == "memory" and max(cfg.tau) >= cfg.T:
        raise ConfigError("tau", f"memory gaps must be < T = {cfg.T}, got {cfg.tau}")
    if cfg.t_policy != "average" and not 1 <= cfg.t_policy <= cfg.T:
        raise ConfigError("t_policy", f"step must lie in 1..{cfg.T}, got {cfg.t_policy}")
    return cfg


# ---------------------------------------------------------------------------
# Run driver.
# ---------------------------------------------------------------------------


def run(cfg: ExperimentConfig, overrides: dict | None = None) -> tuple[int, Path]:
    """Execute the configured pipeline; returns (exit_code, output_dir)."""
    started = time.time()
    budget = cfg.enumeration_budget()
    truth = _described(build_true_model, "true_model", cfg)
    model = _described(build_learned_model, "model", cfg, truth)

    code, docs, tables = PIPELINES[cfg.pipeline](cfg, truth, model, budget)
    artifacts = {f"{stem}.json": _json_bytes(doc) for stem, doc in docs.items()}
    if cfg.format == "csv":
        artifacts.update((f"{stem}.csv", _csv(*table)) for stem, table in tables.items())

    if cfg.out:
        outdir = Path(cfg.out)
    else:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
        outdir = Path(f"run-{stamp}-{cfg.config_hash()[:10]}")
    outdir.mkdir(parents=True, exist_ok=True)

    for name in sorted(artifacts):
        (outdir / name).write_bytes(artifacts[name])

    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "tool": "seqcal",
        "tool_version": __version__,
        "pipeline": cfg.pipeline,
        "config": cfg.canonical(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "overrides": {k: v for k, v in (overrides or {}).items() if k != "out"},
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "artifacts": {
            name: hashlib.sha256(artifacts[name]).hexdigest() for name in sorted(artifacts)
        },
        "exit_code": code,
    }
    (outdir / "manifest.json").write_bytes(_json_bytes(manifest))
    runinfo = {
        "started_utc": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "wall_time_s": time.time() - started,
        "output_dir": str(outdir),
        "volatile": True,
    }
    (outdir / "runinfo.json").write_bytes(_json_bytes(runinfo))
    return code, outdir


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------


def _add_common_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--config", type=str, default=None, help="JSON config file")
    sp.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    sp.add_argument("--out", type=str, default=None, help="output directory")
    sp.add_argument("--format", type=str, choices=("csv", "json"), default=None,
                    help="table format (json documents are always written)")
    sp.add_argument("--units", type=str, choices=("nats", "bits"), default=None,
                    help="units for CSV tables; internal values stay in nats")
    sp.add_argument("--M", type=int, default=None, help="vocabulary size")
    sp.add_argument("--T", type=int, default=None, help="sequence length")
    sp.add_argument("--epsilon", type=float, default=None, help="regret estimate for mixing")
    sp.add_argument("--tau", type=str, default=None, help="comma-separated memory gaps")
    sp.add_argument("--n-gen", type=int, default=None, dest="n_gen", help="generation count")
    sp.add_argument("--instances", type=int, default=None, help="verify-suite instance count")
    sp.add_argument("--tolerance", type=float, default=None, help="calibration gradient tolerance")
    sp.add_argument("--prefix-len", type=int, default=None, dest="prefix_len",
                    help="seed-prefix length for generation pipelines")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqcal",
        description="Calibration experiments for autoregressive sequence models.",
    )
    sub = parser.add_subparsers(dest="pipeline", required=True)
    for name in PIPELINES:
        _add_common_flags(sub.add_parser(name, help=f"run the {name} pipeline"))
    args = vars(parser.parse_args(argv))
    pipeline, config = args.pop("pipeline"), args.pop("config")
    overrides = {key: value for key, value in args.items() if value is not None}

    try:
        raw: dict = {}
        if config:
            path = Path(config)
            if not path.exists():
                print(f"config file not found: {path}", file=sys.stderr)
                return 2
            try:
                raw = json.loads(path.read_text())
            except json.JSONDecodeError as err:
                print(f"config is not valid JSON: {err}", file=sys.stderr)
                return 2
            if not isinstance(raw, dict):
                print("config must be a JSON object", file=sys.stderr)
                return 2
        if "tau" in overrides:
            try:
                overrides["tau"] = [int(x) for x in overrides["tau"].split(",") if x]
            except ValueError:
                raise ConfigError("tau", f"expected comma-separated integers, got {overrides['tau']!r}")
        raw.update(overrides, pipeline=pipeline)
        cfg = parse_config(raw)
        code, outdir = run(cfg, overrides=overrides)
        print(f"wrote {outdir} (exit {code})")
        return code
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except BudgetExceededError as err:
        print(f"resource error: {err}", file=sys.stderr)
        return 3
    except CalibrationDivergenceError as err:
        print(f"calibration failed: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
