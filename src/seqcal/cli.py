"""Experiment orchestration.

Builds models from a flat JSON config, runs one of the pipelines
(calibrate-global, calibrate-local, drift, memory, bounds, verify, gen,
inspect), and writes plot-ready tables plus a run manifest.  Consumers
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
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    CalibrationDivergenceError,
    _GlobalTiltProblem,
    _fit_global,
    amplification_bound,
    calibrate_entropy_rate,
    fit_alpha_local,
    tilted_variance_max,
)
from .estimate import drift_curve, drift_curve_exact, ent_rate_gap
from .exact import (
    BudgetExceededError,
    EnumerationBudget,
    FunctionalF,
    _entropy_from_log_probs,
    cross_entropy_exact,
    entropy_rate_exact,
    kl_exact,
    log_partition_exact,
    mean_var_exact,
    prefix_expansion,
    sequence_log_probs,
)
from .memory import (
    fit_limited_memory,
    memory_bound,
    memory_table_csv,
)
from .models import (
    ConditionalModel,
    DriftModel,
    MarkovModel,
    MixtureModel,
    PerTokenMixture,
    load_model,
    make_spec,
    model_from_dict,
    model_hash,
    model_to_dict,
)
from .rng import named_stream

PIPELINES = (
    "calibrate-global",
    "calibrate-local",
    "drift",
    "memory",
    "bounds",
    "verify",
    "gen",
    "inspect",
)

MANIFEST_FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


@dataclass
class ExperimentConfig:
    M: int
    T: int
    pipeline: str
    true_model: dict = field(default_factory=lambda: {"kind": "random_markov", "order": 1})
    model: dict = field(default_factory=lambda: {"recipe": "identity"})
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    budget: int = 10**6
    epsilon: float = 0.01
    tau: list = field(default_factory=lambda: [1])
    n_gen: int = 512
    n_samples: int = 100000
    tolerance: float = 1e-10
    t_policy: str | int = "average"
    prefix_len: int = 0
    n_prefixes: int = 128
    instances: int = 50
    units: str = "nats"

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


def _expect(raw: dict, key: str, kind, default=None, minimum=None, choices=None):
    if key not in raw:
        if default is None and key in ("M", "T", "pipeline"):
            raise ConfigError(key, "missing required key")
        return default
    value = raw[key]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(key, f"expected an integer, got {value!r}")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(key, f"expected a number, got {value!r}")
        value = float(value)
    elif kind is str:
        if not isinstance(value, str):
            raise ConfigError(key, f"expected a string, got {value!r}")
    elif kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(key, f"expected an object, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be >= {minimum}, got {value}")
    if choices is not None and value not in choices:
        raise ConfigError(key, f"must be one of {sorted(choices)}, got {value!r}")
    return value


_KNOWN_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def parse_config(raw: dict) -> ExperimentConfig:
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise ConfigError(key, "unknown key")
    tau = raw.get("tau", [1])
    if isinstance(tau, int) and not isinstance(tau, bool):
        tau = [tau]
    if not isinstance(tau, list) or not tau or any(
        isinstance(t, bool) or not isinstance(t, int) or t < 1 for t in tau
    ):
        raise ConfigError("tau", f"expected a positive integer or list of them, got {raw.get('tau')!r}")
    t_policy = raw.get("t_policy", "average")
    if not (t_policy == "average" or (isinstance(t_policy, int) and not isinstance(t_policy, bool))):
        raise ConfigError("t_policy", f"expected 'average' or a step index, got {t_policy!r}")
    cfg = ExperimentConfig(
        M=_expect(raw, "M", int, minimum=2),
        T=_expect(raw, "T", int, minimum=1),
        pipeline=_expect(raw, "pipeline", str, choices=set(PIPELINES)),
        true_model=_expect(raw, "true_model", dict, default={"kind": "random_markov", "order": 1}),
        model=_expect(raw, "model", dict, default={"recipe": "identity"}),
        seed=_expect(raw, "seed", int, default=0, minimum=0),
        out=_expect(raw, "out", str, default=None),
        format=_expect(raw, "format", str, default="csv", choices={"csv", "json"}),
        budget=_expect(raw, "budget", int, default=10**6, minimum=1),
        epsilon=_expect(raw, "epsilon", float, default=0.01),
        tau=tau,
        n_gen=_expect(raw, "n_gen", int, default=512, minimum=2),
        n_samples=_expect(raw, "n_samples", int, default=100000, minimum=2),
        tolerance=_expect(raw, "tolerance", float, default=1e-10, minimum=0.0),
        t_policy=t_policy,
        prefix_len=_expect(raw, "prefix_len", int, default=0, minimum=0),
        n_prefixes=_expect(raw, "n_prefixes", int, default=128, minimum=1),
        instances=_expect(raw, "instances", int, default=50, minimum=1),
        units=_expect(raw, "units", str, default="nats", choices={"nats", "bits"}),
    )
    if not 0.0 < cfg.epsilon < 1.0:
        raise ConfigError("epsilon", f"must lie in (0, 1), got {cfg.epsilon}")
    if cfg.prefix_len >= cfg.T:
        raise ConfigError("prefix_len", f"must be < T = {cfg.T}")
    return cfg


# ---------------------------------------------------------------------------
# Model construction from descriptions.
# ---------------------------------------------------------------------------


def build_true_model(cfg: ExperimentConfig) -> ConditionalModel:
    desc = cfg.true_model
    spec = cfg.spec()
    kind = desc.get("kind")
    if kind == "uniform":
        return MarkovModel.uniform(spec, int(desc.get("order", 0)))
    if kind == "random_markov":
        rng = named_stream(cfg.seed, "true-model")
        return MarkovModel.random(
            spec,
            int(desc.get("order", 1)),
            rng,
            concentration=float(desc.get("concentration", 1.0)),
        )
    if kind == "stationary_markov":
        # Order-1 chain started from its stationary distribution, so its
        # own generations have a time-invariant conditional entropy.
        from .models import stationary_distribution

        rng = named_stream(cfg.seed, "true-model")
        transition = rng.dirichlet(
            np.full(spec.M, float(desc.get("concentration", 1.0))), size=spec.M
        )
        pi = stationary_distribution(transition)
        return MarkovModel(spec, 1, [pi[None, :], transition])
    if kind == "file":
        path = desc.get("path")
        if not path:
            raise ConfigError("true_model", "kind 'file' requires a 'path'")
        model = load_model(path)
        if model.spec != spec:
            raise ConfigError("true_model", "file model does not match configured M/T")
        return model
    if kind == "inline":
        model = model_from_dict(desc.get("model", {}))
        if model.spec != spec:
            raise ConfigError("true_model", "inline model does not match configured M/T")
        return model
    raise ConfigError("true_model", f"unknown kind {kind!r}")


def build_learned_model(cfg: ExperimentConfig, truth: ConditionalModel) -> ConditionalModel:
    desc = cfg.model
    if "kind" in desc:
        sub = ExperimentConfig(**{**cfg.canonical(), "true_model": desc, "model": {}})
        return build_true_model(sub)
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


# ---------------------------------------------------------------------------
# Pipelines.
# ---------------------------------------------------------------------------


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _seed_prov(cfg: ExperimentConfig, stream: str) -> dict:
    return {"seed": cfg.seed, "stream": stream, "config_hash": cfg.config_hash()}


def _sample_prefixes(cfg: ExperimentConfig, truth: ConditionalModel):
    if cfg.prefix_len < 1:
        return None
    rng = named_stream(cfg.seed, "prefixes")
    return truth.sample_batch(cfg.n_prefixes, rng)[:, : cfg.prefix_len]


def _pipeline_drift(cfg, truth, model, budget):
    prefixes = _sample_prefixes(cfg, truth)
    curve = drift_curve(
        model,
        cfg.n_gen,
        named_stream(cfg.seed, "drift"),
        prefixes=prefixes,
        provenance=_seed_prov(cfg, "drift"),
    )
    gap = ent_rate_gap(
        model,
        cfg.n_gen,
        named_stream(cfg.seed, "ent-rate-gap"),
        true_model=truth,
        n_ce=cfg.n_samples,
        prefixes=prefixes,
        provenance=_seed_prov(cfg, "ent-rate-gap"),
    )
    artifacts = {
        "drift_curve.json": _json_bytes(curve.to_dict()),
        "ent_rate_gap.json": _json_bytes(gap.to_dict()),
    }
    if cfg.format == "csv":
        artifacts["drift_curve.csv"] = curve.to_csv_text(cfg.units).encode("utf-8")
    return 0, artifacts


def _calibration_artifacts(cfg, name, model, result, extra_doc=None):
    from .estimate import _unit_scale

    doc = result.to_dict()
    if extra_doc:
        doc.update(extra_doc)
    artifacts = {
        f"{name}.json": _json_bytes(doc),
        "calibrated_model.json": _json_bytes(model_to_dict(model)),
    }
    if cfg.format == "csv":
        scale = _unit_scale(cfg.units)
        rows = ["quantity,value"]
        rows.append(f"alpha_star,{result.alpha_star!r}")
        rows.append(f"objective,{result.objective * scale!r}")
        rows.append(f"baseline_objective,{result.baseline_objective * scale!r}")
        rows.append(f"improvement,{result.improvement * scale!r}")
        artifacts[f"{name}.csv"] = ("\n".join(rows) + "\n").encode("utf-8")
    return artifacts


def _pipeline_calibrate_global(cfg, truth, model, budget):
    tilted, result = calibrate_entropy_rate(
        truth,
        model,
        cfg.epsilon,
        tolerance=cfg.tolerance,
        budget=budget,
        provenance=_seed_prov(cfg, "calibrate-global"),
    )
    # The fit's objective is CE(truth || tilted), and the tilted model
    # already holds its own sequence log-probabilities.
    extra = {
        "entropy_rate_tilted": _entropy_from_log_probs(tilted._levels[cfg.T]) / cfg.T,
        "cross_entropy_tilted": result.objective,
    }
    return 0, _calibration_artifacts(cfg, "calibration_global", tilted, result, extra)


def _pipeline_calibrate_local(cfg, truth, model, budget):
    tilted, result = fit_alpha_local(
        truth,
        model,
        tolerance=cfg.tolerance,
        budget=budget,
        provenance=_seed_prov(cfg, "calibrate-local"),
    )
    # The final step is untilted (lookahead feature 0), so the
    # flattening comparison uses the last tilted step as the proxy.
    t_max = max(cfg.T - 1, cfg.prefix_len + 1)
    before = drift_curve_exact(
        model, budget, seed_model=truth, prefix_len=cfg.prefix_len, t_max=t_max
    )
    after = drift_curve_exact(
        tilted, budget, seed_model=truth, prefix_len=cfg.prefix_len, t_max=t_max
    )
    artifacts = _calibration_artifacts(
        cfg,
        "calibration_local",
        tilted,
        result,
        {
            "drift_before": before.to_dict(),
            "drift_after": after.to_dict(),
        },
    )
    if cfg.format == "csv":
        artifacts["drift_before.csv"] = before.to_csv_text(cfg.units).encode("utf-8")
        artifacts["drift_after.csv"] = after.to_csv_text(cfg.units).encode("utf-8")
    return 0, artifacts


def _pipeline_memory(cfg, truth, model, budget):
    estimates = []
    for tau in cfg.tau:
        comparator = fit_limited_memory(truth, tau, budget=budget)
        estimates.append(
            memory_bound(
                truth,
                model,
                comparator,
                t_policy=cfg.t_policy,
                budget=budget,
                tolerance=cfg.tolerance,
                provenance=_seed_prov(cfg, "memory"),
            )
        )
    artifacts = {"memory.json": _json_bytes([e.to_dict() for e in estimates])}
    if cfg.format == "csv":
        artifacts["memory.csv"] = memory_table_csv(estimates, cfg.units).encode("utf-8")
    return 0, artifacts


def _pipeline_bounds(cfg, truth, model, budget):
    bound = amplification_bound(cfg.epsilon, cfg.T, cfg.M)
    doc = bound.to_dict()
    try:
        measured = kl_exact(truth, model, budget) / cfg.T
        mixture = MixtureModel(model, cfg.epsilon)
        doc["measured_epsilon"] = measured
        doc["mixture_kl_per_token"] = kl_exact(truth, mixture, budget) / cfg.T
        doc["mixture_cross_entropy"] = cross_entropy_exact(truth, mixture, budget)
        doc["mixture_entropy_rate"] = entropy_rate_exact(mixture, budget)
        # The configured epsilon is only a claim; the bounds evaluated at
        # the measured regret have a valid premise by construction.
        if 0.0 < measured < 1.0:
            at_measured = amplification_bound(measured, cfg.T, cfg.M)
            mix_m = MixtureModel(model, measured)
            doc["bound_at_measured"] = at_measured.to_dict()
            doc["mixture_kl_per_token_at_measured"] = kl_exact(truth, mix_m, budget) / cfg.T
            doc["gap_at_measured"] = abs(
                cross_entropy_exact(truth, mix_m, budget) - entropy_rate_exact(mix_m, budget)
            )
    except BudgetExceededError:
        doc["measured_epsilon"] = None
    artifacts = {"bounds.json": _json_bytes(doc)}
    if cfg.format == "csv":
        from .estimate import _unit_scale

        scale = _unit_scale(cfg.units)
        rows = ["quantity,value"]
        for key, value in sorted(doc.items()):
            if isinstance(value, dict) or value is None:
                continue
            converted = value * scale if key not in ("T", "M") else value
            rows.append(f"{key},{converted!r}")
        artifacts["bounds.csv"] = ("\n".join(rows) + "\n").encode("utf-8")
    return 0, artifacts


def _pipeline_gen(cfg, truth, model, budget):
    seqs = model.sample_batch(cfg.n_gen, named_stream(cfg.seed, "gen"))
    doc = {
        "sequences": seqs.tolist(),
        "provenance": _seed_prov(cfg, "gen"),
        "model_hash": model_hash(model),
    }
    artifacts = {"sequences.json": _json_bytes(doc)}
    if cfg.format == "csv":
        header = ",".join(f"w{t}" for t in range(1, cfg.T + 1))
        lines = [header] + [",".join(str(int(x)) for x in row) for row in seqs]
        artifacts["sequences.csv"] = ("\n".join(lines) + "\n").encode("utf-8")
    return 0, artifacts


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

    doc = {"true_model": summary(truth), "model": summary(model)}
    return 0, {"inspect.json": _json_bytes(doc)}


# ---------------------------------------------------------------------------
# Verification suite: every inequality and identity, machine-checkable.
# ---------------------------------------------------------------------------


def _rand_spec(rng):
    return make_spec(int(rng.integers(2, 5)), int(rng.integers(2, 7)))


def _rand_truth(spec, rng, max_order=2, concentration=1.2):
    order = int(rng.integers(0, min(max_order, spec.T - 1) + 1))
    return MarkovModel.random(spec, order, rng, concentration=concentration)


def _rand_pair(rng, scale=0.25):
    spec = _rand_spec(rng)
    truth = _rand_truth(spec, rng)
    return truth, truth.perturbed(rng, scale)


def _serialize_instance(**models):
    return {name: model_to_dict(m) for name, m in models.items()}


def _check_report(name, failures, n, margin=None):
    return {
        "name": name,
        "instances": n,
        "failures": failures,
        "passed": not failures,
        "margin": margin,
    }


def _check_oracle_identities(rng, n, budget):
    failures = []
    worst = math.inf
    for i in range(n):
        truth, other = _rand_pair(rng)
        T = truth.spec.T
        ce = cross_entropy_exact(truth, other, budget)
        ent = entropy_rate_exact(truth, budget)
        kl = kl_exact(truth, other, budget)
        self_ce = cross_entropy_exact(truth, truth, budget)
        gap = abs(ce - (ent + kl / T))
        ok = gap <= 1e-9 and kl >= 0.0 and abs(self_ce - ent) <= 1e-9
        worst = min(worst, 1e-9 - gap)
        if not ok:
            failures.append({"instance": i, "gap": gap, "kl": kl,
                             "models": _serialize_instance(truth=truth, other=other)})
    return _check_report("oracle_identities", failures, n, margin=worst)


def _check_pinsker(rng, n, budget):
    failures = []
    worst = math.inf
    for i in range(n):
        truth, other = _rand_pair(rng)
        spec = truth.spec
        bound_b = float(rng.uniform(0.5, 3.0))
        table = rng.uniform(-bound_b, bound_b, size=spec.M**spec.T)
        f = FunctionalF.from_table(table, spec, bound=bound_b)
        mu_p, _ = mean_var_exact(truth, f, budget)
        mu_q, _ = mean_var_exact(other, f, budget)
        kl = kl_exact(truth, other, budget)
        rhs = bound_b * math.sqrt(2.0 * kl)
        slack = rhs - abs(mu_p - mu_q)
        # L1/KL consistency rides along on the same instances.
        l1 = float(
            np.abs(
                np.exp(sequence_log_probs(truth, budget))
                - np.exp(sequence_log_probs(other, budget))
            ).sum()
        )
        l1_slack = math.sqrt(2.0 * kl) - l1
        worst = min(worst, slack, l1_slack)
        if slack < 0.0 or l1_slack < 0.0:
            failures.append({"instance": i, "slack": slack, "l1_slack": l1_slack,
                             "models": _serialize_instance(truth=truth, other=other)})
    return _check_report("pinsker_and_l1", failures, n, margin=worst)


def _check_amplification(rng, n, budget):
    failures = []
    worst = math.inf
    for i in range(n):
        truth, base = _rand_pair(rng, scale=float(rng.uniform(0.1, 0.3)))
        spec = truth.spec
        T, M = spec.T, spec.M
        eps = kl_exact(truth, base, budget) / T
        if not 1e-6 < eps < 0.5:
            continue
        mixture = MixtureModel(base, eps)
        bound = amplification_bound(eps, T, M)
        mix_kl = kl_exact(truth, mixture, budget) / T
        ce = cross_entropy_exact(truth, mixture, budget)
        ent = entropy_rate_exact(mixture, budget)
        hard = float(np.max(-sequence_log_probs(mixture, budget)))
        ok = (
            mix_kl <= bound.mixture_kl_bound + 1e-12
            and abs(ce - ent) <= bound.generation_gap_bound + 1e-12
            and hard <= T * math.log(M) + math.log(1.0 / eps) + 1e-9
        )
        worst = min(worst, bound.mixture_kl_bound - mix_kl,
                    bound.generation_gap_bound - abs(ce - ent))
        if not ok:
            failures.append({"instance": i, "epsilon": eps, "mix_kl": mix_kl,
                             "ce": ce, "entropy_rate": ent,
                             "models": _serialize_instance(truth=truth, base=base)})
    return _check_report("amplification_bounds", failures, n, margin=worst)


def _check_sharpness(budget, seed):
    # Low-entropy truth; the model follows it but may permanently switch
    # into uniform emission with probability 2/T per step.  Its regret
    # stays below -log(1 - p) per token, yet late-generation entropy
    # approaches log M.
    spec = make_spec(3, 8)
    rng = named_stream(seed, "sharpness")
    rows = np.full((3, 3), 0.05)
    np.fill_diagonal(rows, 0.9)
    truth = MarkovModel(spec, 1, [rng.dirichlet(np.full(3, 5.0))[None, :], rows])
    p = 2.0 / spec.T
    drift = DriftModel(truth, p)
    curve = drift_curve_exact(drift, budget)
    late = float(curve.means[-1])
    ce_truth = cross_entropy_exact(truth, truth, budget)
    ce_drift = cross_entropy_exact(truth, drift, budget)
    ok = late >= 0.9 * math.log(3) and ce_drift - ce_truth <= -math.log1p(-p) + 1e-12
    failures = [] if ok else [{
        "late_entropy": late, "threshold": 0.9 * math.log(3),
        "ce_inflation": ce_drift - ce_truth,
        "models": _serialize_instance(truth=truth, drift=drift),
    }]
    return _check_report("sharpness_probe", failures, 1,
                         margin=late - 0.9 * math.log(3))


def _check_global_fit(rng, n, budget, tolerance):
    failures = []
    worst = math.inf
    for i in range(n):
        spec = make_spec(int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        truth = _rand_truth(spec, rng)
        base = truth.perturbed(rng, 0.3)
        T, M = spec.T, spec.M
        eps = max(kl_exact(truth, base, budget) / T, 1e-6)
        tilted, res = calibrate_entropy_rate(truth, base, eps, tolerance, budget)
        mixture = tilted.base
        moment_gap = abs(res.mu_target - res.mu_tilted)
        ce_after = cross_entropy_exact(truth, tilted, budget)
        ent_after = entropy_rate_exact(tilted, budget)
        ce_mix = res.baseline_objective
        ent_mix = entropy_rate_exact(mixture, budget)
        denom = math.log(M) + math.log(1.0 / eps) / T
        surprisal_floor = 0.5 * ((ce_mix - ent_mix) / denom) ** 2
        alphas = np.linspace(min(0.0, res.alpha_star) - 1.0, max(0.0, res.alpha_star) + 1.0, 41)
        sigma2 = tilted_variance_max(mixture, tilted.f, alphas, budget)
        variance_floor = (res.mu_target - res.extras["mu_base"]) ** 2 / (2.0 * sigma2 * T) if sigma2 > 0 else 0.0
        improvement = res.improvement
        entrate_close = abs(entropy_rate_exact(truth, budget) - ent_after)
        entrate_cap = (1.0 + 1.0 / T) * res.extras["measured_epsilon"]
        ok = (
            moment_gap <= 1e-8
            and abs(ce_after - ent_after) <= 1e-8
            and improvement >= surprisal_floor - 1e-12
            and improvement >= variance_floor - 1e-12
            and entrate_close <= entrate_cap + 1e-9
        )
        worst = min(worst, improvement - surprisal_floor, 1e-8 - moment_gap)
        if not ok:
            failures.append({"instance": i, "moment_gap": moment_gap,
                             "identity_gap": abs(ce_after - ent_after),
                             "improvement": improvement,
                             "surprisal_floor": surprisal_floor,
                             "variance_floor": variance_floor,
                             "models": _serialize_instance(truth=truth, base=base)})
    return _check_report("global_calibration", failures, n, margin=worst)


def _sharp_stationary_truth(spec, rng, peak_lo=0.75, peak_hi=0.95):
    """Order-1 chain with uniformly sharp rows, started stationary.

    Low conditional entropy everywhere, so a drift toward uniform
    emission visibly amplifies the entropy of generations.
    """
    from .models import stationary_distribution

    M = spec.M
    transition = np.empty((M, M))
    for j in range(M):
        peak = rng.uniform(peak_lo, peak_hi)
        row = np.full(M, (1.0 - peak) / (M - 1))
        row[int(rng.integers(M))] = peak
        transition[j] = row
    pi = stationary_distribution(transition)
    return MarkovModel(spec, 1, [pi[None, :], transition])


def _amplification_gap_exact(truth, model, budget, t_max):
    """Late-step entropy of seeded self-generations minus CE on real data."""
    late = drift_curve_exact(
        model, budget, seed_model=truth, prefix_len=1, t_max=t_max
    ).at_step(t_max)
    return late - cross_entropy_exact(truth, model, budget)


def _check_local_fit(rng, n, budget, tolerance):
    failures = []
    for i in range(n):
        spec = make_spec(3, 5)
        truth = _sharp_stationary_truth(spec, rng)
        base = DriftModel(truth, 1.0 / spec.T)
        tilted, res = fit_alpha_local(truth, base, tolerance, budget)
        moment_gap = abs(res.mu_target - res.mu_tilted)
        # The phenomenon being reproduced is upward drift, so the base
        # must visibly over-shoot the truth's lookahead-entropy mean.
        mismatch = res.extras["mu_base"] - res.mu_target
        # Endpoint gap per the drift measurement: late generation
        # entropy minus cross entropy on real data.  The final step is
        # structurally untilted (lookahead feature 0), so the proxy step
        # is the last tilted one.
        before = _amplification_gap_exact(truth, base, budget, spec.T - 1)
        after = _amplification_gap_exact(truth, tilted, budget, spec.T - 1)
        # Stated quadratic improvement floor for the lookahead tilt of a
        # mixture-floored base at its measured regret.
        eps = max(kl_exact(truth, base, budget) / spec.T, 1e-6)
        mix_base = MixtureModel(base, eps)
        _, mix_res = fit_alpha_local(truth, mix_base, tolerance, budget)
        denom = math.log(spec.M) + math.log(1.0 / eps) / spec.T
        floor = 0.5 * ((mix_res.mu_target - mix_res.extras["mu_base"]) / denom) ** 2
        ok = (
            moment_gap <= 1e-8
            and res.objective <= res.baseline_objective + 1e-12
            and mismatch >= 0.01
            and after < before
            and mix_res.improvement >= floor - 1e-12
        )
        if not ok:
            failures.append({"instance": i, "moment_gap": moment_gap,
                             "mismatch": mismatch,
                             "gap_before": before, "gap_after": after,
                             "improvement": mix_res.improvement, "floor": floor,
                             "models": _serialize_instance(truth=truth, base=base)})
    return _check_report("local_calibration", failures, n)


def _check_derivatives(rng, n, budget, tolerance):
    failures = []
    h1, h2 = 1e-4, 1e-3
    for i in range(n):
        spec = make_spec(3, 4)
        truth = _rand_truth(spec, rng)
        base = truth.perturbed(rng, 0.3)
        mixture = MixtureModel(base, 0.05)
        f = FunctionalF.log_prob(mixture)
        problem = _GlobalTiltProblem.build(mixture, f, budget, truth=truth)
        res = _fit_global(problem, mixture, f, tolerance, None)
        ce = lambda alpha: problem.evaluate(alpha)["obj"]  # noqa: E731
        for off in (-1.6, -1.2, -0.8, -0.5, -0.2, 0.2, 0.5, 0.8, 1.2, 1.6):
            a = res.alpha_star + off
            info = problem.evaluate(a)
            mu, var, grad = info["mu"], info["var"], info["g"]
            fd1 = (ce(a + h1) - ce(a - h1)) / (2 * h1)
            fd2 = (ce(a + h2) - 2 * ce(a) + ce(a - h2)) / h2**2
            rel1 = abs(fd1 - grad) / abs(grad)
            rel2 = abs(fd2 - var / spec.T) / (var / spec.T)
            lz = lambda alpha: log_partition_exact(mixture, f, alpha, budget)  # noqa: E731
            lz1 = (lz(a + h1) - lz(a - h1)) / (2 * h1)
            lz2 = (lz(a + h2) - 2 * lz(a) + lz(a - h2)) / h2**2
            relz1 = abs(lz1 - mu) / max(abs(mu), 1e-9)
            relz2 = abs(lz2 - var) / max(var, 1e-9)
            if rel1 > 1e-5 or rel2 > 1e-4 or relz1 > 1e-5 or relz2 > 1e-4:
                failures.append({"instance": i, "alpha": a, "rel_grad": rel1,
                                 "rel_curv": rel2, "rel_logz1": relz1, "rel_logz2": relz2,
                                 "models": _serialize_instance(truth=truth, base=base)})
    return _check_report("derivative_identities", failures, n)


def _check_memory(rng, n, budget, tolerance):
    failures = []
    worst = math.inf
    for i in range(n):
        spec = make_spec(2, int(rng.integers(4, 7)))
        truth = MarkovModel.random(spec, 2, rng, concentration=1.0)
        full = truth.perturbed(rng, 0.3)
        tau = int(rng.integers(1, 3))
        comparator = fit_limited_memory(truth, tau, budget=budget)
        est = memory_bound(truth, full, comparator, budget=budget, tolerance=tolerance)
        slack = est.bound - (est.exact_mi if est.exact_mi is not None else 0.0)
        worst = min(worst, slack)
        chain_ok = _memory_chain_holds(truth, full, comparator, est, budget, tolerance)
        if est.exact_mi is None or slack < -1e-9 or not est.valid or not chain_ok:
            failures.append({"instance": i, "bound": est.bound, "exact_mi": est.exact_mi,
                             "models": _serialize_instance(truth=truth, full=full,
                                                           comparator=comparator)})
    return _check_report("memory_bound_dominates", failures, n, margin=worst)


def _memory_chain_holds(truth, full, comparator, est, budget, tolerance):
    # Zero-gradient identity: under the joint with Z drawn from the
    # calibrated model, E[-log comparator] equals CE(truth||comparator);
    # Jensen then caps H(Z|Y) by the same quantity.
    from .memory import MemoryTiltModel, _joint

    tilted = MemoryTiltModel(full, comparator, est.alpha_star, active_steps=est.steps)
    lhs_vals, ce_vals, hzy_vals = [], [], []
    for t, (_, tilted_state), w, true_rows in prefix_expansion(truth, budget, tilted):
        if t not in est.steps:
            continue
        mt_rows = tilted.rows(tilted_state)
        with np.errstate(divide="ignore"):
            log_comp = np.log(comparator.rows(tilted_state[2]))
        lhs_vals.append(-float(np.dot(w, (mt_rows * log_comp).sum(axis=1))))
        ce_vals.append(-float(np.dot(w, (true_rows * log_comp).sum(axis=1))))
        joint = _joint(w, mt_rows, est.tau, t)
        pzy = joint.sum(axis=2)
        py = pzy.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(pzy > 0.0, pzy * (np.log(pzy) - np.log(py[None, :])), 0.0)
        hzy_vals.append(-float(terms.sum()))
    identity_gap = abs(float(np.mean(lhs_vals)) - float(np.mean(ce_vals)))
    jensen_ok = float(np.mean(hzy_vals)) <= float(np.mean(ce_vals)) + 1e-9
    return identity_gap <= max(100 * tolerance * truth.spec.T, 1e-7) and jensen_ok


def _check_memory_decay(rng, n, budget, tolerance):
    # Order-3 truths so every widening of the window genuinely refines
    # the comparator; the mean bound then decays like the exact memory.
    taus = (1, 2, 3)
    bounds = np.zeros((n, len(taus)))
    zero_mi_failures = []
    for i in range(n):
        spec = make_spec(2, 6)
        truth = MarkovModel.random(spec, 3, rng, concentration=1.0)
        full = truth.perturbed(rng, 0.3)
        for j, tau in enumerate(taus):
            comparator = fit_limited_memory(truth, tau, budget=budget)
            est = memory_bound(truth, full, comparator, budget=budget,
                               tolerance=tolerance, attach_exact_mi=False)
            bounds[i, j] = est.bound
        # A window-limited model must carry zero memory beyond its window.
        windowed = fit_limited_memory(truth, 1, budget=budget)
        est = memory_bound(truth, windowed, windowed, budget=budget, tolerance=tolerance)
        if est.exact_mi is None or abs(est.exact_mi) > 1e-10:
            zero_mi_failures.append({"instance": i, "exact_mi": est.exact_mi})
    means = bounds.mean(axis=0)
    decay_ok = bool(np.all(np.diff(means) <= 1e-9))
    failures = list(zero_mi_failures)
    if not decay_ok:
        failures.append({"mean_bounds": means.tolist()})
    return _check_report("memory_decay_and_windowed_zero", failures, n,
                         margin=float(-np.max(np.diff(means))))


def verify_suite(cfg: ExperimentConfig) -> dict:
    """Run every identity/inequality check on seeded random instances.

    Deterministic for a fixed (config, seed); any failure entry carries
    the serialized instance for replay.
    """
    budget = cfg.enumeration_budget()
    tol = cfg.tolerance if cfg.tolerance > 0 else 1e-10
    n = cfg.instances
    checks = [
        _check_oracle_identities(named_stream(cfg.seed, "verify-oracle"), n, budget),
        _check_pinsker(named_stream(cfg.seed, "verify-pinsker"), n, budget),
        _check_amplification(named_stream(cfg.seed, "verify-amplification"), n, budget),
        _check_sharpness(budget, cfg.seed),
        _check_global_fit(named_stream(cfg.seed, "verify-global"), max(5, n // 2), budget, tol),
        _check_local_fit(named_stream(cfg.seed, "verify-local"), max(3, n // 5), budget, tol),
        _check_derivatives(named_stream(cfg.seed, "verify-derivatives"), max(3, n // 10), budget, tol),
        _check_memory(named_stream(cfg.seed, "verify-memory"), max(5, n // 2), budget, tol),
        _check_memory_decay(named_stream(cfg.seed, "verify-decay"), max(3, n // 5), budget, tol),
    ]
    n_failures = sum(len(c["failures"]) for c in checks)
    return {
        "checks": checks,
        "n_failures": n_failures,
        "passed": n_failures == 0,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
    }


def _pipeline_verify(cfg, truth, model, budget):
    report = verify_suite(cfg)
    code = 0 if report["passed"] else 4
    return code, {"verify_report.json": _json_bytes(report)}


_PIPELINE_RUNNERS = {
    "drift": _pipeline_drift,
    "calibrate-global": _pipeline_calibrate_global,
    "calibrate-local": _pipeline_calibrate_local,
    "memory": _pipeline_memory,
    "bounds": _pipeline_bounds,
    "gen": _pipeline_gen,
    "inspect": _pipeline_inspect,
    "verify": _pipeline_verify,
}


# ---------------------------------------------------------------------------
# Run driver.
# ---------------------------------------------------------------------------


def run(cfg: ExperimentConfig, overrides: dict | None = None) -> tuple[int, Path]:
    """Execute the configured pipeline; returns (exit_code, output_dir)."""
    started = time.time()
    budget = cfg.enumeration_budget()
    truth = build_true_model(cfg)
    model = build_learned_model(cfg, truth)

    code, artifacts = _PIPELINE_RUNNERS[cfg.pipeline](cfg, truth, model, budget)

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
    args = parser.parse_args(argv)

    try:
        raw: dict = {}
        if args.config:
            path = Path(args.config)
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
        overrides = {}
        for key in ("seed", "out", "format", "units", "M", "T", "epsilon",
                    "n_gen", "instances", "tolerance", "prefix_len"):
            value = getattr(args, key)
            if value is not None:
                raw[key] = value
                overrides[key] = value
        if args.tau is not None:
            try:
                taus = [int(x) for x in args.tau.split(",") if x]
            except ValueError:
                raise ConfigError("tau", f"expected comma-separated integers, got {args.tau!r}")
            raw["tau"] = taus
            overrides["tau"] = taus
        raw["pipeline"] = args.pipeline
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
