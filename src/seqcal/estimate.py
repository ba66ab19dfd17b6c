"""Monte-Carlo estimators and the generation-drift measurement.

The drift curve tracks the conditional entropy of the t-th generated
token as a function of t under iterative self-generation: a perfectly
calibrated model produces a flat curve, a miscalibrated one drifts.  The
per-step statistic is the exact entropy of the model's conditional
M-vector at the sampled prefix (only the prefix is random), which has
the same expectation as the sampled token's surprisal but strictly lower
variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact import DEFAULT_BUDGET, EnumerationBudget, _fsum, _grow_prefixes
from .models import ConditionalModel, _try_model_hash, check_tokens, row_entropies


def _unit_scale(units: str) -> float:
    """Internal values are nats; tables may be emitted in bits."""
    if units == "nats":
        return 1.0
    if units == "bits":
        return 1.0 / math.log(2.0)
    raise ValueError(f"units must be 'nats' or 'bits', got {units!r}")


@dataclass
class McEstimate:
    """A Monte-Carlo estimate with its standard error and provenance."""

    value: float
    stderr: float
    n_samples: int
    infinite: bool = False
    offending: tuple | None = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "infinite": self.infinite,
            "offending": list(self.offending) if self.offending is not None else None,
            "provenance": self.provenance,
        }


@dataclass
class DriftCurve:
    """Per-step mean conditional entropy of generated text, with errors.

    Only generated steps are measured: a curve seeded with length-P
    prefixes starts at step P+1, whose context is entirely real, so the
    first point reads as the model's entropy estimate on real data and
    later points as the entropy of its own generations.
    """

    steps: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    n_generations: int
    prefix_policy: str
    t_max: int
    mode: str = "mc"
    provenance: dict = field(default_factory=dict)

    def at_step(self, t: int) -> float:
        first = int(self.steps[0])
        if not first <= t <= int(self.steps[-1]):
            raise ValueError(f"step {t} outside measured range {first}..{int(self.steps[-1])}")
        return float(self.means[t - first])

    def to_csv_text(self, units: str = "nats") -> str:
        scale = _unit_scale(units)
        lines = ["t,mean,stderr,n"]
        for t, m, s in zip(self.steps, self.means, self.stderrs):
            lines.append(
                f"{int(t)},{float(m) * scale!r},{float(s) * scale!r},{self.n_generations}"
            )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "steps": [int(t) for t in self.steps],
            "means": [float(m) for m in self.means],
            "stderrs": [float(s) for s in self.stderrs],
            "n_generations": self.n_generations,
            "prefix_policy": self.prefix_policy,
            "t_max": self.t_max,
            "mode": self.mode,
            "provenance": self.provenance,
        }


@dataclass
class EntRateGap:
    """Endpoints of the drift measurement and their difference."""

    start: float
    start_stderr: float
    end: float
    end_stderr: float
    gap: float
    gap_stderr: float
    start_source: str
    curve: DriftCurve

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "start_stderr": self.start_stderr,
            "end": self.end,
            "end_stderr": self.end_stderr,
            "gap": self.gap,
            "gap_stderr": self.gap_stderr,
            "start_source": self.start_source,
            "curve": self.curve.to_dict(),
        }


def cross_entropy_mc(
    p_sampler: ConditionalModel,
    q: ConditionalModel,
    n: int,
    rng: np.random.Generator,
    provenance: dict | None = None,
) -> McEstimate:
    """Unbiased sample-average of (1/T) log 1/q(w) over w ~ p, in nats/token.

    If q assigns zero probability to a sampled sequence the estimate is
    flagged infinite and the first offending sequence is recorded.
    """
    if n < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if p_sampler.spec != q.spec:
        raise ValueError("models must share the same sequence spec")
    T = q.spec.T
    seqs = p_sampler.sample_batch(n, rng)
    lq = q.seq_log_prob_batch(seqs)
    vals = -lq / T
    prov = dict(provenance or {})
    prov.setdefault("q_model_hash", _try_model_hash(q))
    if np.any(np.isinf(vals)):
        bad = int(np.flatnonzero(np.isinf(vals))[0])
        return McEstimate(
            value=math.inf,
            stderr=math.inf,
            n_samples=n,
            infinite=True,
            offending=tuple(int(x) for x in seqs[bad]),
            provenance=prov,
        )
    # Shift before the variance: exact zero spread for a constant
    # integrand instead of one-ulp noise from the mean.
    centered = vals - vals[0]
    return McEstimate(
        value=float(vals.mean()),
        stderr=float(centered.std(ddof=1) / math.sqrt(n)),
        n_samples=n,
        provenance=prov,
    )


def drift_curve(
    model: ConditionalModel,
    n_gen: int,
    rng: np.random.Generator,
    prefixes: np.ndarray | None = None,
    t_max: int | None = None,
    provenance: dict | None = None,
) -> DriftCurve:
    """Measure the conditional-entropy drift over `n_gen` self-generations.

    Generations are seeded with the supplied prefixes (assigned
    cyclically) and continued by iterative sampling.  At every generated
    step t the exact entropy of the model's conditional distribution
    given the current prefix is recorded; means and standard errors are
    over generations.  The first measured step sits right after the seed,
    so its context is entirely real.  `t_max` marks the step used as the
    asymptote proxy (default: the final step).
    """
    if n_gen < 2:
        raise ValueError("need at least 2 generations")
    T = model.spec.T
    out = np.empty((n_gen, T), dtype=np.int64)
    start = 0
    policy = "none"
    if prefixes is not None:
        pfx = check_tokens(prefixes, model.spec.M)
        if pfx.ndim == 1:
            pfx = pfx[None, :]
        if pfx.shape[1] >= T:
            raise ValueError("seed prefixes must be shorter than the sequence")
        start = pfx.shape[1]
        out[:, :start] = pfx[np.arange(n_gen) % pfx.shape[0]]
        policy = f"cyclic({pfx.shape[0]} prefixes, length {start})"
    t_max = _check_t_max(t_max, start + 1, T)

    ent = np.empty((n_gen, T - start))
    for t, rows in model._generate(out, start, rng):
        ent[:, t - start] = row_entropies(rows)

    prov = dict(provenance or {})
    prov.setdefault("model_hash", _try_model_hash(model))
    return DriftCurve(
        steps=np.arange(start + 1, T + 1),
        means=ent.mean(axis=0),
        stderrs=ent.std(axis=0, ddof=1) / math.sqrt(n_gen),
        n_generations=n_gen,
        prefix_policy=policy,
        t_max=t_max,
        provenance=prov,
    )


def _check_t_max(t_max: int | None, first: int, T: int) -> int:
    if t_max is None:
        return T
    if not first <= t_max <= T:
        raise ValueError(f"t_max must lie in {first}..{T}, got {t_max}")
    return int(t_max)


def drift_curve_exact(
    model: ConditionalModel,
    budget: EnumerationBudget | None = None,
    seed_model: ConditionalModel | None = None,
    prefix_len: int = 0,
    t_max: int | None = None,
    provenance: dict | None = None,
) -> DriftCurve:
    """Exact counterpart of :func:`drift_curve` by prefix enumeration.

    The mean at step t is E[H(model(.|w_{<t}))] with the context
    distributed per `seed_model` for the first `prefix_len` steps and
    per the model's own generations afterwards; standard errors are
    zero.  With no seeding this is the model's pure self-generation
    curve.
    """
    T, M = model.spec.T, model.spec.M
    if not 0 <= prefix_len < T:
        raise ValueError(f"prefix_len must lie in 0..{T - 1}")
    seeder = seed_model if seed_model is not None else model
    if seeder.spec != model.spec:
        raise ValueError("seed model must share the sequence spec")
    (budget or DEFAULT_BUDGET).check(M**T, "prefix enumeration")
    t_max = _check_t_max(t_max, prefix_len + 1, T)

    # The model's states ride along the seeder's lattice until the model
    # drives the walk after the seed; the seeder's states are then dropped.
    models = (model,) if seeder is model else (model, seeder)
    states = tuple(m.init_state(1) for m in models)
    means = np.empty(T - prefix_len)
    weights = np.ones(1)
    for t in range(1, T + 1):
        if t <= prefix_len:
            rows = seeder.rows(states[-1])
        else:
            models, states = models[:1], states[:1]
            rows = model.rows(states[0])
            means[t - 1 - prefix_len] = _fsum(weights * row_entropies(rows))
        if t < T:
            states, weights = _grow_prefixes(models, states, weights, rows)
    prov = dict(provenance or {})
    prov.setdefault("model_hash", _try_model_hash(model))
    return DriftCurve(
        steps=np.arange(prefix_len + 1, T + 1),
        means=means,
        stderrs=np.zeros(T - prefix_len),
        n_generations=0,
        prefix_policy="exact" if prefix_len == 0 else f"exact-seeded(length {prefix_len})",
        t_max=t_max,
        mode="exact",
        provenance=prov,
    )


def ent_rate_gap(
    model: ConditionalModel,
    n_gen: int,
    rng: np.random.Generator,
    true_model: ConditionalModel | None = None,
    n_ce: int | None = None,
    prefixes: np.ndarray | None = None,
    t_max: int | None = None,
    provenance: dict | None = None,
) -> EntRateGap:
    """Early/late entropy of generations and their gap.

    The late value is the drift-curve mean at the asymptote proxy step
    `t_max` (default: the final step).  The early value is the model's
    cross entropy against `true_model` (Monte Carlo) when a truth is
    supplied, else the curve's first point.
    """
    curve = drift_curve(
        model, n_gen, rng, prefixes=prefixes, t_max=t_max, provenance=provenance
    )
    end = curve.at_step(curve.t_max)
    end_se = float(curve.stderrs[curve.t_max - int(curve.steps[0])])
    if true_model is not None:
        ce = cross_entropy_mc(true_model, model, n_ce or n_gen, rng, provenance=provenance)
        start, start_se, source = ce.value, ce.stderr, "cross_entropy_mc"
    else:
        start, start_se, source = float(curve.means[0]), float(curve.stderrs[0]), "curve_start"
    return EntRateGap(
        start=start,
        start_stderr=start_se,
        end=end,
        end_stderr=end_se,
        gap=end - start,
        gap_stderr=math.hypot(start_se, end_se),
        start_source=source,
        curve=curve,
    )
