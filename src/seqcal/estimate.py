"""Monte-Carlo estimators and the generation-drift measurement.

The drift curve tracks the conditional entropy of the t-th generated
token as a function of t under iterative self-generation: a perfectly
calibrated model produces a flat curve, a miscalibrated one drifts.  The
per-step statistic is the exact entropy of the model's conditional
M-vector at the sampled prefix (only the prefix is random), which has
the same expectation as the sampled token's surprisal but strictly lower
variance.  Both Monte-Carlo estimators consume the sampler's token
stream (:meth:`ConditionalModel._generate`) step by step and keep no
(n, T) sample, so their memory is linear in n.
:func:`drift_curve_exact` is the curve's exact counterpart, one blocked
walk over the seeded lattice up to level ``t_max``.
:func:`ent_rate_gap` reads the endpoints of a given curve; its early
value is a cross-entropy estimate on real data when one is passed.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field
from operator import itemgetter

import numpy as np

from .exact import EnumerationBudget, _Fsum, prefix_expansion
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
        return asdict(self)


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
            **asdict(self),
            "steps": self.steps.tolist(),
            "means": self.means.tolist(),
            "stderrs": self.stderrs.tolist(),
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
        return {**asdict(self), "curve": self.curve.to_dict()}


def cross_entropy_mc(
    p_sampler: ConditionalModel,
    q: ConditionalModel,
    n: int,
    rng: np.random.Generator,
    provenance: dict | None = None,
) -> McEstimate:
    """Unbiased sample-average of (1/T) log 1/q(w) over w ~ p, in nats/token.

    Each step's tokens are scored by q as p draws them, so no (n, T)
    sample is kept.  If q assigns zero probability to a sampled sequence
    the estimate is flagged infinite and the first offending sequence is
    recorded, rebuilt by replaying the draw from a copy of `rng` and
    keeping only that sequence's token of each step.
    """
    if n < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if p_sampler.spec != q.spec:
        raise ValueError("models must share the same sequence spec")
    T = q.spec.T
    replay = copy.deepcopy(rng)
    # Only the tokens are taken from each step, so its rows are freed
    # before q scores them.
    tokens = map(itemgetter(2), p_sampler._generate(p_sampler.init_state(n), 0, rng))
    vals = -q._score(tokens, n) / T
    prov = dict(provenance or {})
    prov.setdefault("q_model_hash", _try_model_hash(q))
    if np.any(np.isinf(vals)):
        bad = int(np.flatnonzero(np.isinf(vals))[0])
        tokens = map(itemgetter(2), p_sampler._generate(p_sampler.init_state(n), 0, replay))
        return McEstimate(
            value=math.inf,
            stderr=math.inf,
            n_samples=n,
            infinite=True,
            offending=tuple(int(step_tokens[bad]) for step_tokens in tokens),
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
    provenance: dict | None = None,
) -> DriftCurve:
    """Measure the conditional-entropy drift over `n_gen` self-generations.

    Generations are seeded with the supplied prefixes (assigned
    cyclically) and continued by iterative sampling.  At every generated
    step t the exact entropy of the model's conditional distribution
    given the current prefix is recorded; means and standard errors are
    over generations.  The first measured step sits right after the seed,
    so its context is entirely real.  The final step is the asymptote
    proxy (``t_max``).

    Each step's moments are summed as it is drawn, one generation at a
    time (``np.cumsum``) as numpy reduces axis 0 of the C-ordered
    (n_gen, steps) entropy matrix: means and stderrs are bitwise its
    ``mean(axis=0)`` and ``std(axis=0, ddof=1) / sqrt(n_gen)``, except
    on a one-step curve, whose column numpy sums pairwise.
    """
    if n_gen < 2:
        raise ValueError("need at least 2 generations")
    T = model.spec.T
    seeds = np.empty((n_gen, 0), dtype=np.int64)
    policy = "none"
    if prefixes is not None:
        pfx = check_tokens(prefixes, model.spec.M)
        if pfx.ndim == 1:
            pfx = pfx[None, :]
        if pfx.shape[0] == 0:
            raise ValueError("the seed prefix pool is empty")
        if pfx.shape[1] >= T:
            raise ValueError("seed prefixes must be shorter than the sequence")
        seeds = pfx[np.arange(n_gen) % pfx.shape[0]]
        policy = f"cyclic({pfx.shape[0]} prefixes, length {pfx.shape[1]})"

    start = seeds.shape[1]
    means, squares = np.empty(T - start), np.empty(T - start)
    rows = map(itemgetter(1), model._generate(model._state_at(seeds), start, rng))
    for k, ent in enumerate(map(row_entropies, rows)):
        # numpy's sum starts from +0.0, so all -0.0 entropies sum to +0.0.
        means[k] = mean = (np.cumsum(ent)[-1] + 0.0) / n_gen
        squares[k] = np.cumsum(np.square(ent - mean))[-1]

    prov = dict(provenance or {})
    prov.setdefault("model_hash", _try_model_hash(model))
    return DriftCurve(
        steps=np.arange(start + 1, T + 1),
        means=means,
        stderrs=np.sqrt(squares / (n_gen - 1)) / math.sqrt(n_gen),
        n_generations=n_gen,
        prefix_policy=policy,
        t_max=T,
        provenance=prov,
    )


class _SeededWalk(ConditionalModel):
    """`model` continuing prefixes whose first `prefix_len` tokens `seeder` drew.

    Rows of prefixes shorter than `prefix_len` are the seeder's and later
    ones the model's, and ``step`` is the reading model's own step.  The
    state is (prefix length, model state, seeder state); the seeder's
    state is None once the model drives.
    """

    def __init__(self, model: ConditionalModel, seeder: ConditionalModel, prefix_len: int):
        super().__init__(model.spec)
        self.model, self.seeder, self.prefix_len = model, seeder, prefix_len

    def init_state(self, n: int):
        return 0, self.model.init_state(n), self.seeder.init_state(n)

    def advance(self, state, tokens):
        length, model_state, seeder_state = state
        seeded = length + 1 < self.prefix_len
        seeder_state = self.seeder.advance(seeder_state, tokens) if seeded else None
        return length + 1, self.model.advance(model_state, tokens), seeder_state

    def rows(self, state) -> np.ndarray:
        length, model_state, seeder_state = state
        if length < self.prefix_len:
            return self.seeder.rows(seeder_state)
        return self.model.rows(model_state)

    def step(self, state, tokens):
        # The reading model's own step, so a lattice walk reads its rows
        # once per level; the seeder's last read does not advance it.
        length, model_state, seeder_state = state
        if length + 1 < self.prefix_len:
            read, seeder_state = self.seeder.step(seeder_state, tokens)
            return read, (length + 1, self.model.advance(model_state, tokens), seeder_state)
        if length < self.prefix_len:
            return super().step(state, tokens)
        read, model_state = self.model.step(model_state, tokens)
        return read, (length + 1, model_state, None)


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
    per the model's own generations afterwards, for t = prefix_len+1..t_max
    (default T); standard errors are zero.  The blocked walk stops at
    level `t_max` (budget M**t_max) and holds no level whole; a mean is
    one correctly rounded sum over its level's pieces.  With no seeding
    this is the model's pure self-generation curve.
    """
    T = model.spec.T
    if not 0 <= prefix_len < T:
        raise ValueError(f"prefix_len must lie in 0..{T - 1}")
    seeder = seed_model if seed_model is not None else model
    if seeder.spec != model.spec:
        raise ValueError("seed model must share the sequence spec")
    t_max = T if t_max is None else t_max
    if t_max != int(t_max) or not prefix_len < t_max <= T:
        raise ValueError(f"t_max must be an integer in {prefix_len + 1}..{T}, got {t_max}")
    t_max = int(t_max)

    walk = model if seeder is model else _SeededWalk(model, seeder, prefix_len)
    sums = {t: _Fsum() for t in range(prefix_len + 1, t_max + 1)}
    for t, _, _, weights, rows in prefix_expansion(walk, budget, last=t_max):
        if t > prefix_len:
            sums[t].add(weights * row_entropies(rows))
    means = np.array([total.value() for total in sums.values()])
    prov = dict(provenance or {})
    prov.setdefault("model_hash", _try_model_hash(model))
    return DriftCurve(
        steps=np.arange(prefix_len + 1, t_max + 1),
        means=means,
        stderrs=np.zeros(t_max - prefix_len),
        n_generations=0,
        prefix_policy="exact" if prefix_len == 0 else f"exact-seeded(length {prefix_len})",
        t_max=t_max,
        mode="exact",
        provenance=prov,
    )


def ent_rate_gap(curve: DriftCurve, ce: McEstimate | None = None) -> EntRateGap:
    """Early/late entropy of a model's generations and their gap.

    The late value is `curve`'s last point.  The early value is `ce`,
    the model's cross entropy on real data (as from
    :func:`cross_entropy_mc`), when given, else the curve's first point.
    """
    end, end_se = float(curve.means[-1]), float(curve.stderrs[-1])
    if ce is not None:
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
