"""Long-term memory estimation via calibrated limited-memory comparisons.

The memory of a predictor at gap tau is the conditional mutual
information between its next-token prediction and the deep past, given
the most recent tau tokens.  Estimating it directly requires
marginalizing the predictor over deep pasts, which is exactly what is
statistically hard; instead, the predictor is first calibrated to a
limited-memory comparator (a one-parameter convex fit), after which

    I(prediction; deep past | recent tau)
        <=  CE(truth || comparator)  -  H(prediction | full past)

holds with both right-hand terms cheap to estimate.  On enumerable
instances the exact conditional mutual information is computed alongside
the bound for verification.

Because a single exponent is shared across the time steps being
measured, the tilt is applied only on those steps and every reported
quantity is averaged over the same steps; that keeps the zero-gradient
identity behind the bound aligned with what is reported.

The calibration, the bound and the window fit each have an exact and a
sample mode.  A sample mode is the exact routine run on
:func:`seqcal.exact.sample_expansion`, the lattice of the sample's
empirical distribution, instead of the truth's
:func:`seqcal.exact.prefix_expansion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibrate import CalibrationResult, _fit_step, _step_problem, _tilt_rows
from .exact import (
    P_MIN,
    EnumerationBudget,
    _fsum,
    conditional_mi_exact,
    prefix_expansion,
    sample_expansion,
)
from .models import (
    ConditionalModel,
    LimitedMemoryModel,
    MarkovModel,
    _fit_window,
    check_samples,
    marginalize_to_window,
    model_from_dict,
    model_hash,
    model_to_dict,
    register_model_kind,
    row_entropies,
)


class MemoryTiltModel(ConditionalModel):
    """Full-context model tilted per step by a limited-memory comparator.

    On the active steps each conditional row is reweighted by
    comparator_row ** alpha and renormalized; other steps pass the full
    model through unchanged.  Comparator zeros are floored in log space
    so the tilt stays well defined for any alpha.  The state is the step
    count with the full model's and the comparator's states.
    """

    kind = "memory_tilt"

    def __init__(
        self,
        full: ConditionalModel,
        comparator: ConditionalModel,
        alpha: float,
        active_steps=None,
    ):
        super().__init__(full.spec)
        if comparator.spec != full.spec:
            raise ValueError("comparator must share the full model's sequence spec")
        self.base = full
        self.comparator = comparator
        self.alpha = float(alpha)
        self.active_steps = (
            None if active_steps is None else frozenset(int(t) for t in active_steps)
        )

    def _active(self, t: int) -> bool:
        return self.active_steps is None or t in self.active_steps

    def init_state(self, n: int):
        return 0, self.base.init_state(n), self.comparator.init_state(n)

    def advance(self, state, tokens):
        t, full_state, comp_state = state
        return (
            t + 1,
            self.base.advance(full_state, tokens),
            self.comparator.advance(comp_state, tokens),
        )

    def _step(self, state) -> tuple[np.ndarray, np.ndarray]:
        """The full model's rows at `state` and the floored log-comparator rows."""
        _, full_state, comp_state = state
        feats = np.log(np.maximum(self.comparator.rows(comp_state), P_MIN))
        return self.base.rows(full_state), feats

    def rows(self, state) -> np.ndarray:
        # Every active step goes through the tilt, alpha = 0 included, so
        # these rows are bitwise the rows a fit's problem tilts.
        if not self._active(state[0] + 1):
            return self.base.rows(state[1])
        return _tilt_rows(*self._step(state), self.alpha)

    def _fit_extras(self, feats: np.ndarray) -> dict:
        # A feature at the floor marks a comparator entry floored to P_MIN.
        return {"feature_floored": bool(np.any(feats <= _LOG_P_MIN))}

    def params_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "base": model_to_dict(self.base),
            "comparator": model_to_dict(self.comparator),
            "steps": sorted(self.active_steps) if self.active_steps is not None else None,
        }


_LOG_P_MIN = float(np.log(P_MIN))

register_model_kind(
    "memory_tilt",
    lambda spec, params: MemoryTiltModel(
        model_from_dict(params["base"]),
        model_from_dict(params["comparator"]),
        params["alpha"],
        active_steps=params.get("steps"),
    ),
)


def fit_limited_memory(
    source,
    window: int,
    spec=None,
    budget: EnumerationBudget | None = None,
    smoothing: float = 0.1,
    min_samples: int = 10,
) -> LimitedMemoryModel:
    """Learn a model conditioned only on the last `window` tokens.

    A true model is marginalized over deep pasts exactly (enumeration,
    budget-guarded; ``exact-marginal``).  An (n, T) sample array of
    `spec` gives additive-smoothed window-gram tables
    (``empirical-ngram``); contexts never observed get (with positive
    smoothing) the uniform row.
    """
    if isinstance(source, ConditionalModel):
        return marginalize_to_window(source, window, budget)
    if spec is None:
        raise ValueError("spec is required for empirical-ngram mode")
    if smoothing < 0.0:
        raise ValueError("smoothing must be nonnegative")
    samples = check_samples(source, spec)
    if samples.shape[0] < min_samples:
        raise ValueError(
            f"empirical-ngram mode needs at least {min_samples} samples, "
            f"got {samples.shape[0]}"
        )
    # Counts weighted 1/n: smoothing/n per token keeps the count ratio.
    tail = MarkovModel.uniform(spec, min(window, spec.T - 1))
    return _fit_window(sample_expansion(samples, tail), tail, smoothing / samples.shape[0])


def _default_steps(comparator: ConditionalModel, T: int):
    window = getattr(comparator, "window", None)
    if window is None or window + 1 > T:
        return tuple(range(1, T + 1))
    return tuple(range(window + 1, T + 1))


def calibrate_to_comparator(
    target,
    full: ConditionalModel,
    comparator: ConditionalModel,
    tolerance: float = 1e-10,
    budget: EnumerationBudget | None = None,
    steps=None,
    min_samples: int = 1000,
    provenance: dict | None = None,
) -> tuple[MemoryTiltModel, CalibrationResult]:
    """Calibrate `full` to the comparator's predictions on the given steps.

    Fits the shared exponent of full_row * comparator_row**alpha per
    step; at the optimum the tilted model is unimprovable within this
    family (zero gradient), which is the calibrated-model condition the
    memory bound requires.  `target` is the true model (exact mode) or
    an (n, T) sample array.

    Comparator zeros under positive full-model mass are floored in log
    space, which leaves alpha > 0 well defined; for alpha < 0 the
    objective blows up there and the convex fit simply stays in the
    finite region (the flooring is recorded in the result).
    """
    if steps is None:
        steps = _default_steps(comparator, full.spec.T)
    tilt = MemoryTiltModel(full, comparator, 0.0, active_steps=steps)
    problem = _step_problem(target, tilt, steps, budget, min_samples)
    return _fit_comparator(problem, tolerance, provenance)


def _fit_comparator(problem, tolerance, provenance) -> tuple[MemoryTiltModel, CalibrationResult]:
    """Fit a memory tilt's problem; the fitted tilt model and the result."""
    tilt = problem.tilt
    result = _fit_step(
        problem,
        tolerance,
        f_descriptor={
            "kind": "log_comparator",
            "comparator_hash": model_hash(tilt.comparator),
        },
        provenance=provenance,
    )
    model = MemoryTiltModel(tilt.base, tilt.comparator, result.alpha_star, tilt.active_steps)
    return model, result


@dataclass
class MemoryEstimate:
    """The memory bound at one gap, with everything needed to audit it."""

    tau: int
    ce_comparator: float
    cond_entropy: float
    bound: float
    alpha_star: float
    exact_mi: float | None
    t_policy: str
    steps: list
    per_step: dict
    mode: str
    valid: bool
    ce_stderr: float | None = None
    cond_entropy_stderr: float | None = None
    bound_stderr: float | None = None
    n_samples: int | None = None
    calibration: CalibrationResult | None = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "ce_comparator": self.ce_comparator,
            "cond_entropy": self.cond_entropy,
            "bound": self.bound,
            "alpha_star": self.alpha_star,
            "exact_mi": self.exact_mi,
            "t_policy": str(self.t_policy),
            "steps": list(self.steps),
            "per_step": {str(t): v for t, v in self.per_step.items()},
            "mode": self.mode,
            "valid": self.valid,
            "ce_stderr": self.ce_stderr,
            "cond_entropy_stderr": self.cond_entropy_stderr,
            "bound_stderr": self.bound_stderr,
            "n_samples": self.n_samples,
            "calibration": None if self.calibration is None else self.calibration.to_dict(),
            "provenance": self.provenance,
        }


def memory_table_csv(estimates, units: str = "nats") -> str:
    """CSV table of bounds across gaps (one estimate per row).

    Information-valued columns honor `units`; the tilt exponent is
    dimensionless and is never converted.
    """
    from .estimate import _unit_scale

    scale = _unit_scale(units)
    lines = ["tau,ce_comparator,bound,alpha_star,exact_mi,ce_stderr,bound_stderr"]
    for est in estimates:
        mi = "" if est.exact_mi is None else repr(float(est.exact_mi) * scale)
        ce_se = "" if est.ce_stderr is None else repr(float(est.ce_stderr) * scale)
        b_se = "" if est.bound_stderr is None else repr(float(est.bound_stderr) * scale)
        lines.append(
            f"{est.tau},{float(est.ce_comparator) * scale!r},{float(est.bound) * scale!r},"
            f"{float(est.alpha_star)!r},{mi},{ce_se},{b_se}"
        )
    return "\n".join(lines) + "\n"


def _joint(weights: np.ndarray, rows: np.ndarray, tau: int, t: int) -> np.ndarray:
    """(Z, Y, X) joint from one lattice level: prefix weights times step-t rows."""
    M = rows.shape[1]
    te = min(tau, t - 1)
    joint = (weights[:, None] * rows).reshape(M ** (t - 1 - te), M**te, M)
    return joint.transpose(2, 1, 0)


def prediction_joint(
    truth: ConditionalModel,
    predictor: ConditionalModel,
    tau: int,
    t: int,
    budget: EnumerationBudget | None = None,
) -> np.ndarray:
    """Joint (Z, Y, X) of the predictor's step-t token with the true past.

    Z is the predictor's next token at step t, Y the most recent
    min(tau, t-1) tokens, X the deep past before them; (X, Y) carries the
    truth's prefix distribution, walked to level t against a budget of
    M**t states.  Feeding this to
    :func:`seqcal.exact.conditional_mi_exact` yields the exact memory at
    gap tau for this step.
    """
    if not 1 <= t <= truth.spec.T:
        raise ValueError(f"step t must lie in 1..{truth.spec.T}")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    for _, (_, state), weights, _ in prefix_expansion(truth, budget, predictor, last=t):
        pass
    return _joint(weights, predictor.rows(state), tau, t)


def memory_bound(
    target,
    full: ConditionalModel,
    comparator: ConditionalModel,
    t_policy="average",
    tau: int | None = None,
    tolerance: float = 1e-10,
    budget: EnumerationBudget | None = None,
    attach_exact_mi: bool = True,
    min_samples: int = 1000,
    provenance: dict | None = None,
) -> MemoryEstimate:
    """Upper-bound the memory at gap tau of `full` using the comparator.

    Calibrates `full` to the comparator on the measured steps, then
    reports  bound = CE(truth || comparator) - H(calibrated next token |
    full past), each term averaged over the steps selected by
    `t_policy` ("average" pools t = tau+1..T; an integer selects a
    single step).  The truth's prefix lattice, or the samples, is
    walked once per estimate: the calibration's walk also yields the CE
    terms of each measured level as it passes, and the calibrated rows
    are the calibration problem's rows at the fitted exponent, bitwise
    those of the returned tilt model.  Exact mode attaches, unless
    `attach_exact_mi` is False, the exact conditional mutual
    information, which the bound dominates by construction.  In sample
    mode both terms carry standard errors; a sampled token the
    comparator gives probability 0 makes the CE infinite, and a
    negative or infinite bound is reported as-is with the validity flag
    cleared rather than clamped.
    """
    T = full.spec.T
    if tau is None:
        tau = getattr(comparator, "window", None)
        if tau is None:
            raise ValueError("tau is required when the comparator has no window")
    tau = int(tau)
    if t_policy == "average":
        steps = tuple(range(min(tau + 1, T), T + 1))
    elif isinstance(t_policy, int) and not isinstance(t_policy, bool):
        if not 1 <= t_policy <= T:
            raise ValueError(f"t_policy step must lie in 1..{T}")
        steps = (t_policy,)
    else:
        raise ValueError(f"t_policy must be 'average' or a step index, got {t_policy!r}")

    exact_mode = isinstance(target, ConditionalModel)
    tilt = MemoryTiltModel(full, comparator, 0.0, active_steps=steps)
    ce: dict = {}
    problem = _step_problem(
        target,
        tilt,
        steps,
        budget,
        min_samples,
        observe=lambda walk: _comparator_ce(walk, comparator, steps, ce, not exact_mode),
    )
    _, calibration = _fit_comparator(problem, tolerance, provenance)

    per_step: dict = {}
    ce_parts, h_parts = [], []
    for t in steps:
        weights, tilted_rows = problem.tilted_rows(calibration.alpha_star, t)
        h_terms = weights * row_entropies(tilted_rows)
        mi_t = None
        if exact_mode and attach_exact_mi:
            mi_t = conditional_mi_exact(_joint(weights, tilted_rows, tau, t))
        per_step[t] = {"ce": ce[t][0], "cond_entropy": _fsum(h_terms), "mi": mi_t}
        ce_parts.append(ce[t][1])
        h_parts.append(h_terms)
    ce_term = float(np.mean([v["ce"] for v in per_step.values()]))
    h_term = float(np.mean([v["cond_entropy"] for v in per_step.values()]))
    bound = ce_term - h_term
    if exact_mode:
        exact_mi = None
        if attach_exact_mi:
            exact_mi = float(np.mean([v["mi"] for v in per_step.values()]))
        mode_fields = {"mode": "exact", "valid": bound >= -1e-9, "exact_mi": exact_mi}
    else:
        # Each part holds 1/n times one sequence's term at one step, so
        # these are the per-sequence step averages behind the stderrs.
        n = h_parts[0].shape[0]
        ce_seq = np.sum(ce_parts, axis=0) * n / len(steps)
        h_seq = np.sum(h_parts, axis=0) * n / len(steps)
        mode_fields = {
            "mode": "mc",
            "valid": math.isfinite(bound) and bound >= 0.0,
            "exact_mi": None,
            "ce_stderr": _stderr(ce_seq),
            "cond_entropy_stderr": _stderr(h_seq),
            "bound_stderr": _stderr(ce_seq - h_seq),
            "n_samples": n,
        }
    return MemoryEstimate(
        tau=tau,
        ce_comparator=ce_term,
        cond_entropy=h_term,
        bound=bound,
        alpha_star=calibration.alpha_star,
        t_policy=t_policy,
        steps=list(steps),
        per_step=per_step,
        calibration=calibration,
        provenance=dict(provenance or {}),
        **mode_fields,
    )


def _comparator_ce(walk, comparator, steps, ce: dict, per_context: bool):
    """Pass `walk` through, putting each measured level's CE terms in `ce`.

    ``ce[t]`` is -sum of mass * log comparator over level t's contexts
    and tokens and, if `per_context`, the per-context sums (else None).
    The comparator's state is the last walked model's, a
    :class:`MemoryTiltModel`'s.
    """
    for level in walk:
        t, states, weights, true_rows = level
        if t in steps:
            with np.errstate(divide="ignore"):
                log_comp = np.log(comparator.rows(states[-1][2]))
            terms = weights[:, None] * true_rows
            # A comparator zero under positive mass makes the sum infinite.
            np.multiply(terms, log_comp, out=terms, where=terms > 0.0)
            ce[t] = (-_fsum(terms), -terms.sum(axis=1) if per_context else None)
        yield level


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean of `values`; infinite if one value is."""
    if not np.all(np.isfinite(values)):
        return math.inf
    return float(values.std(ddof=1) / math.sqrt(values.shape[0]))
