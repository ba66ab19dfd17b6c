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
identity behind the bound aligned with what is reported.  Those steps
are the :class:`MemoryTiltModel`'s own ``active_steps``, read by the fit
and by the bound alike.

The comparator's window fit, :func:`marginalize_to_window` or
:func:`fit_limited_memory`, lives here too.  The calibration, the bound
and the window fit each have an exact and a sample mode.  A sample mode
is the exact routine run on :func:`seqcal.exact.sample_expansion`, the
lattice of the sample's empirical distribution, instead of the truth's
:func:`seqcal.exact.prefix_expansion`, in the same pieces.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .calibrate import CalibrationResult, _StepTiltProblem, _fit_step, _tilt_rows
from .estimate import _unit_scale
from .exact import (
    P_MIN,
    _TAIL_BLOCK,
    EnumerationBudget,
    _ConditionalMi,
    _Fsum,
    prefix_expansion,
    sample_expansion,
)
from .models import (
    ConditionalModel,
    LimitedMemoryModel,
    MarkovModel,
    _append_code,
    _finite,
    _sum_columns,
    check_samples,
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
        self.alpha = _finite(float(alpha), "alpha")
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

    def _feature_period(self, t: int) -> int | None:
        """A window-w table comparator's features repeat every M**min(w, t-1) contexts of level t."""
        windowed = isinstance(self.comparator, MarkovModel)
        return self.spec.M ** min(self.comparator.order, t - 1) if windowed else None

    def _fit_extras(self, tables) -> dict:
        # A feature at the floor marks a comparator entry floored to P_MIN.
        return {"feature_floored": any(bool(np.any(f <= _LOG_P_MIN)) for f in tables)}

    def _descriptor(self) -> dict:
        return {"kind": "log_comparator", "comparator_hash": model_hash(self.comparator)}

    def _with_alpha(self, alpha: float) -> "MemoryTiltModel":
        return MemoryTiltModel(self.base, self.comparator, alpha, self.active_steps)

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
    if window < 1:
        raise ValueError("window must be >= 1")
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


def marginalize_to_window(
    model: ConditionalModel, window: int, budget=None
) -> LimitedMemoryModel:
    """Exact limited-memory marginal of `model` with the given window.

    For each window-sized context y, the returned row is the conditional
    distribution of the next token given y, with deep pasts summed out
    under `model` and positions pooled:

        row(y)[z]  =  sum_t P(window at t = y, next = z) / sum_t P(window at t = y)

    i.e. the best window-limited predictor of `model` in log loss, which
    is what training a context-truncated model to convergence yields.
    Contexts shorter than the window (the first steps of a sequence) get
    their own exact tables.  Contexts with zero probability get uniform
    rows; they are never reached under `model`.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    tail = MarkovModel.uniform(model.spec, min(window, model.spec.T - 1))
    return _fit_window(prefix_expansion(model, budget, tail, whole=True), tail)


def _fit_window(walk, tail: MarkovModel, smoothing: float = 0.0) -> LimitedMemoryModel:
    """Window tables pooled, level by level, over a whole-level lattice walk or a sample walk.

    `tail` is the uniform order-``window`` Markov model, walked last, so
    its state code is the window of every prefix.  Each window's row
    is its accumulated next-token mass plus `smoothing` per token,
    normalized; a window without mass gets the uniform row.
    """
    M, eff = tail.spec.M, tail.order
    acc = [np.zeros((M**ell, M)) for ell in range(eff + 1)]
    for t, _, states, weights, rows in walk:
        # Cell code*M + j of the flat table, so numpy takes its 1-d
        # ``ufunc.at`` path; each cell's additions keep their order.  The
        # index is built for one chunk of rows at a time.
        table, code = acc[min(eff, t - 1)].reshape(-1), states[-1][1]
        for lo in range(0, code.shape[0], _TAIL_BLOCK):
            hi = lo + _TAIL_BLOCK
            np.add.at(table, _append_code(code[lo:hi], None, M),
                      (weights[lo:hi, None] * rows[lo:hi]).reshape(-1))
    tables = []
    for table in acc:
        table += smoothing
        mass = table.sum(axis=1, keepdims=True)
        tables.append(np.where(mass > 0.0, table / np.where(mass > 0.0, mass, 1.0), 1.0 / M))
    return LimitedMemoryModel(tail.spec, eff, tables)


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
    return _fit_step(_StepTiltProblem(target, tilt, budget, min_samples), tolerance, provenance)


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
            **asdict(self),
            "t_policy": str(self.t_policy),
            "per_step": {str(t): v for t, v in self.per_step.items()},
        }


def memory_table_csv(estimates, units: str = "nats") -> str:
    """CSV table of bounds across gaps (one estimate per row).

    Information-valued columns honor `units`; the tilt exponent is
    dimensionless and is never converted.
    """
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
    """(Z, Y, X) joint of step-t prefixes, weights times rows, X its slowest axis.

    The prefixes are a level's, or whole runs of its M**min(tau, t-1)
    recent contexts: a range of deep pasts X.
    """
    M = rows.shape[1]
    return (weights[:, None] * rows).reshape(-1, M ** min(tau, t - 1), M).transpose(2, 1, 0)


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
    if predictor.spec != truth.spec:
        raise ValueError("models must share the same sequence spec")
    if not 1 <= t <= truth.spec.T:
        raise ValueError(f"step t must lie in 1..{truth.spec.T}")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    for _, _, (_, state), weights, _ in prefix_expansion(truth, budget, predictor, last=t, whole=True):
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
    those of the returned tilt model, read one block of deep pasts at a
    time.  Exact mode attaches, unless `attach_exact_mi` is False, the
    exact conditional mutual information, which the bound dominates by
    construction.  In sample mode both terms carry standard errors; a
    sampled token the comparator gives probability 0 makes the CE
    infinite, and a negative or infinite bound is reported as-is with
    the validity flag cleared rather than clamped.
    """
    T = full.spec.T
    if tau is None:
        tau = getattr(comparator, "window", None)
        if tau is None:
            raise ValueError("tau is required when the comparator has no window")
    tau = int(tau)
    if tau < 1:
        raise ValueError("tau must be >= 1")
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
    problem = _StepTiltProblem(target, tilt, budget, min_samples,
                               observe=lambda walk: _comparator_ce(walk, tilt, ce, not exact_mode))
    _, calibration = _fit_step(problem, tolerance, provenance)

    # Each block of calibrated rows is a range of deep pasts of the joint.
    # Only sample mode keeps per-context terms, for its stderrs.
    M = full.spec.M
    per_step: dict = {}
    ce_parts, h_parts = [], []
    for t in steps:
        h_sum, h_terms = _Fsum(), []
        mi = _ConditionalMi() if exact_mode and attach_exact_mi else None
        for weights, rows in problem.tilted_rows(calibration.alpha_star, t, M ** min(tau, t - 1)):
            h = weights * row_entropies(rows)
            h_sum.add(h)
            if not exact_mode:
                h_terms.append(h)
            if mi is not None:
                mi.add(_joint(weights, rows, tau, t))
            del h, rows  # before the next block's are built
        per_step[t] = {"ce": ce[t][0], "cond_entropy": h_sum.value(),
                       "mi": None if mi is None else mi.value()}
        ce_parts.append(ce[t][1])
        if not exact_mode:
            h_parts.append(np.concatenate(h_terms))
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


def _comparator_ce(walk, tilt, ce: dict, per_context: bool):
    """Pass `walk`'s pieces through, putting each measured level's CE terms in `ce`.

    ``ce[t]``, for each active step t of the last walked model `tilt`,
    is -sum of mass * log comparator over level t's contexts and tokens,
    one correctly rounded sum across the level's pieces, and, if
    `per_context`, the per-context sums (else None); a sample walk,
    which `per_context` serves, yields each level as one piece.  `ce`
    is filled once the walk is done.
    """
    sums, per_ctx = {}, {}
    for piece in walk:
        t, _, states, weights, true_rows = piece
        if t in tilt.active_steps:
            with np.errstate(divide="ignore"):
                log_comp = np.log(tilt.comparator.rows(states[-1][2]))
            terms = weights[:, None] * true_rows
            # A comparator zero under positive mass makes the sum infinite.
            np.multiply(terms, log_comp, out=terms, where=terms > 0.0)
            del log_comp
            sums.setdefault(t, _Fsum()).add(terms)
            if per_context:
                per_ctx[t] = -_sum_columns(terms.T)
            # Released before the consumer processes the same piece.
            del terms
        yield piece
    for t, total in sums.items():
        ce[t] = (-total.value(), per_ctx.get(t))


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean of `values`; infinite if one value is."""
    if not np.all(np.isfinite(values)):
        return math.inf
    return float(values.std(ddof=1) / math.sqrt(values.shape[0]))
