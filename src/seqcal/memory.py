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

The comparator's window fit, :func:`fit_limited_memory`, lives here
too.  A comparator is a window table model, so the window fit, the
tilt's features, the target feature sum and each step's CE(truth ||
comparator) are sums over one small table per level: the target's mass
by window code and next token
(:class:`_WindowMass`).  One walk of the target builds these tables for
every window of a run beside the full model's base rows, and
:func:`memory_bounds` reads all of a run's gaps off it.  Each routine
has an exact and a sample mode: the same code run on
:func:`seqcal.exact.sample_expansion`, the lattice of the sample's
empirical distribution, instead of the truth's
:func:`seqcal.exact.prefix_expansion`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .calibrate import (
    CalibrationResult,
    _active_steps,
    _fit_step,
    _StepTiltProblem,
    _tilt_rows,
)
from .estimate import _unit_scale
from .exact import (
    P_MIN,
    EnumerationBudget,
    _conditional_entropy,
    _Fsum,
    _fsum,
    prefix_expansion,
    sample_expansion,
)
from .models import (
    ConditionalModel,
    LimitedMemoryModel,
    MarkovModel,
    _append_code,
    _finite,
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
    so the tilt stays well defined for any alpha.  The comparator is a
    window table model (a :class:`MarkovModel`).  The state is the step
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
        if not isinstance(comparator, MarkovModel):
            raise ValueError("comparator must be a window table model (a MarkovModel)")
        if comparator.spec != full.spec:
            raise ValueError("comparator must share the full model's sequence spec")
        self.base = full
        self.comparator = comparator
        self.alpha = _finite(float(alpha), "alpha")
        self.active_steps = (
            None if active_steps is None else frozenset(int(t) for t in active_steps)
        )

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
        if self.active_steps is not None and state[0] + 1 not in self.active_steps:
            return self.base.rows(state[1])
        return _tilt_rows(*self._step(state), self.alpha)

    def _problem(self, target, budget=None) -> _StepTiltProblem:
        """The per-step problem of this tilt's exponent, read off one walk's window-mass tables."""
        steps = _active_steps(self)
        return _WindowMass(target, self.spec, (self.comparator.order,), budget, self.base, steps).problem(self)

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


register_model_kind(
    "memory_tilt",
    lambda spec, params, budget: MemoryTiltModel(
        model_from_dict(params["base"], budget),
        model_from_dict(params["comparator"], budget),
        params["alpha"],
        active_steps=params.get("steps"),
    ),
)


# The empirical-ngram fit's additive smoothing per token, by default.
_SMOOTHING = 0.1
# The empirical-ngram fit's floor on the number of samples.
_MIN_WINDOW_SAMPLES = 10


def fit_limited_memory(source, window: int, spec=None, budget: EnumerationBudget | None = None,
                       smoothing: float = _SMOOTHING) -> LimitedMemoryModel:
    """Learn a model conditioned only on the last `window` tokens.

    A true model is marginalized over deep pasts exactly (enumeration,
    budget-guarded; ``exact-marginal``).  For each window-sized context
    y, the returned row is the conditional distribution of the next
    token given y, with deep pasts summed out under the model and
    positions pooled:

        row(y)[z]  =  sum_t P(window at t = y, next = z) / sum_t P(window at t = y)

    i.e. the best window-limited predictor of the model in log loss,
    which is what training a context-truncated model to convergence
    yields.  Contexts shorter than the window (the first steps of a
    sequence) get their own exact tables.  Contexts with zero
    probability get uniform rows; they are never reached under the
    model.

    An (n, T) sample array of `spec` gives additive-smoothed window-gram
    tables (``empirical-ngram``); contexts never observed get (with
    positive smoothing) the uniform row.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if isinstance(source, ConditionalModel):
        return _WindowMass(source, source.spec, (window,), budget).window_fit(window)
    if spec is None:
        raise ValueError("spec is required for empirical-ngram mode")
    if smoothing < 0.0:
        raise ValueError("smoothing must be nonnegative")
    samples = check_samples(source, spec)
    if samples.shape[0] < _MIN_WINDOW_SAMPLES:
        raise ValueError(
            f"empirical-ngram mode needs at least {_MIN_WINDOW_SAMPLES} samples, "
            f"got {samples.shape[0]}"
        )
    # Counts weighted 1/n: smoothing/n per token keeps the count ratio.
    return _WindowMass(samples, spec, (window,)).window_fit(window, smoothing / samples.shape[0])


def _walk(target, budget, *models):
    """The module's one walk: a truth's blocked ``prefix_expansion`` or a sample's ``sample_expansion``."""
    if isinstance(target, ConditionalModel):
        return prefix_expansion(target, budget, *models)
    return sample_expansion(target, *models)


class _WindowMass:
    """The target's mass by window code and next token, per level and window, from one walk.

    ``mass[w][t - 1]`` is an (M**min(w, t-1), M) table: cell (y, z) sums
    weight times true-row entry z over level t's contexts whose last
    min(w, t-1) tokens have code y, one context at a time in context
    order (``np.add.at``), so no table depends on the walk's blocks.  The
    walk's last model, the uniform Markov model of the largest window,
    codes each prefix's window.  With `full`, the walk also fills
    ``steps`` with `full`'s rows, tilted on the steps `tilted`.
    """

    def __init__(self, target, spec, windows, budget=None, full=None, tilted=()):
        M, T = spec.M, spec.T
        self.spec, self.windows = spec, sorted({min(w, T - 1) for w in windows})
        self.samples = None if isinstance(target, ConditionalModel) else check_samples(target, spec)
        self.mass = {w: [np.zeros((M ** min(w, t - 1), M)) for t in range(1, T + 1)] for w in self.windows}
        self.codes = {}  # sample mode: each tilted step's largest-window codes
        tail = MarkovModel.uniform(spec, max(self.windows, default=0))
        pieces = _walk(target, budget, *((tail,) if full is None else (full, tail)))

        def read(cols, t, lo, states, weights, true_rows):
            # Window w's cell is the largest window's cell mod M**(min(w, t-1) + 1).
            cells, mass = _append_code(states[-1][1], None, M), (weights[:, None] * true_rows).reshape(-1)
            for w in self.windows:
                np.add.at(self.mass[w][t - 1].reshape(-1), cells % M ** (min(w, t - 1) + 1), mass)
            if self.samples is not None and t in tilted:
                self.codes[t] = states[-1][1]
            return None if full is None else full.rows(states[-2])

        if full is None:
            for piece in pieces:
                read(None, *piece)
        else:
            self.steps = _StepTiltProblem(target, spec, tilted)
            self.steps.run(pieces, read)

    def window_fit(self, window: int, smoothing: float = 0.0) -> LimitedMemoryModel:
        """The window fit: level tables pooled in level order, plus `smoothing`; massless rows uniform."""
        M, eff = self.spec.M, min(window, self.spec.T - 1)
        mass, tables = self.mass[eff], []
        for ell in range(eff + 1):
            table = sum(mass[ell:] if ell == eff else mass[ell:ell + 1]) + smoothing
            total = table.sum(axis=1, keepdims=True)
            tables.append(np.where(total > 0.0, table / np.where(total > 0.0, total, 1.0), 1.0 / M))
        return LimitedMemoryModel(self.spec, eff, tables)

    def _tables(self, comparator: MarkovModel, t: int):
        """Step t's mass table, the comparator's table there, and in sample mode each sequence's cell."""
        M, ell = self.spec.M, min(comparator.order, t - 1)
        cells = None if self.samples is None else (self.codes[t] % M**ell) * M + self.samples[:, t - 1]
        return self.mass[min(comparator.order, self.spec.T - 1)][t - 1], comparator.tables[ell], cells

    def problem(self, tilt) -> _StepTiltProblem:
        """A memory tilt's problem: its features are the comparator's log-floored tables.

        A sample's sequences gather their rows; the target feature sum is
        the tables' products.
        """
        M, T = self.spec.M, self.spec.T
        feats, target_feat_sum = {}, 0.0
        obs_feats = None if self.samples is None else np.zeros((T, self.samples.shape[0]))
        for t in sorted(_active_steps(tilt)):
            mass, table, cells = self._tables(tilt.comparator, t)
            log_table = np.log(np.maximum(table, P_MIN))
            target_feat_sum += _fsum(mass * log_table)
            if cells is None:
                feats[t] = np.ascontiguousarray(log_table.T)
            else:
                feats[t] = np.take(log_table.T, cells // M, axis=1)
                obs_feats[t - 1] = log_table.reshape(-1)[cells]
        # A feature at the floor marks a comparator entry floored to P_MIN.
        floored = any(bool(np.any(f <= np.log(P_MIN))) for f in feats.values())
        return self.steps.tilted_by(tilt, feats, target_feat_sum, obs_feats, {"feature_floored": floored})

    def cross_entropy(self, comparator: MarkovModel, t: int):
        """Step t's CE(target || comparator), inf at a zero under mass; per-sequence terms in sample mode."""
        mass, table, cells = self._tables(comparator, t)
        with np.errstate(divide="ignore"):
            log_table = np.log(table)
        terms = np.multiply(mass, log_table, out=np.zeros_like(mass), where=mass > 0.0)
        if cells is None:
            return -_fsum(terms), None
        return -_fsum(terms), -(self.steps.weights[self.steps.spans[t]] * log_table.reshape(-1)[cells])


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


def memory_bound(target, full: ConditionalModel, comparator: MarkovModel, t_policy="average",
                 tau: int | None = None, tolerance: float = 1e-10, budget: EnumerationBudget | None = None,
                 attach_exact_mi: bool = True, provenance: dict | None = None) -> MemoryEstimate:
    """Upper-bound the memory at gap tau of `full` using the comparator.

    Calibrates `full` to the comparator, a window table model (else
    ValueError), on the measured steps, then reports  bound =
    CE(truth || comparator) - H(calibrated next token | full past), each
    term averaged over the steps selected by `t_policy` ("average" pools
    t = tau+1..T; an integer selects a single step).  One walk of the
    truth's lattice, or of the samples, gives the window-mass tables and
    the calibration problem, whose tilted rows are read one block of
    deep pasts at a time.  Exact mode attaches, unless `attach_exact_mi`
    is False, the exact conditional mutual information H(Z | Y) - H(Z |
    Y, X), H(Z | Y, X) being the reported conditional entropy.  In sample
    mode both terms carry standard errors; a sampled token the
    comparator gives probability 0 makes the CE infinite, and a negative
    or infinite bound is reported as-is with the validity flag cleared.
    """
    if tau is None:
        tau = getattr(comparator, "window", None)
        if tau is None:
            raise ValueError("tau is required when the comparator has no window")
    tau, steps = _measured_steps(tau, t_policy, full.spec.T)
    tilt = MemoryTiltModel(full, comparator, 0.0, active_steps=steps)
    walk = _WindowMass(target, full.spec, (comparator.order,), budget, full, steps)
    return _bound(walk, tilt, tau, t_policy, tolerance, attach_exact_mi, provenance)


def memory_bounds(target, full: ConditionalModel, taus, t_policy="average", tolerance: float = 1e-10,
                  budget: EnumerationBudget | None = None, attach_exact_mi: bool = True,
                  provenance: dict | None = None) -> list[MemoryEstimate]:
    """The bound at each gap of `taus` against the target's window fit, all from one walk.

    The estimate at tau is bitwise ``memory_bound(target, full,
    fit_limited_memory(target, tau, ...))``, whose gap is the fit's
    window min(tau, T - 1); in sample mode the fit takes `full`'s spec
    and the default smoothing.
    """
    T = full.spec.T
    gaps = [_measured_steps(min(tau, T - 1), t_policy, T) for tau in taus]
    tilted = set().union(*(steps for _, steps in gaps))
    walk = _WindowMass(target, full.spec, [tau for tau, _ in gaps], budget, full, tilted)
    smoothing = 0.0 if walk.samples is None else _SMOOTHING / walk.samples.shape[0]
    return [_bound(walk, MemoryTiltModel(full, walk.window_fit(tau, smoothing), 0.0, active_steps=steps),
                   tau, t_policy, tolerance, attach_exact_mi, provenance) for tau, steps in gaps]


def _measured_steps(tau, t_policy, T: int) -> tuple[int, tuple]:
    """The gap as an int and the steps `t_policy` measures at it."""
    if T < 2:
        raise ValueError(f"memory gaps need T >= 2, got T = {T}")
    tau = int(tau)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if t_policy == "average":
        return tau, tuple(range(min(tau + 1, T), T + 1))
    if not isinstance(t_policy, int) or isinstance(t_policy, bool):
        raise ValueError(f"t_policy must be 'average' or a step index, got {t_policy!r}")
    if not 1 <= t_policy <= T:
        raise ValueError(f"t_policy step must lie in 1..{T}")
    return tau, (t_policy,)


def _bound(walk, tilt, tau, t_policy, tolerance, attach_exact_mi, provenance) -> MemoryEstimate:
    """Calibrate `tilt` on `walk` and report its bound at gap tau."""
    problem = walk.problem(tilt)
    _, calibration = _fit_step(problem, tolerance, provenance)
    steps, M = sorted(problem.active), tilt.spec.M
    exact_mode = walk.samples is None
    per_step, ce_parts, h_parts = {}, [], []
    for t in steps:
        ce, ce_terms = walk.cross_entropy(tilt.comparator, t)
        recent = M ** min(tau, t - 1)
        deep = exact_mode and attach_exact_mi and t - 1 > tau
        h_sum, h_terms, marginal = _Fsum(), [], None
        # Each block is a range of deep pasts X; the (Z, Y) marginal adds
        # them one at a time, in order.  Only sample mode keeps per-context
        # terms, for its stderrs.
        for weights, rows in problem.tilted_rows(calibration.alpha_star, t, recent):
            h = weights * row_entropies(rows.T)
            h_sum.add(h)
            if not exact_mode:
                h_terms.append(h)
            if deep:
                mass = (rows * weights).reshape(M, -1, recent)
                if marginal is not None:
                    mass = np.concatenate((marginal[:, None], mass), axis=1)
                marginal = mass.sum(axis=1)
            del h, rows  # before the next block's are built
        h_t = h_sum.value()
        # With no deep past, H(Z | Y) is H(Z | Y, X).
        mi = None
        if exact_mode and attach_exact_mi:
            mi = _conditional_entropy(marginal) - h_t if deep else 0.0
        per_step[t] = {"ce": ce, "cond_entropy": h_t, "mi": mi}
        ce_parts.append(ce_terms)
        if not exact_mode:
            h_parts.append(np.concatenate(h_terms))
    ce_term = float(np.mean([v["ce"] for v in per_step.values()]))
    h_term = float(np.mean([v["cond_entropy"] for v in per_step.values()]))
    bound = ce_term - h_term
    if exact_mode:
        exact_mi = float(np.mean([v["mi"] for v in per_step.values()])) if attach_exact_mi else None
        mode_fields = {"mode": "exact", "valid": bound >= -1e-9, "exact_mi": exact_mi}
    else:
        # Each part holds 1/n times one sequence's term at one step, so
        # these are the per-sequence step averages behind the stderrs.
        n = h_parts[0].shape[0]
        ce_seq = np.sum(ce_parts, axis=0) * n / len(steps)
        h_seq = np.sum(h_parts, axis=0) * n / len(steps)
        mode_fields = {"mode": "mc", "valid": math.isfinite(bound) and bound >= 0.0, "exact_mi": None,
                       "ce_stderr": _stderr(ce_seq), "cond_entropy_stderr": _stderr(h_seq),
                       "bound_stderr": _stderr(ce_seq - h_seq), "n_samples": n}
    return MemoryEstimate(tau=tau, ce_comparator=ce_term, cond_entropy=h_term, bound=bound,
                          alpha_star=calibration.alpha_star, t_policy=t_policy, steps=steps,
                          per_step=per_step, calibration=calibration, provenance=dict(provenance or {}),
                          **mode_fields)


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean of `values`; infinite if one value is."""
    if not np.all(np.isfinite(values)):
        return math.inf
    return float(values.std(ddof=1) / math.sqrt(values.shape[0]))
