"""One-parameter exponential-tilt calibration.

Two tilt families around a base model B:

* sequence-level (global):   B_a(w)        prop. exp(a f(w)) B(w)
* per-step (local):          B_a(w_t|w_<t) prop. B(w_t|w_<t) exp(a F_t(w_<=t))

Fitting minimizes CE(target || B_a) over the scalar a.  The objective is
convex: its derivative is the feature-mean mismatch between the tilted
model and the target, and its second derivative is the tilted feature
variance divided by T.  The optimizer is a safeguarded Newton on these
exact derivatives, with bisection fallback inside a bracket grown
geometrically from [-1, 1].  At the optimum the tilted model matches the
target's feature mean, which is the calibration property everything else
builds on.

The entropy-rate calibration specializes the global tilt to
f = log of the uniform-mixture-floored base, so the tilted family is the
floored base raised to the power (1 + a), renormalized.  The local
variant tilts each conditional by the one-step-lookahead entropy of the
base after appending the candidate token; the lookahead feature is 0 at
the final step, where no next step exists.

A per-step fit has an exact and a sample-average mode.  The sample mode
is the exact routine run on :func:`seqcal.exact.sample_expansion`, the
lattice of the sample's empirical distribution, instead of the truth's
:func:`seqcal.exact.prefix_expansion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact import (
    EnumerationBudget,
    FunctionalF,
    _kl_from_log_probs,
    logsumexp,
    prefix_expansion,
    sample_expansion,
    sequence_log_probs,
)
from .models import (
    ConditionalModel,
    MixtureModel,
    _try_model_hash,
    check_samples,
    model_from_dict,
    model_to_dict,
    register_model_kind,
    row_entropies,
)


class CalibrationDivergenceError(RuntimeError):
    """The calibration objective has no finite minimizer."""


@dataclass
class CalibrationResult:
    """Outcome of a one-parameter calibration fit.

    ``mu_target`` / ``mu_tilted`` are the matched feature means: the raw
    sequence-functional mean for the global tilt, the per-step average
    (1/T sum over steps) for per-step tilts.  ``trace`` records every
    (alpha, gradient) probe of the optimizer.
    """

    alpha_star: float
    objective: float
    baseline_objective: float
    gradient: float
    curvature: float
    mu_target: float
    mu_tilted: float
    mode: str
    tolerance: float
    n_iterations: int
    trace: list
    f_descriptor: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        return self.baseline_objective - self.objective

    def to_dict(self) -> dict:
        return {
            "alpha_star": self.alpha_star,
            "objective": self.objective,
            "baseline_objective": self.baseline_objective,
            "gradient": self.gradient,
            "curvature": self.curvature,
            "mu_target": self.mu_target,
            "mu_tilted": self.mu_tilted,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "n_iterations": self.n_iterations,
            "trace": [[float(a), float(g)] for a, g in self.trace],
            "f_descriptor": self.f_descriptor,
            "extras": self.extras,
            "provenance": self.provenance,
        }


def _minimize_convex(evaluate, stop, bracket=(-1.0, 1.0), max_expansions=60, max_iter=300):
    """Safeguarded Newton for a convex 1-d objective given by its derivatives.

    `evaluate(x)` returns a dict with at least ``g`` (gradient) and ``c``
    (curvature >= 0); `stop(info)` decides convergence.  Newton steps are
    constrained to a sign-changing bracket grown geometrically from the
    initial one; out-of-bracket or degenerate steps fall back to
    bisection.
    """
    trace = []

    def probe(x):
        info = dict(evaluate(float(x)))
        info["alpha"] = float(x)
        trace.append(info)
        return info

    info0 = probe(0.0)
    if stop(info0):
        return 0.0, info0, trace

    lo, hi = float(bracket[0]), float(bracket[1])
    ilo = probe(lo)
    if stop(ilo):
        return lo, ilo, trace
    ihi = probe(hi)
    if stop(ihi):
        return hi, ihi, trace

    # Grow until the gradient changes sign across [lo, hi]; the gradient
    # of a convex objective is nondecreasing, so a one-signed gradient at
    # ever larger |alpha| means the objective decreases without bound.
    for _ in range(max_expansions):
        if ilo["g"] <= 0.0:
            break
        lo *= 2.0
        ilo = probe(lo)
        if stop(ilo):
            return lo, ilo, trace
    else:
        raise CalibrationDivergenceError(
            "objective keeps decreasing toward alpha = -inf; no finite minimizer"
        )
    for _ in range(max_expansions):
        if ihi["g"] >= 0.0:
            break
        hi *= 2.0
        ihi = probe(hi)
        if stop(ihi):
            return hi, ihi, trace
    else:
        raise CalibrationDivergenceError(
            "objective keeps decreasing toward alpha = +inf; no finite minimizer"
        )

    if abs(info0["g"]) <= min(abs(ilo["g"]), abs(ihi["g"])) and lo < 0.0 < hi:
        x, info = 0.0, info0
    elif abs(ilo["g"]) < abs(ihi["g"]):
        x, info = lo, ilo
    else:
        x, info = hi, ihi

    for _ in range(max_iter):
        if stop(info):
            return x, info, trace
        if info["g"] < 0.0:
            lo = max(lo, x)
        else:
            hi = min(hi, x)
        cand = None
        if info["c"] > 0.0:
            step = x - info["g"] / info["c"]
            if math.isfinite(step) and lo < step < hi:
                cand = step
        if cand is None:
            cand = 0.5 * (lo + hi)
        x = cand
        info = probe(x)
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            return x, info, trace
    raise RuntimeError("calibration optimizer did not converge")


# ---------------------------------------------------------------------------
# Tilted models.
# ---------------------------------------------------------------------------


class _GlobalTiltProblem:
    """The M**T lattice vectors of a sequence-level tilt, and its formulas.

    Holds log B(w), f(w) and, when fitting, log P_true(w), all in
    lexicographic order.  It is the one place that computes the tilted
    log-probabilities alpha f + log B - log Z_alpha, the tilted feature
    moments and the objective CE(truth || B_alpha) with its derivatives.
    """

    def __init__(self, lp_base: np.ndarray, fv: np.ndarray, T: int, lp_true: np.ndarray | None = None):
        self.lp_base = lp_base
        self.fv = fv
        self.T = T
        self.lp_true = lp_true
        if lp_true is not None:
            pw_true = np.exp(lp_true)
            mask = pw_true > 0.0
            if np.any(np.isneginf(lp_base[mask])):
                raise CalibrationDivergenceError(
                    "base assigns zero probability on the truth's support; the "
                    "objective is infinite for every alpha"
                )
            self.mu_target = float(np.dot(pw_true, np.where(mask, fv, 0.0)))
            self.ce_base_term = -float(np.dot(pw_true[mask], lp_base[mask]))

    @classmethod
    def build(cls, base, f, budget=None, truth=None) -> "_GlobalTiltProblem":
        """One lattice walk per distinct model: base, f's model, truth."""
        if truth is not None and truth.spec != base.spec:
            raise ValueError("models must share the same sequence spec")
        lp_base = sequence_log_probs(base, budget)
        fv = f._on_lattice(base, lp_base, budget)
        lp_true = None
        if truth is not None:
            lp_true = lp_base if truth is base else sequence_log_probs(truth, budget)
        return cls(lp_base, fv, base.spec.T, lp_true)

    def tilt(self, alpha: float) -> tuple[np.ndarray, float]:
        """(log B_alpha(w) for every sequence, log Z_alpha)."""
        weights = alpha * self.fv + self.lp_base
        log_z = float(logsumexp(weights))
        return weights - log_z, log_z

    def moments(self, alpha: float) -> tuple[float, float, float]:
        """(mean, variance) of f under B_alpha, and log Z_alpha."""
        log_p, log_z = self.tilt(alpha)
        pt = np.exp(log_p)
        mu = float(np.dot(pt, self.fv))
        return mu, float(np.dot(pt, (self.fv - mu) ** 2)), log_z

    def evaluate(self, alpha: float) -> dict:
        """Objective, gradient (mean mismatch / T) and curvature (variance / T)."""
        mu, var, log_z = self.moments(alpha)
        obj = (self.ce_base_term - alpha * self.mu_target + log_z) / self.T
        return {"g": (mu - self.mu_target) / self.T, "c": var / self.T, "obj": obj, "mu": mu, "var": var}


class GlobalTiltModel(ConditionalModel):
    """Sequence-level tilt: P_a(w) = exp(a f(w)) B(w) / Z_a.

    The tilt does not factor across steps, so construction enumerates
    the full sequence distribution (budget-guarded) and precomputes a
    pyramid of prefix marginals; the state is the prefix's lexicographic
    code, and its rows are exact ratios of adjacent pyramid levels.  Contexts with zero probability under the
    tilt get a uniform row; they are unreachable.  A fit passes the
    lattice problem it already built as `_problem`; otherwise the model
    builds the same problem itself.
    """

    kind = "global_tilt"

    def __init__(
        self,
        base: ConditionalModel,
        f: FunctionalF,
        alpha: float,
        budget: EnumerationBudget | None = None,
        *,
        _problem: _GlobalTiltProblem | None = None,
    ):
        super().__init__(base.spec)
        self.base = base
        self.f = f
        self.alpha = float(alpha)
        problem = _problem if _problem is not None else _GlobalTiltProblem.build(base, f, budget)
        M, T = self.spec.M, self.spec.T
        levels = [None] * (T + 1)
        levels[T], _ = problem.tilt(self.alpha)
        for t in range(T - 1, -1, -1):
            levels[t] = logsumexp(levels[t + 1].reshape(-1, M), axis=1)
        self._levels = levels

    def init_state(self, n: int):
        # Step count and the lexicographic code of the whole prefix.
        return 0, np.zeros(n, dtype=np.int64)

    def advance(self, state, tokens):
        t, code = state
        return t + 1, code * self.spec.M + tokens

    def rows(self, state) -> np.ndarray:
        t, codes = state
        M = self.spec.M
        parents = self._levels[t][codes]
        children = self._levels[t + 1].reshape(-1, M)[codes]
        safe = np.isfinite(parents)
        out = np.full((codes.shape[0], M), 1.0 / M)
        out[safe] = np.exp(children[safe] - parents[safe, None])
        return out

    def params_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "f": _functional_to_doc(self.f),
            "base": model_to_dict(self.base),
        }


def _tilt_rows(base_rows: np.ndarray, feats: np.ndarray, alpha: float) -> np.ndarray:
    """(n, M) rows proportional to base_rows * exp(alpha * feats), by :func:`_tilt_columns`."""
    with np.errstate(divide="ignore"):
        log_rows = np.log(base_rows)
    return _tilt_columns(log_rows.T, feats.T, alpha)[0].T


def lookahead_entropy_vector(base: ConditionalModel, context) -> np.ndarray:
    """Entropy of the base's next conditional after appending each token.

    Entry j is H(B(. | context + [j])) in nats; at the final step (where
    no next conditional exists) every entry is 0.
    """
    tilt = LocalTiltModel(base, 0.0)
    return tilt._step(tilt._state_at(base._check_context(context)[None, :]))[1][0]


class LocalTiltModel(ConditionalModel):
    """Per-step lookahead-entropy tilt.

    Each conditional row of the base is reweighted by
    exp(a * H(next step | context + candidate)) and renormalized over
    the M candidates; the final step is untilted (feature 0).  Positive
    a favors candidates whose continuation has high entropy, negative a
    suppresses them.  The state is the base's state and the step count;
    the feature takes M one-step advances of the base.
    """

    kind = "local_tilt"

    def __init__(self, base: ConditionalModel, alpha: float):
        super().__init__(base.spec)
        self.base = base
        self.alpha = float(alpha)

    def init_state(self, n: int):
        return 0, self.base.init_state(n)

    def advance(self, state, tokens):
        t, base_state = state
        return t + 1, self.base.advance(base_state, tokens)

    def _step(self, state) -> tuple[np.ndarray, np.ndarray]:
        """The base rows at `state` and the lookahead entropy of every candidate."""
        t, base_state = state
        base_rows = self.base.rows(base_state)
        n, M = base_rows.shape
        feats = np.zeros((n, M))
        if t + 1 < self.spec.T:
            for j in range(M):
                ahead = self.base.advance(base_state, np.full(n, j, dtype=np.int64))
                feats[:, j] = row_entropies(self.base.rows(ahead))
        return base_rows, feats

    def rows(self, state) -> np.ndarray:
        t, base_state = state
        if self.alpha == 0.0 or t + 1 == self.spec.T:
            return self.base.rows(base_state)
        return _tilt_rows(*self._step(state), self.alpha)

    def _fit_extras(self, feats: np.ndarray) -> dict:
        return {}

    def params_dict(self) -> dict:
        return {"alpha": self.alpha, "base": model_to_dict(self.base)}


# ---------------------------------------------------------------------------
# Fitting.
# ---------------------------------------------------------------------------


def fit_alpha_global(
    true_model: ConditionalModel,
    base: ConditionalModel,
    f: FunctionalF,
    tolerance: float = 1e-10,
    budget: EnumerationBudget | None = None,
    provenance: dict | None = None,
) -> CalibrationResult:
    """Fit the sequence-level tilt exponent minimizing CE(truth || B_a).

    Exact mode: the objective, gradient (feature-mean mismatch / T) and
    curvature (tilted variance / T) are computed by enumeration.  At the
    returned optimum the tilted feature mean matches the truth's within
    T * tolerance.
    """
    problem = _GlobalTiltProblem.build(base, f, budget, truth=true_model)
    return _fit_global(problem, base, f, tolerance, provenance)


def _fit(problem, stop, mode, tolerance, base, f_descriptor, provenance, extras=None):
    """Minimize a tilt problem's objective and report the fit.

    `problem` is a :class:`_GlobalTiltProblem` or a
    :class:`_StepTiltProblem`: ``evaluate(alpha)`` gives the objective
    and its derivatives with the tilted feature moments, and
    ``mu_target`` is the target's feature mean.  `extras(info)`, given
    the optimum's probe, adds the fit's own entries to the shared ones.
    """
    alpha_star, info, trace = _minimize_convex(problem.evaluate, stop)
    at_zero = trace[0]  # the optimizer probes alpha = 0 first
    prov = dict(provenance or {})
    prov.setdefault("base_model_hash", _try_model_hash(base))
    return CalibrationResult(
        alpha_star=alpha_star,
        objective=info["obj"],
        baseline_objective=at_zero["obj"],
        gradient=info["g"],
        curvature=info["c"],
        mu_target=problem.mu_target,
        mu_tilted=info["mu"],
        mode=mode,
        tolerance=tolerance,
        n_iterations=len(trace),
        trace=[(i["alpha"], i["g"]) for i in trace],
        f_descriptor=f_descriptor,
        extras={
            "mu_base": at_zero["mu"],
            "sigma2_tilted_at_opt": info["var"],
            "sigma2_path_max": max(i["var"] for i in trace),
            **(extras(info) if extras is not None else {}),
        },
        provenance=prov,
    )


def _fit_global(problem, base, f, tolerance, provenance) -> CalibrationResult:
    """Fit a global problem; stop at |gradient| <= tolerance."""
    stop = lambda info: abs(info["g"]) <= tolerance  # noqa: E731
    return _fit(problem, stop, "exact", tolerance, base, f.descriptor(), provenance)


def tilted_variance_max(
    base: ConditionalModel,
    f: FunctionalF,
    alphas,
    budget: EnumerationBudget | None = None,
) -> float:
    """max over the given alphas of Var_{B_a}(f), by enumeration."""
    problem = _GlobalTiltProblem.build(base, f, budget)
    return max([0.0] + [problem.moments(a)[1] for a in np.asarray(alphas, dtype=float)])


def calibrate_entropy_rate(
    true_model: ConditionalModel,
    base: ConditionalModel,
    epsilon: float,
    tolerance: float = 1e-10,
    budget: EnumerationBudget | None = None,
    provenance: dict | None = None,
) -> tuple[GlobalTiltModel, CalibrationResult]:
    """Entropy-rate calibration via powering up the mixture-floored base.

    The base is first floored by the epsilon-mixture with uniform, then
    globally tilted with f = log of the floored model, so the family is
    the floored base to the power (1 + a) renormalized.  At the optimum
    the cross entropy against the truth equals the tilted model's own
    entropy rate.  `epsilon` is the caller's regret estimate for the
    base; the measured regret KL(truth || floored base)/T is reported
    alongside for bound checks.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    M, T = base.spec.M, base.spec.T
    mixture = MixtureModel(base, epsilon)
    f = FunctionalF.log_prob(mixture, bound=T * math.log(M) + math.log(1.0 / epsilon))
    problem = _GlobalTiltProblem.build(mixture, f, budget, truth=true_model)
    result = _fit_global(problem, mixture, f, tolerance, provenance)
    result.extras["epsilon"] = float(epsilon)
    result.extras["measured_epsilon"] = _kl_from_log_probs(problem.lp_true, problem.lp_base) / T
    model = GlobalTiltModel(mixture, f, result.alpha_star, budget, _problem=problem)
    return model, result


# -- per-step tilts ----------------------------------------------------------


def _sum_columns(x: np.ndarray) -> np.ndarray:
    """Sum an (M, n) array over axis 0, adding each column as numpy adds a row.

    numpy adds a row of fewer than 8 entries left to right, which is
    what an axis-0 pass does elementwise; a longer row it adds pairwise,
    so for M >= 8 the sum goes through the row layout.
    """
    if x.shape[0] < 8:
        return x.sum(axis=0)
    return np.ascontiguousarray(x.T).sum(axis=1)


def _tilt_columns(log_rows: np.ndarray, feats: np.ndarray, alpha: float):
    """Rows proportional to exp(log_rows + alpha * feats), and their log Z.

    The one tilt formula.  Both arguments and the returned rows are
    (M, n), column i being context i; the result keeps the memory order
    of the arguments, so the transpose of (n, M) rows tilts them in
    their own layout (:func:`_tilt_rows`).
    """
    logits = alpha * feats
    logits += log_rows
    shift = logits.max(axis=0)
    shift[~np.isfinite(shift)] = 0.0
    rows = logits - shift
    np.exp(rows, out=rows)
    with np.errstate(divide="ignore"):
        log_z = np.log(_sum_columns(rows))
    log_z += shift
    np.subtract(logits, log_z, out=rows)
    return np.exp(rows, out=rows), log_z


class _StepTiltProblem:
    """Flattened (step, context) data for fitting a shared per-step exponent.

    The N contexts of all steps are columns: ``log_rows`` (the log base
    conditional) and ``feats`` (the per-candidate feature, zeroed on
    inactive steps, so those steps stay untilted and only add constants)
    are C-contiguous (M, N) arrays, so every per-context reduction of a
    probe is an elementwise pass over M rows of length N, bitwise the
    row-layout one (:func:`_sum_columns`).  Beside them: the context
    weights, the column span of each step, and the target feature
    moments -- either exact conditional means under the truth or
    realized values from samples.
    """

    def __init__(self, tilt, active, weights, log_rows, feats, spans, target_feat_sum, xent_sum,
                 n_seqs=None, obs_feats=None):
        self.tilt = tilt
        self.active = active
        self.weights = weights
        self.log_rows = log_rows
        self.feats = feats
        self.spans = spans  # {t: slice of step t's columns}
        self.target_feat_sum = target_feat_sum
        self.xent_sum = xent_sum
        self.T = tilt.spec.T
        self.mu_target = target_feat_sum / self.T
        self.n_seqs = n_seqs
        self.obs_feats = obs_feats  # (T, n) realized features, sample mode only

    def evaluate(self, alpha: float) -> dict:
        rows, log_z = _tilt_columns(self.log_rows, self.feats, alpha)
        m = _sum_columns(rows * self.feats)
        dev = self.feats - m
        dev *= dev
        dev *= rows
        var = _sum_columns(dev)
        g = (float(np.dot(self.weights, m)) - self.target_feat_sum) / self.T
        c = float(np.dot(self.weights, var)) / self.T
        obj = (
            self.xent_sum - alpha * self.target_feat_sum + float(np.dot(self.weights, log_z))
        ) / self.T
        info = {
            "g": g,
            "c": c,
            "obj": obj,
            "mu": float(np.dot(self.weights, m)) / self.T,
            "var": c * self.T,
        }
        if self.obs_feats is not None:
            per_seq = (
                m.reshape(self.T, self.n_seqs) - self.obs_feats
            ).sum(axis=0) / self.T
            info["g_stderr"] = float(per_seq.std(ddof=1) / math.sqrt(self.n_seqs))
        return info

    def extras(self, info: dict) -> dict:
        """The fit report's own entries, given the optimum's probe."""
        out = {"active_steps": sorted(self.active), **self.tilt._fit_extras(self.feats)}
        if self.n_seqs is not None:
            out.update(gradient_stderr=info["g_stderr"], n_sequences=self.n_seqs)
        return out

    def tilted_rows(self, alpha: float, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Step t's context weights and its (n, M) rows tilted by alpha.

        The rows are bitwise the tilt model's rows at alpha on an active
        step: both are :func:`_tilt_columns` of the same base rows and
        features.
        """
        span = self.spans[t]
        rows, _ = _tilt_columns(self.log_rows[:, span], self.feats[:, span], alpha)
        return self.weights[span], np.ascontiguousarray(rows.T)


def _columns(parts) -> np.ndarray:
    """The (n_i, M) parts stacked as one C-contiguous (M, sum n_i) array."""
    out = np.empty((parts[0].shape[1], sum(p.shape[0] for p in parts)))
    return np.concatenate([p.T for p in parts], axis=1, out=out)


def _step_problem(target, tilt, active_steps=None, budget=None, min_samples=1000, observe=None):
    """The per-step problem of `tilt` against a truth model or samples.

    Walks ``prefix_expansion(target, budget, tilt)`` (exact) or
    ``sample_expansion(target, tilt)`` (sample-average over the n
    sequences) once, reading the base rows and the feature from
    ``tilt._step``.  `observe`, if given, wraps the walk, so a caller
    can read each level as it passes.  In sample mode the target's rows
    are the realised tokens, so its per-context feature means are the
    realised features; they are kept for the gradient's standard error.
    """
    T = tilt.spec.T
    active = frozenset(active_steps) if active_steps is not None else frozenset(range(1, T + 1))
    if not active or not active.issubset(range(1, T + 1)):
        raise ValueError("active_steps must be a nonempty subset of 1..T")
    if isinstance(target, ConditionalModel):
        if target.spec != tilt.spec:
            raise ValueError("models must share the same sequence spec")
        n_seqs = None
        walk = prefix_expansion(target, budget, tilt)
    else:
        n_seqs = check_samples(target, tilt.spec).shape[0]
        if n_seqs < min_samples:
            raise ValueError(f"sample mode needs at least {min_samples} sequences, got {n_seqs}")
        walk = sample_expansion(target, tilt)
    if observe is not None:
        walk = observe(walk)

    w_parts, lr_parts, f_parts, obs = [], [], [], []
    spans = {}
    start = 0
    target_sum = 0.0
    xent_sum = 0.0
    for t, states, weights, true_rows in walk:
        base_rows, feats = tilt._step(states[-1])
        with np.errstate(divide="ignore"):
            log_rows = np.log(base_rows)
        support = (weights[:, None] * true_rows) > 0.0
        if np.any(support & np.isneginf(log_rows)):
            raise CalibrationDivergenceError(
                "base assigns zero probability on the target's support; the "
                "objective is infinite for every alpha"
            )
        if t not in active:
            feats = np.zeros_like(base_rows)
        with np.errstate(invalid="ignore"):  # 0 * -inf off the support
            xent_terms = np.where(support, true_rows * log_rows, 0.0)
        xent_sum += -float(np.dot(weights, xent_terms.sum(axis=1)))
        target_feats = (true_rows * feats).sum(axis=1)
        target_sum += float(np.dot(weights, target_feats))
        spans[t] = slice(start, start + weights.shape[0])
        start += weights.shape[0]
        w_parts.append(weights)
        lr_parts.append(log_rows)
        f_parts.append(feats)
        if n_seqs is not None:
            obs.append(target_feats)
    # Built after the walk, whose last level is its largest, and one at
    # a time, so neither the walk's states nor two sets of parts are
    # alive beside a column array.
    log_rows = _columns(lr_parts)
    del lr_parts
    feats = _columns(f_parts)
    del f_parts
    return _StepTiltProblem(
        tilt,
        active,
        np.concatenate(w_parts),
        log_rows,
        feats,
        spans,
        target_sum,
        xent_sum,
        n_seqs=n_seqs,
        obs_feats=None if n_seqs is None else np.array(obs),
    )


def _fit_step(problem, tolerance, f_descriptor=None, provenance=None) -> CalibrationResult:
    """Fit the shared exponent of a per-step problem.

    Stops at |gradient| <= tolerance (exact) or at |gradient| <= 0.1 *
    stderr(gradient) (sample-average).
    """
    exact = problem.n_seqs is None
    stop = lambda i: abs(i["g"]) <= (tolerance if exact else max(0.1 * i["g_stderr"], 1e-13))  # noqa: E731
    return _fit(problem, stop, "exact" if exact else "sample-average", tolerance, problem.tilt.base,
                dict(f_descriptor or {}), provenance, problem.extras)


def fit_per_step_tilt(
    target,
    tilt: ConditionalModel,
    active_steps=None,
    tolerance: float = 1e-10,
    budget: EnumerationBudget | None = None,
    min_samples: int = 1000,
    f_descriptor: dict | None = None,
    provenance: dict | None = None,
) -> CalibrationResult:
    """Fit a shared per-step tilt exponent against a truth model or samples.

    `tilt` is a per-step tilt model (:class:`LocalTiltModel`,
    :class:`seqcal.memory.MemoryTiltModel`); the fit reads the base rows
    and the per-candidate feature from its own step, ``tilt._step``, and
    ignores its exponent.  Steps outside `active_steps` stay untilted.
    With a ConditionalModel target the fit is exact (stop at |gradient|
    <= tolerance); with an (n, T) sample array it is the same fit under
    the sample's empirical distribution (stop at |gradient| <= 0.1 *
    stderr(gradient)).
    """
    problem = _step_problem(target, tilt, active_steps, budget, min_samples)
    return _fit_step(problem, tolerance, f_descriptor, provenance)


def fit_alpha_local(
    target,
    base: ConditionalModel,
    tolerance: float = 1e-10,
    budget: EnumerationBudget | None = None,
    min_samples: int = 1000,
    provenance: dict | None = None,
) -> tuple[LocalTiltModel, CalibrationResult]:
    """Fit the one-step-lookahead tilt exponent.

    `target` is either the true model (exact mode, enumeration) or an
    (n, T) array of sequences drawn from it (sample-average mode).
    """
    result = fit_per_step_tilt(
        target,
        LocalTiltModel(base, 0.0),
        tolerance=tolerance,
        budget=budget,
        min_samples=min_samples,
        f_descriptor={"kind": "lookahead_entropy"},
        provenance=provenance,
    )
    return LocalTiltModel(base, result.alpha_star), result


# ---------------------------------------------------------------------------
# Closed-form amplification bounds for a mixture-floored near-optimal model.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmplificationBound:
    """Worst-case bounds under a per-token regret of epsilon.

    ``mixture_kl_bound`` caps the per-token divergence from the truth
    after epsilon-mixing with uniform; ``generation_gap_bound`` caps the
    gap between the mixed model's cross entropy on real data and the
    entropy rate of its own generations.
    """

    epsilon: float
    T: int
    M: int
    mixture_kl_bound: float
    generation_gap_bound: float

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "T": self.T,
            "M": self.M,
            "mixture_kl_bound": self.mixture_kl_bound,
            "generation_gap_bound": self.generation_gap_bound,
        }


def amplification_bound(epsilon: float, T: int, M: int) -> AmplificationBound:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    mixture_kl = (1.0 + 1.0 / T) * epsilon
    gap = math.sqrt(2.0 * epsilon * (T + 1)) * (
        math.log(M) + math.log(1.0 / epsilon) / T
    )
    return AmplificationBound(
        epsilon=float(epsilon),
        T=int(T),
        M=int(M),
        mixture_kl_bound=mixture_kl,
        generation_gap_bound=gap,
    )


# ---------------------------------------------------------------------------
# Serialization hooks.
# ---------------------------------------------------------------------------


def _functional_to_doc(f: FunctionalF) -> dict:
    if f.kind == "table":
        return {"kind": "table", "bound": f.bound, "values": f.table.tolist()}
    return {"kind": f.kind, "bound": f.bound, "p_min": f.p_min, "model": model_to_dict(f.model)}


def _global_tilt_from_params(spec, params) -> GlobalTiltModel:
    base = model_from_dict(params["base"])
    doc = params["f"]
    kind = doc["kind"]
    if kind == "table":
        f = FunctionalF.from_table(doc["values"], spec, bound=doc.get("bound"))
    elif kind in ("log_prob", "neg_log_prob"):
        # A functional scoring with the base itself shares its object, so
        # the rebuilt tilt walks the base's lattice once, as the fit did.
        model = base if doc["model"] == params["base"] else model_from_dict(doc["model"])
        f = FunctionalF(kind, model=model, bound=doc.get("bound"), p_min=doc.get("p_min", 1e-300))
    else:
        raise ValueError(f"unknown functional kind {kind!r}")
    return GlobalTiltModel(base, f, params["alpha"])


register_model_kind("global_tilt", _global_tilt_from_params)
register_model_kind(
    "local_tilt",
    lambda spec, params: LocalTiltModel(model_from_dict(params["base"]), params["alpha"]),
)
