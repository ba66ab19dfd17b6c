"""One-parameter exponential-tilt calibration.

Two tilt families around a base model B:

* sequence-level (global):   B_a(w)        prop. exp(a f(w)) B(w)
* per-step (local):          B_a(w_t|w_<t) prop. B(w_t|w_<t) exp(a F_t(w_<=t))

Fitting minimizes CE(target || B_a) over the scalar a.  The objective is
convex: its derivative is the feature-mean mismatch between the tilted
model and the target, and its second derivative is the tilted feature
variance divided by T.  The optimizer is Newton's method on these exact
derivatives, started at a = 0 and kept inside the bracket its probes'
gradient signs give: it bisects a closed bracket when Newton's step
leaves it, and doubles |a| outward (by at least 1) while the bracket is
open and Newton's steps stop shrinking.  At the optimum the tilted model
matches the target's feature mean, which is the calibration property
everything else builds on.

The entropy-rate calibration specializes the global tilt to
f = log of the uniform-mixture-floored base, so the tilted family is the
floored base raised to the power (1 + a), renormalized.  The local
variant tilts each conditional by the one-step-lookahead entropy of the
base after appending the candidate token; the lookahead feature is 0 at
the final step, where no next step exists.

A per-step fit takes the tilt model as its only specification (rows,
problem build, fitted steps, descriptor) and returns it at the fitted
exponent, so the report describes the returned model.  It has an exact
and a sample-average mode.  The sample mode is the exact routine run on
:func:`seqcal.exact.sample_expansion`, the lattice of the sample's
empirical distribution, instead of the truth's blocked
:func:`seqcal.exact.prefix_expansion`, in the same pieces.

Every per-context sum and log-partition, the global tilt's prefix
pyramid included, is a short-axis kernel of :mod:`seqcal.models`.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import exact
from .exact import (
    EnumerationBudget,
    FunctionalF,
    _dot,
    _log_prob_blocks,
    _support_fsum,
    prefix_expansion,
    sample_expansion,
    sequence_log_probs,
)
from .models import (
    ConditionalModel,
    MixtureModel,
    _append_code,
    _dot_columns,
    _finite,
    _logsumexp_columns,
    _sum_columns,
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
    (alpha, gradient) probe of the optimizer in order, from alpha = 0 to
    alpha_star; ``n_iterations`` is their number.
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
        return asdict(self)


def _minimize_convex(evaluate, stop):
    """Newton's method for a convex 1-d objective given by its derivatives.

    `evaluate(x)` returns a dict with at least ``g`` (gradient) and ``c``
    (curvature >= 0); `stop(info)` is checked on every probe.  Probes
    start at x = 0, and each becomes the lower end of the bracket
    [lo, hi] if its gradient is negative, else the upper end; both ends
    start open.  A closed bracket takes Newton's step if it lands
    strictly inside, else bisects.  An open bracket takes Newton's step
    while it is under half the previous one and under max(|x|, 1), else
    moves x outward by max(|x|, 1): plain Newton crawls on a saturating
    tail, where g / c stays constant.  The loop also returns once
    Newton's step or the next step is at most 1e-15 * max(|x|, 1), as
    close as double precision resolves.  A gradient of one sign past
    |x| = 2**61 means no finite minimizer.  Returns the last probe's x
    and info, and the info of every probe in order.
    """
    trace = []
    lo, hi = -math.inf, math.inf
    x, newton_prev = 0.0, math.inf
    for _ in range(300):
        if abs(x) > 2.0**61:
            raise CalibrationDivergenceError(
                f"objective keeps decreasing toward alpha = {'+' if x > 0 else '-'}inf; "
                "no finite minimizer"
            )
        info = dict(evaluate(x))
        info["alpha"] = x
        trace.append(info)
        if stop(info):
            return x, info, trace
        g, c = info["g"], info["c"]
        if g < 0.0:
            lo = x
        else:
            hi = x
        newton = x - g / c if c > 0.0 else math.inf
        if math.isfinite(hi - lo):
            nxt = newton if lo < newton < hi else 0.5 * (lo + hi)
        else:
            step = max(abs(x), 1.0)
            if abs(newton - x) < min(0.5 * newton_prev, step):
                nxt = newton
            else:
                nxt = x + step if g < 0.0 else x - step
        if min(abs(newton - x), abs(nxt - x)) <= 1e-15 * max(1.0, abs(x)):
            return x, info, trace
        newton_prev, x = abs(newton - x), nxt
    raise RuntimeError("calibration optimizer did not converge")


# ---------------------------------------------------------------------------
# Tilted models.
# ---------------------------------------------------------------------------


class _GlobalTiltProblem:
    """The M**T lattice vectors of a sequence-level tilt, and its formulas.

    Holds log B(w) and f(w) in lexicographic order (one vector when f is
    log B).  It is the one place that computes the tilted
    log-probabilities alpha f + log B - log Z_alpha (:meth:`tilt`), the
    tilted feature moments and the objective CE(truth || B_alpha) with
    its derivatives.  A probe (:meth:`moments`) and :meth:`tilt` run over
    blocks of `_FSUM_BLOCK` values, so neither builds a lattice-sized
    array.  When fitting, log P_true(w), a vector or the stream of its
    blocks (:func:`seqcal.exact._log_prob_blocks`), goes through one
    pass over the truth's support that sums the target moments and
    ``kl``, KL(truth || B); it is not kept.
    """

    def __init__(self, lp_base: np.ndarray, fv: np.ndarray, T: int, lp_true=None):
        self.lp_base = lp_base
        self.fv = fv
        self.T = T
        if lp_true is not None:
            # Correctly rounded sums over the truth's support, with no
            # masked copies: p log B, p f (the same sum when f is log B)
            # and p (log P_true - log B).  A -inf of log B there makes the
            # first infinite.
            xs = (lp_base,) if fv is lp_base else (lp_base, fv)
            ce_base, *mu, self.kl = _support_fsum(lp_true, *xs, (None, lp_base))
            self.mu_target = mu[0] if mu else ce_base
            self.ce_base_term = -ce_base
            if self.ce_base_term == math.inf:
                raise CalibrationDivergenceError(
                    "base assigns zero probability on the truth's support; the "
                    "objective is infinite for every alpha"
                )
        # A probe's buffer, allocated once the sums' blocks are released:
        # one block of weights and one of squared deviations.
        self._buf = np.empty((2, min(fv.shape[0], exact._FSUM_BLOCK)))

    @classmethod
    def build(cls, base, f, budget=None, truth=None) -> "_GlobalTiltProblem":
        """One lattice walk per distinct model: base, f's model, truth (streamed)."""
        if truth is not None and truth.spec != base.spec:
            raise ValueError("models must share the same sequence spec")
        lp_base = sequence_log_probs(base, budget)
        fv = f._on_lattice(base, lp_base, budget)
        lp_true = None
        if truth is not None:
            lp_true = lp_base if truth is base else _log_prob_blocks(truth, budget)
        return cls(lp_base, fv, base.spec.T, lp_true)

    def tilt(self, alpha: float):
        """Yield (lo, log B_alpha(w) of sequences lo, lo+1, ...), one block at a time.

        Each entry is alpha f + log B - log Z_alpha, with :meth:`moments`'
        blocked log Z, the one the fit's objective reads.  A block is a
        fresh array; `fv` may be `lp_base` itself, so neither is written.
        """
        log_z = self.moments(alpha)[2]
        for lo in range(0, self.fv.shape[0], exact._FSUM_BLOCK):
            log_p = np.multiply(self.fv[lo:lo + exact._FSUM_BLOCK], alpha)
            log_p += self.lp_base[lo:lo + log_p.shape[0]]
            log_p -= log_z
            yield lo, log_p

    def moments(self, alpha: float) -> tuple[float, float, float]:
        """(mean, variance) of f under B_alpha, and log Z_alpha, in one blocked pass.

        Block b of x = alpha f + log B gives its max m_b, its sum s_b of
        exp(x - m_b), and the mean and M2 (the sum of exp(x - m_b)
        (f - mean_b)**2) of f under those weights.  The blocks are merged
        by their weights exp(m_b - max m) s_b: log Z, the mean, and the
        variance by Chan, Golub and LeVeque's parallel formula, the
        rescaled M2s plus the between-block term.  A block with no mass
        adds nothing.
        """
        buf, dev = self._buf
        stats = []
        for lo in range(0, self.fv.shape[0], exact._FSUM_BLOCK):
            f = self.fv[lo:lo + exact._FSUM_BLOCK]
            n = f.shape[0]
            x = np.multiply(f, alpha, out=buf[:n])
            x += self.lp_base[lo:lo + n]
            top = x.max()
            if top == -math.inf:
                continue
            x -= top
            e = np.exp(x, out=x)
            s = e.sum()
            mean = _dot(e, f) / s
            d = np.subtract(f, mean, out=dev[:n])
            d *= d
            stats.append((top, s, mean, _dot(e, d)))
        top, s, mean, m2 = np.array(stats).T
        peak = top.max()
        scale = np.exp(top - peak)
        w = scale * s
        total = w.sum()
        mu = _dot(w, mean) / total
        between = mean - mu
        between *= between
        var = (_dot(scale, m2) + _dot(w, between)) / total
        return float(mu), float(var), float(peak + math.log(total))

    def evaluate(self, alpha: float) -> dict:
        """Objective, gradient (mean mismatch / T) and curvature (variance / T)."""
        mu, var, log_z = self.moments(alpha)
        obj = (self.ce_base_term - alpha * self.mu_target + log_z) / self.T
        return {"g": (mu - self.mu_target) / self.T, "c": var / self.T, "obj": obj, "mu": mu, "var": var}


class GlobalTiltModel(ConditionalModel):
    """Sequence-level tilt: P_a(w) = exp(a f(w)) B(w) / Z_a.

    The tilt does not factor across steps, so construction enumerates
    the base's sequence distribution (budget-guarded) into its lattice
    problem.  The first read of its rows builds the tilted sequence
    log-probabilities (:meth:`_GlobalTiltProblem.tilt`) and a pyramid of
    prefix marginals over them; the state is the prefix's lexicographic
    code, and its rows are exact ratios of adjacent pyramid levels.
    Contexts with zero probability under the tilt get a uniform row;
    they are unreachable.  A fit passes the lattice problem it already
    built as `_problem`; otherwise the model builds the same problem
    itself.
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
        self.alpha = _finite(float(alpha), "alpha")
        self._problem = _problem if _problem is not None else _GlobalTiltProblem.build(base, f, budget)

    @functools.cached_property
    def _levels(self) -> list[np.ndarray]:
        """Level t: the tilted log-probability of every length-t prefix, t = 0..T."""
        M, T = self.spec.M, self.spec.T
        levels = [None] * (T + 1)
        levels[T] = np.empty(M**T)
        for lo, log_p in self._problem.tilt(self.alpha):
            levels[T][lo:lo + log_p.shape[0]] = log_p
        # Each level is built from blocks of its children, so the blocks'
        # temporaries stay small.
        step = max(1, exact._TAIL_BLOCK // M)
        for t in range(T - 1, -1, -1):
            children = levels[t + 1].reshape(-1, M)
            levels[t] = np.empty(M**t)
            for lo in range(0, M**t, step):
                levels[t][lo:lo + step] = _logsumexp_columns(children[lo:lo + step].T)
        return levels

    def init_state(self, n: int):
        # Step count and the lexicographic code of the whole prefix.
        return 0, np.zeros(n, dtype=np.int64)

    def advance(self, state, tokens):
        t, code = state
        return t + 1, _append_code(code, tokens, self.spec.M)

    def rows(self, state) -> np.ndarray:
        t, codes = state
        M = self.spec.M
        parents = np.take(self._levels[t], codes)
        children = np.take(self._levels[t + 1].reshape(-1, M), codes, axis=0)
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
    """(n, M) rows proportional to base_rows * exp(alpha * feats), by :func:`_tilt_columns` of their transposes."""
    return _tilt_columns(base_rows.T, feats.T, _tilt_factors(feats.T, alpha), alpha).T


class LocalTiltModel(ConditionalModel):
    """Per-step lookahead-entropy tilt.

    Each conditional row of the base is reweighted by
    exp(a * H(next step | context + candidate)) and renormalized over
    the M candidates; the final step is untilted (feature 0).  Positive
    a favors candidates whose continuation has high entropy, negative a
    suppresses them.  The state is the base's state and the step count;
    one lattice step of the base gives its rows and the children whose
    rows the feature reads, child ``i*M + j`` being context i followed
    by candidate j.
    """

    kind = "local_tilt"
    active_steps = None

    def __init__(self, base: ConditionalModel, alpha: float):
        super().__init__(base.spec)
        self.base = base
        self.alpha = _finite(float(alpha), "alpha")

    def init_state(self, n: int):
        return 0, self.base.init_state(n)

    def advance(self, state, tokens):
        t, base_state = state
        return t + 1, self.base.advance(base_state, tokens)

    def _step(self, state) -> tuple[np.ndarray, np.ndarray]:
        """The base rows at `state` and the lookahead entropy of every candidate."""
        t, base_state = state
        if t + 1 == self.spec.T:
            base_rows = self.base.rows(base_state)
            return base_rows, np.zeros(base_rows.shape)
        return self._lookahead(base_state)[:2]

    def _lookahead(self, base_state):
        """One lattice step of the base: its rows, each candidate's feature, the children and their rows."""
        base_rows, children = self.base.step(base_state, None)
        child_rows = self.base.rows(children)
        return base_rows, row_entropies(child_rows).reshape(base_rows.shape), children, child_rows

    def rows(self, state) -> np.ndarray:
        t, base_state = state
        if self.alpha == 0.0 or t + 1 == self.spec.T:
            return self.base.rows(base_state)
        return _tilt_rows(*self._step(state), self.alpha)

    def step(self, state, tokens):
        # A tilted lattice step's next state is its lookahead's children,
        # so the base steps once per level.
        t, base_state = state
        if tokens is not None or self.alpha == 0.0 or t + 1 == self.spec.T:
            return super().step(state, tokens)
        base_rows, feats, children, _ = self._lookahead(base_state)
        return _tilt_rows(base_rows, feats, self.alpha), (t + 1, children)

    def _problem(self, target, budget=None) -> "_StepTiltProblem":
        """The per-step problem of this tilt, each context's feature read off the walk; step T is folded."""
        T = self.spec.T
        exact_mode = isinstance(target, ConditionalModel)
        base = _LookaheadWalk(self.base)
        pieces = prefix_expansion(target, budget, base) if exact_mode else sample_expansion(target, base)
        walk = _StepTiltProblem(target, self.spec, range(1, T))
        feats = {t: np.empty_like(rows) for t, rows in walk.rows.items()}
        target_feats = np.zeros(walk.weights.shape[0])

        def read(cols, t, lo, states, weights, true_rows):
            base_rows, f = base._step(states[-1])
            if t in feats:
                feats[t][:, lo:lo + f.shape[0]] = f.T
                target_feats[cols] = _sum_columns((true_rows * f).T)
            return base_rows

        walk.run(pieces, read)
        target_feat_sum = 0.0
        for span in walk.spans.values():
            target_feat_sum += _dot(walk.weights[span], target_feats[span])
        obs_feats = None if walk.n_seqs is None else target_feats.reshape(T, walk.n_seqs)
        return walk.tilted_by(self, feats, target_feat_sum, obs_feats)

    def _descriptor(self) -> dict:
        return {"kind": "lookahead_entropy"}

    def _with_alpha(self, alpha: float) -> "LocalTiltModel":
        return LocalTiltModel(self.base, alpha)

    def params_dict(self) -> dict:
        return {"alpha": self.alpha, "base": model_to_dict(self.base)}


class _LookaheadWalk(LocalTiltModel):
    """The untilted local tilt that a problem build walks beside its target.

    On the lattice its advance takes the children of the lookahead just
    read at the same state, as a tilted lattice step does, and the last
    level's rows are that lookahead's rows of them: the base steps once
    per level and reads each level's rows once.
    """

    def __init__(self, base: ConditionalModel):
        super().__init__(base, 0.0)
        self._read = None  # the last lookahead's base state, children and their rows

    def _lookahead(self, base_state):
        out = super()._lookahead(base_state)
        self._read = base_state, *out[2:]
        return out

    def advance(self, state, tokens):
        t, base_state = state
        if tokens is None and self._read is not None and self._read[0] is base_state:
            return t + 1, self._read[1]
        return super().advance(state, tokens)

    def _step(self, state):
        t, base_state = state
        if t + 1 == self.spec.T and self._read is not None and self._read[1] is base_state:
            return self._read[2], np.zeros(self._read[2].shape)
        return super()._step(state)


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
    result.extras["measured_epsilon"] = problem.kl / T
    model = GlobalTiltModel(mixture, f, result.alpha_star, budget, _problem=problem)
    return model, result


# -- per-step tilts ----------------------------------------------------------


# Sample mode's floor on the number of sequences of a per-step problem.
_MIN_SAMPLES = 1000

# A column whose |alpha| * (max f - min f) exceeds this is tilted in log
# space: its Z >= exp(-|alpha| * (max f - min f)) could underflow.
_TILT_RANGE = 2.0**9


def _tilt_factors(feats: np.ndarray, alpha: float):
    """(s, exp(alpha f - s) <= 1, log-space guard) of (M, P) features, s each column's max of alpha f.

    Each depends on its column's features and alpha only, so a table's serve every context reading it.
    """
    hi, lo = feats[0].copy(), feats[0].copy()
    for row in feats[1:]:
        np.maximum(hi, row, out=hi)
        np.minimum(lo, row, out=lo)
    top = np.multiply(hi if alpha >= 0.0 else lo, alpha)
    guard = np.multiply(np.subtract(hi, lo, out=hi), abs(alpha), out=hi) > _TILT_RANGE
    e = np.multiply(feats, alpha)
    for row in e:  # row by row, as numpy buffers a broadcast operand
        row -= top
    return top, np.exp(e, out=e), guard


def _tilt_columns(rows: np.ndarray, feats: np.ndarray, factors, alpha: float, out=None, work=None):
    """The one tilt formula: (M, n) base rows and features, column i context i, at alpha.

    With the features' `factors`, u = rows * exp(alpha f - s) is the tilted
    row up to its sum Z, and log Z + s the log-partition; a guarded column's
    u is exp(log rows + alpha f - s - k), k its max, which adds to its
    log-partition.  Returns the rows u / Z in the arguments' memory order,
    or writes each column's mean m = sum(u f) / Z, variance
    sum(u (f - m)**2) / Z and log-partition into `out`, using `work`.
    """
    shift, e, guard = factors
    # A block's own factors, not a tiled table's, take u in place.
    u = np.multiply(rows, e, out=e if e.base is None else None if work is None else work[0])
    if guard.any():
        shift = shift.copy()
        with np.errstate(divide="ignore"):
            x = np.log(rows[:, guard])
        x += alpha * feats[:, guard] - shift[guard]
        top = x.max(axis=0)
        u[:, guard] = np.exp(x - top)
        shift[guard] += top
    z = _sum_columns(u)
    if out is None:
        u /= z
        return u
    m, var, log_z = out
    np.log(z, out=log_z)
    log_z += shift
    np.divide(_dot_columns(u, feats), z, out=m)
    dev = np.subtract(feats, m, out=work[-1])
    u *= dev
    np.divide(_dot_columns(u, dev), z, out=var)


def _active_steps(tilt) -> frozenset:
    """The steps a per-step tilt fits: its ``active_steps``, or every step for None."""
    T = tilt.spec.T
    active = frozenset(range(1, T + 1)) if tilt.active_steps is None else tilt.active_steps
    if not active or not active.issubset(range(1, T + 1)):
        raise ValueError("active_steps must be a nonempty subset of 1..T")
    return active


class _StepTiltProblem:
    """The per-step problem of a tilt against a truth model or samples.

    One walk of the target, ``prefix_expansion`` (exact) or
    ``sample_expansion`` (sample-average over the n sequences), is read
    once by :meth:`run`.  The N contexts of all steps are columns, step
    t's in ``spans[t]``, with (N,) ``weights``; ``xent_sum`` is -sum of
    the target's mass times the log base rows, one dot product per step
    over its whole span.  A step of `tilted` keeps its base rows
    ``rows[t]``, C-contiguous (M, n_t) probabilities, any other only their
    log Z, ``log_z0[t]``; each piece writes its columns of arrays
    allocated before the walk.  :meth:`tilted_by` gives the problem of a
    tilt fitted on its ``active_steps`` (None for every step): a step with
    features keeps its rows and an (M, P_t) table ``feats[t]`` read at
    column c mod P_t; any other is folded, its feature identically 0, so
    only its log Z is kept and its probe moments are 0.  With the features
    come the target feature sum and, in sample mode, the (T, n) realized
    features for the gradient's standard error.  A probe exponentiates
    a periodic table once per step and writes each block of `_TAIL_BLOCK`
    values' moments (:func:`_tilt_columns`) into one (3, n_max) buffer
    that every probe reuses; each step's weighted sums are added in step
    order, so no result depends on the block size.
    """

    def __init__(self, target, spec, tilted):
        M, T = spec.M, spec.T
        if isinstance(target, ConditionalModel):
            if target.spec != spec:
                raise ValueError("models must share the same sequence spec")
            self.n_seqs = None
            sizes = [M ** (t - 1) for t in range(1, T + 1)]
        else:
            self.n_seqs = check_samples(target, spec).shape[0]
            if self.n_seqs < _MIN_SAMPLES:
                raise ValueError(f"sample mode needs at least {_MIN_SAMPLES} sequences, got {self.n_seqs}")
            sizes = [self.n_seqs] * T
        self.T = T
        ends = np.cumsum(sizes).tolist()
        self.spans = {t: slice(end - size, end) for t, size, end in zip(range(1, T + 1), sizes, ends)}
        self.rows = {t: np.empty((M, sizes[t - 1])) for t in sorted(tilted)}
        self.log_z0 = {t: np.empty(size) for t, size in zip(range(1, T + 1), sizes) if t not in self.rows}
        self.weights = np.empty(ends[-1])

    def run(self, pieces, read) -> None:
        """Read the walk's pieces; ``read(cols, *piece)`` gives a piece's base rows, `cols` its columns."""
        xent = np.empty(self.weights.shape[0])
        for t, lo, states, weights, true_rows in pieces:
            n = weights.shape[0]
            start = self.spans[t].start + lo
            cols = slice(start, start + n)
            base_rows = read(cols, t, lo, states, weights, true_rows)
            if t in self.rows:
                self.rows[t][:, lo:lo + n] = base_rows.T
            else:
                # Untilted at every alpha: the tilt's log Z at features 0.
                self.log_z0[t][lo:lo + n] = np.log(_sum_columns(base_rows.T))
            with np.errstate(divide="ignore", invalid="ignore"):  # 0 * -inf off the support
                terms = np.log(base_rows)
                terms *= true_rows
            del base_rows
            terms[(weights[:, None] * true_rows) <= 0.0] = 0.0
            xent[cols] = _sum_columns(terms.T)
            # A term is -inf exactly where the base has a zero on the support.
            if np.isneginf(xent[cols]).any():
                raise CalibrationDivergenceError(
                    "base assigns zero probability on the target's support; the "
                    "objective is infinite for every alpha"
                )
            self.weights[cols] = weights
            # Released before the walk grows the next piece.
            del states, weights, true_rows, terms
        self.xent_sum = 0.0
        for span in self.spans.values():
            self.xent_sum += -_dot(self.weights[span], xent[span])
        del xent
        # Every probe's per-context moments, step by step, once the walk's
        # blocks are released; copies share it with every problem of this walk.
        self._moments = np.empty((3, max(span.stop - span.start for span in self.spans.values())))

    def tilted_by(self, tilt, feats, target_feat_sum, obs_feats=None, extras=None) -> "_StepTiltProblem":
        """The problem of `tilt` with these features, sharing this walk's arrays; `extras` join its fit report."""
        problem = copy.copy(self)
        problem.tilt, problem.active, problem.feats = tilt, _active_steps(tilt), feats
        problem.rows = {t: self.rows[t] for t in feats}
        problem.log_z0 = {t: self.log_z0[t] if t in self.log_z0 else np.log(_sum_columns(self.rows[t]))
                          for t in self.spans if t not in feats}
        problem.target_feat_sum, problem.mu_target = target_feat_sum, target_feat_sum / self.T
        problem.obs_feats = obs_feats  # sample mode: the (T, n) realized features
        problem.fit_extras = extras or {}
        return problem

    def _blocks(self, t: int, alpha: float, unit: int = 1, scratch: bool = False, tiles=None):
        """Yield (lo, base rows, features, tilt factors, work) of tilted step t's contexts lo.., in blocks.

        A block is a multiple of `unit` contexts and of a periodic table's
        width, about `_TAIL_BLOCK` values.  A table and its factors are tiled
        once into one block, kept in `tiles` (if given) for the other steps
        that read the same table; per-context factors are made per block.
        `scratch` asks for `work`.
        """
        rows, table = self.rows[t], self.feats[t]
        (M, n), P = rows.shape, table.shape[1]
        width = math.lcm(unit, P) if P < n else unit
        step = max(1, exact._TAIL_BLOCK // (M * width)) * width
        work = np.empty((1 + (P < n) if scratch else 0, M, min(step, n)))
        if P < n:
            tiled = {} if tiles is None else tiles
            key = id(table), step
            if key not in tiled:
                tiled[key] = [np.tile(x, step // P) for x in (table, *_tilt_factors(table, alpha))]
            tiled = tiled[key]
        for lo in range(0, n, step):
            cols = slice(lo, min(lo + step, n))
            if P < n:
                feats, *factors = [x[..., :cols.stop - lo] for x in tiled]
            else:
                feats, factors = table[:, cols], _tilt_factors(table[:, cols], alpha)
            yield lo, rows[:, cols], feats, factors, work[..., :cols.stop - lo]
            del feats, factors  # before the next block's are built

    def evaluate(self, alpha: float) -> dict:
        sums = [0.0, 0.0, 0.0]  # weights times each context's m, var and log Z
        per_seq = None if self.obs_feats is None else np.zeros(self.n_seqs)
        tiles = {}  # each periodic table's tiled features and factors at alpha
        for t, span in self.spans.items():
            weights = self.weights[span]
            if t in self.log_z0:  # a folded step's moments and realized features are 0; its log Z is kept
                sums[2] += _dot(weights, self.log_z0[t])
                continue
            moments = self._moments[:, :weights.shape[0]]
            for lo, rows, feats, factors, work in self._blocks(t, alpha, scratch=True, tiles=tiles):
                _tilt_columns(rows, feats, factors, alpha, moments[:, lo:lo + rows.shape[1]], work)
                del rows, feats, factors, work  # before the next block's are built
            for k in range(3):
                sums[k] += _dot(weights, moments[k])
            if per_seq is not None:
                per_seq += moments[0] - self.obs_feats[t - 1]
        c = sums[1] / self.T
        info = {
            "g": (sums[0] - self.target_feat_sum) / self.T,
            "c": c,
            "obj": (self.xent_sum - alpha * self.target_feat_sum + sums[2]) / self.T,
            "mu": sums[0] / self.T,
            "var": c * self.T,
        }
        if per_seq is not None:
            per_seq /= self.T
            info["g_stderr"] = float(per_seq.std(ddof=1) / math.sqrt(self.n_seqs))
        return info

    def extras(self, info: dict) -> dict:
        """The fit report's own entries, given the optimum's probe."""
        out = {"active_steps": sorted(self.active), **self.fit_extras}
        if self.n_seqs is not None:
            out.update(gradient_stderr=info["g_stderr"], n_sequences=self.n_seqs)
        return out

    def tilted_rows(self, alpha: float, t: int, unit: int, tiles=None):
        """Tilted step t's context weights and (M, n) rows tilted by alpha, in blocks.

        Each block is a multiple of `unit` contexts, about `_TAIL_BLOCK`
        values; the last one too if `unit` divides the step's context
        count.  The rows are bitwise the tilt model's rows at alpha on an
        active step: both are :func:`_tilt_columns` of the same base rows
        and features.  `tiles` is :meth:`_blocks`'.
        """
        weights = self.weights[self.spans[t]]
        for lo, rows, feats, factors, _ in self._blocks(t, alpha, unit, tiles=tiles):
            tilted = _tilt_columns(rows, feats, factors, alpha)
            del rows, feats, factors
            yield weights[lo:lo + tilted.shape[1]], tilted
            del tilted  # before the next block's are built

    def forward(self, alpha: float, first: int, last: int):
        """Yield (t, weights, (n, M) rows) of levels first..last of a walk seeded by the target, in blocks.

        Level `first` has the target's weights; from there the rows are a
        local tilt's at alpha, the kept base rows at alpha = 0 and
        :meth:`tilted_rows` else, and each next level's weights are
        multiplied out of them as a lattice walk does: context i's children
        get ``weights[i] * rows[i]``.  Every step first..last must be
        tilted; a block is about `_TAIL_BLOCK` values.
        """
        weights = self.weights[self.spans[first]]
        for t in range(first, last + 1):
            M, n = self.rows[t].shape
            if alpha == 0.0:
                step = max(1, exact._TAIL_BLOCK // M)
                blocks = (self.rows[t][:, lo:lo + step] for lo in range(0, n, step))
            else:
                blocks = (rows for _, rows in self.tilted_rows(alpha, t, 1))
            children = np.empty(n * M) if t < last else None
            lo = 0
            for rows in blocks:
                w, rows = weights[lo:lo + rows.shape[1]], rows.T
                yield t, w, rows
                if children is not None:
                    children[lo * M:(lo + w.shape[0]) * M] = (w[:, None] * rows).reshape(-1)
                lo += w.shape[0]
                del rows  # before the next block's are built
            weights = children


def _fit_step(problem, tolerance, provenance=None):
    """Fit the shared exponent of a per-step problem: (tilt at alpha*, result).

    Stops at |gradient| <= tolerance (exact) or at |gradient| <= 0.1 *
    stderr(gradient) (sample-average).
    """
    tilt = problem.tilt
    exact_mode = problem.n_seqs is None
    stop = lambda i: abs(i["g"]) <= (tolerance if exact_mode else max(0.1 * i["g_stderr"], 1e-13))  # noqa: E731
    result = _fit(problem, stop, "exact" if exact_mode else "sample-average", tolerance, tilt.base,
                  tilt._descriptor(), provenance, problem.extras)
    return tilt._with_alpha(result.alpha_star), result


def fit_per_step_tilt(
    target,
    tilt: ConditionalModel,
    tolerance: float = 1e-10,
    budget: EnumerationBudget | None = None,
    provenance: dict | None = None,
) -> tuple[ConditionalModel, CalibrationResult]:
    """Fit a shared per-step tilt exponent against a truth model or samples.

    `tilt` is a per-step tilt model (:class:`LocalTiltModel`,
    :class:`seqcal.memory.MemoryTiltModel`): its ``_problem`` builds the
    per-step problem, its ``active_steps`` are the fitted steps (None for
    all), and the tilt at the fitted exponent is returned with the
    result.  With a ConditionalModel target the fit is exact (stop at
    |gradient| <= tolerance); with an (n, T) sample array it is the same
    fit under the sample's empirical distribution (stop at |gradient| <=
    0.1 * stderr(gradient)).
    """
    return _fit_step(tilt._problem(target, budget), tolerance, provenance)


def fit_alpha_local(
    target,
    base: ConditionalModel,
    tolerance: float = 1e-10,
    budget: EnumerationBudget | None = None,
    provenance: dict | None = None,
) -> tuple[LocalTiltModel, CalibrationResult]:
    """Fit the one-step-lookahead tilt exponent.

    `target` is either the true model (exact mode, enumeration) or an
    (n, T) array of sequences drawn from it (sample-average mode).
    """
    # fit_per_step_tilt's body, inlined: perfbench's tracer wraps that
    # function and reads its return value as a bare CalibrationResult.
    return _fit_step(LocalTiltModel(base, 0.0)._problem(target, budget), tolerance, provenance)


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
        return asdict(self)


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


def _global_tilt_from_params(spec, params, budget) -> GlobalTiltModel:
    base = model_from_dict(params["base"], budget)
    doc = params["f"]
    kind = doc["kind"]
    if kind == "table":
        f = FunctionalF.from_table(doc["values"], spec, bound=doc.get("bound"))
    elif kind in ("log_prob", "neg_log_prob"):
        # A functional scoring with the base itself shares its object, so
        # the rebuilt tilt walks the base's lattice once, as the fit did.
        model = base if doc["model"] == params["base"] else model_from_dict(doc["model"], budget)
        f = FunctionalF(kind, model=model, bound=doc.get("bound"), p_min=doc.get("p_min", 1e-300))
    else:
        raise ValueError(f"unknown functional kind {kind!r}")
    return GlobalTiltModel(base, f, params["alpha"], budget)


register_model_kind("global_tilt", _global_tilt_from_params)
register_model_kind(
    "local_tilt",
    lambda spec, params, budget: LocalTiltModel(model_from_dict(params["base"], budget), params["alpha"]),
)
