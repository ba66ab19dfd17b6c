"""Finite-vocabulary autoregressive sequence models.

Every model in this package is a distribution over token sequences of a
fixed length ``T`` drawn from a vocabulary ``{0, ..., M-1}``, presented
through its per-step conditional distributions.  Concrete families:

* :class:`MarkovModel` -- order-``k`` table model with explicit initial
  tables for the first ``k`` steps (no padding sentinel).
* :class:`LimitedMemoryModel` -- conditionals that depend only on the
  last ``window`` tokens of the context.
* :class:`MixtureModel` -- sequence-level mixture with the uniform
  distribution over all ``M**T`` sequences.  The mixture does not factor
  per step; conditionals are computed exactly as ratios of prefix
  probabilities.
* :class:`PerTokenMixture` -- mixes each conditional row with uniform
  instead.  This is a different distribution from :class:`MixtureModel`
  and is provided for comparison only.
* :class:`DriftModel` -- starts faithful to a base model and at each
  step may permanently switch (before emitting) into a mode that emits
  uniformly at random forever.  Scoring marginalizes the latent mode
  with a two-hypothesis forward recursion.

Models are immutable after construction and safe to share across
threads; sampling consumes an externally owned generator.
"""

from __future__ import annotations

import hashlib
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

MODEL_FORMAT_VERSION = 1

# Row sums are validated against this at construction time.
_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Vocab:
    """Token alphabet ``{0, ..., size-1}``."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise ValueError("vocabulary size must be an integer")
        if self.size < 2:
            raise ValueError(f"vocabulary size must be >= 2, got {self.size}")


@dataclass(frozen=True)
class SequenceSpec:
    """Vocabulary plus the common sequence length all models are bound to."""

    vocab: Vocab
    length: int

    def __post_init__(self):
        if not isinstance(self.length, int) or isinstance(self.length, bool):
            raise ValueError("sequence length must be an integer")
        if self.length < 1:
            raise ValueError(f"sequence length must be >= 1, got {self.length}")

    @property
    def M(self) -> int:
        return self.vocab.size

    @property
    def T(self) -> int:
        return self.length


def make_spec(M: int, T: int) -> SequenceSpec:
    return SequenceSpec(Vocab(M), T)


def row_entropies(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of each probability vector along the last axis.

    Zero entries contribute zero, matching the p*log(p) -> 0 limit.
    """
    rows = np.asarray(rows, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows > 0.0, rows * np.log(rows), 0.0)
    return -terms.sum(axis=-1)


def _sample_rows(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One token per row by inverting the CDF in ascending token-id order.

    Draws ``rng.random(n)`` once.  A draw at or above a row's rounded
    total mass falls to the row's last token of positive probability, so
    a zero-probability token is never returned; every other draw already
    lands on a token of positive probability.
    """
    M = rows.shape[1]
    idx = (np.cumsum(rows, axis=1) <= rng.random(rows.shape[0])[:, None]).sum(axis=1)
    over = np.flatnonzero(idx == M)
    idx[over] = M - 1 - np.argmax(rows[over, ::-1] > 0.0, axis=1)
    return idx


def context_codes(contexts: np.ndarray, M: int) -> np.ndarray:
    """Lexicographic integer code of each row of a (n, L) token array."""
    contexts = np.asarray(contexts)
    n, L = contexts.shape
    if L == 0:
        return np.zeros(n, dtype=np.int64)
    powers = M ** np.arange(L - 1, -1, -1, dtype=np.int64)
    return contexts.astype(np.int64) @ powers


class ConditionalModel(ABC):
    """A distribution over length-T sequences given by next-token conditionals.

    Subclasses implement ``_row`` (unvalidated single-context conditional)
    and may override the batch methods with vectorized versions; the
    generic fallbacks loop over ``_row``.
    """

    kind: str = "abstract"

    def __init__(self, spec: SequenceSpec):
        self.spec = spec

    # -- validation ----------------------------------------------------

    def _check_context(self, context) -> np.ndarray:
        ctx = np.asarray(context, dtype=np.int64).reshape(-1)
        if ctx.size > self.spec.T - 1:
            raise ValueError(
                f"context of length {ctx.size} exceeds maximum {self.spec.T - 1}"
            )
        if ctx.size and (ctx.min() < 0 or ctx.max() >= self.spec.M):
            raise ValueError("context contains a token outside the vocabulary")
        return ctx

    def _check_sequence(self, seq) -> np.ndarray:
        s = np.asarray(seq, dtype=np.int64).reshape(-1)
        if s.size != self.spec.T:
            raise ValueError(f"sequence has length {s.size}, expected {self.spec.T}")
        if s.min() < 0 or s.max() >= self.spec.M:
            raise ValueError("sequence contains a token outside the vocabulary")
        return s

    # -- single-context interface --------------------------------------

    @abstractmethod
    def _row(self, context: np.ndarray) -> np.ndarray:
        """Conditional distribution of the next token; no validation."""

    def next_dist(self, context) -> np.ndarray:
        """P(W_t = . | W_{<t} = context) as a length-M probability vector."""
        ctx = self._check_context(context)
        return np.array(self._row(ctx), dtype=float, copy=True)

    def seq_log_prob(self, seq) -> float:
        """log P(w_{1:T}) in nats; -inf iff some step probability is exactly 0."""
        s = self._check_sequence(seq)
        total = 0.0
        for t in range(self.spec.T):
            p = float(self._row(s[:t])[s[t]])
            if p == 0.0:
                return -math.inf
            total += math.log(p)
        return total

    def prefix_log_prob(self, context) -> float:
        """log P(w_{1:L}) of a prefix, by the chain rule."""
        ctx = self._check_context(context)
        total = 0.0
        for t in range(ctx.size):
            p = float(self._row(ctx[:t])[ctx[t]])
            if p == 0.0:
                return -math.inf
            total += math.log(p)
        return total

    # -- batch interface ------------------------------------------------

    def next_dist_batch(self, contexts: np.ndarray) -> np.ndarray:
        """Rows for an (n, L) array of equal-length contexts; (n, M) output."""
        contexts = np.asarray(contexts, dtype=np.int64)
        n = contexts.shape[0]
        out = np.empty((n, self.spec.M), dtype=float)
        for i in range(n):
            out[i] = self._row(contexts[i])
        return out

    def prefix_log_prob_batch(self, prefixes: np.ndarray) -> np.ndarray:
        prefixes = np.asarray(prefixes, dtype=np.int64)
        n, L = prefixes.shape
        total = np.zeros(n, dtype=float)
        for t in range(L):
            rows = self.next_dist_batch(prefixes[:, :t])
            p = rows[np.arange(n), prefixes[:, t]]
            with np.errstate(divide="ignore"):
                total += np.log(p)
        return total

    def seq_log_prob_batch(self, seqs: np.ndarray) -> np.ndarray:
        seqs = np.asarray(seqs, dtype=np.int64)
        if seqs.shape[1] != self.spec.T:
            raise ValueError(
                f"sequences have length {seqs.shape[1]}, expected {self.spec.T}"
            )
        return self.prefix_log_prob_batch(seqs)

    # -- sampling --------------------------------------------------------

    def sample_batch(
        self, n: int, rng: np.random.Generator, prefix=None
    ) -> np.ndarray:
        """Draw n sequences by iterated inverse-CDF sampling.

        Tokens are drawn by inverting the CDF taken in ascending token-id
        order, so results are reproducible across platforms for a fixed
        generator state.  An optional seed prefix (length < T) is copied
        verbatim into every sample.
        """
        T = self.spec.T
        start = 0
        out = np.empty((n, T), dtype=np.int64)
        if prefix is not None:
            pfx = self._check_context(prefix)  # enforces length < T
            start = pfx.size
            out[:, :start] = pfx
        for t in range(start, T):
            out[:, t] = _sample_rows(self.next_dist_batch(out[:, :t]), rng)
        return out

    def sample_sequence(self, rng: np.random.Generator, prefix=None) -> np.ndarray:
        return self.sample_batch(1, rng, prefix=prefix)[0]

    # -- identity ----------------------------------------------------------

    def params_dict(self) -> dict:
        raise NotImplementedError(f"model kind {self.kind!r} is not serializable")

    def __repr__(self):
        return f"<{type(self).__name__} M={self.spec.M} T={self.spec.T}>"


def _validate_tables(spec: SequenceSpec, order: int, tables) -> tuple:
    M = spec.M
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(tables) != order + 1:
        raise ValueError(f"expected {order + 1} tables, got {len(tables)}")
    checked = []
    for ell, table in enumerate(tables):
        arr = np.ascontiguousarray(np.asarray(table, dtype=float))
        if arr.shape != (M**ell, M):
            raise ValueError(
                f"table for context length {ell} has shape {arr.shape}, "
                f"expected {(M**ell, M)}"
            )
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("probability rows must be finite and nonnegative")
        if np.max(np.abs(arr.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
            raise ValueError("probability rows must sum to 1")
        arr.setflags(write=False)
        checked.append(arr)
    return tuple(checked)


class MarkovModel(ConditionalModel):
    """Order-k Markov model with explicit tables for the first k steps.

    ``tables[l]`` has one row per length-l context (lexicographic order)
    and is used when min(order, t-1) == l, i.e. ``tables[order]`` is the
    stationary transition table and the shorter tables cover the early
    steps where fewer than ``order`` tokens exist.
    """

    kind = "markov"

    def __init__(self, spec: SequenceSpec, order: int, tables):
        super().__init__(spec)
        self.order = int(order)
        self._tables = _validate_tables(spec, self.order, tables)

    @property
    def tables(self) -> tuple:
        return self._tables

    def _row(self, context: np.ndarray) -> np.ndarray:
        ell = min(self.order, len(context))
        if ell == 0:
            return self._tables[0][0]
        code = context_codes(context[-ell:][None, :], self.spec.M)[0]
        return self._tables[ell][code]

    def next_dist_batch(self, contexts: np.ndarray) -> np.ndarray:
        contexts = np.asarray(contexts, dtype=np.int64)
        ell = min(self.order, contexts.shape[1])
        codes = context_codes(contexts[:, contexts.shape[1] - ell :], self.spec.M)
        return self._tables[ell][codes]

    def prefix_log_prob_batch(self, prefixes: np.ndarray) -> np.ndarray:
        prefixes = np.asarray(prefixes, dtype=np.int64)
        n, L = prefixes.shape
        total = np.zeros(n, dtype=float)
        for t in range(L):
            ell = min(self.order, t)
            codes = context_codes(prefixes[:, t - ell : t], self.spec.M)
            p = self._tables[ell][codes, prefixes[:, t]]
            with np.errstate(divide="ignore"):
                total += np.log(p)
        return total

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls, spec: SequenceSpec, order: int = 0) -> "MarkovModel":
        M = spec.M
        tables = [np.full((M**ell, M), 1.0 / M) for ell in range(order + 1)]
        return cls(spec, order, tables)

    @classmethod
    def random(
        cls,
        spec: SequenceSpec,
        order: int,
        rng: np.random.Generator,
        concentration: float = 1.0,
    ) -> "MarkovModel":
        """Rows drawn independently from a symmetric Dirichlet."""
        M = spec.M
        alpha = np.full(M, float(concentration))
        tables = [rng.dirichlet(alpha, size=M**ell) for ell in range(order + 1)]
        return cls(spec, order, tables)

    def perturbed(self, rng: np.random.Generator, scale: float) -> "MarkovModel":
        """Multiplicative log-normal noise on every row, renormalized.

        Keeps the support of each row, so the perturbed model stays
        absolutely continuous w.r.t. the original.
        """
        tables = []
        for table in self._tables:
            noisy = table * np.exp(scale * rng.standard_normal(table.shape))
            tables.append(noisy / noisy.sum(axis=1, keepdims=True))
        return type(self)(self.spec, self.order, tables)

    def params_dict(self) -> dict:
        return {
            "order": self.order,
            "tables": [t.tolist() for t in self._tables],
        }


class LimitedMemoryModel(MarkovModel):
    """Conditionals that depend only on the last ``window`` context tokens.

    Structurally an order-``window`` table model; the subclass exists so
    comparator models carry their own kind through serialization and so
    the truncation invariance is guaranteed by construction.
    """

    kind = "limited_memory"

    def __init__(self, spec: SequenceSpec, window: int, tables):
        super().__init__(spec, window, tables)

    @property
    def window(self) -> int:
        return self.order

    def params_dict(self) -> dict:
        return {
            "window": self.order,
            "tables": [t.tolist() for t in self._tables],
        }


class MixtureModel(ConditionalModel):
    """Sequence-level mixture (1-gamma) * base + gamma * Uniform([M]^T).

    The mixture is defined on whole sequences and does not factor across
    steps.  Conditionals are exact ratios of prefix probabilities,

        P(w_t | w_{<t}) = [(1-g) B(w_{1:t}) + g M^{-t}]
                        / [(1-g) B(w_{<t}) + g M^{-(t-1)}],

    with the base prefix probability B obtained from the base model's
    chain rule.
    """

    kind = "mixture"

    def __init__(self, base: ConditionalModel, gamma: float):
        super().__init__(base.spec)
        gamma = float(gamma)
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        self.base = base
        self.gamma = gamma

    def _mix_terms(self):
        return math.log1p(-self.gamma), math.log(self.gamma), math.log(self.spec.M)

    def _row(self, context: np.ndarray) -> np.ndarray:
        if self.gamma == 0.0:
            return self.base._row(context)
        M = self.spec.M
        if self.gamma == 1.0:
            return np.full(M, 1.0 / M)
        log1mg, logg, logM = self._mix_terms()
        t = len(context) + 1
        lp = self.base.prefix_log_prob(context)
        base_row = np.asarray(self.base._row(context), dtype=float)
        with np.errstate(divide="ignore"):
            log_num = np.logaddexp(log1mg + lp + np.log(base_row), logg - t * logM)
        log_den = np.logaddexp(log1mg + lp, logg - (t - 1) * logM)
        return np.exp(log_num - log_den)

    def next_dist_batch(self, contexts: np.ndarray) -> np.ndarray:
        if self.gamma == 0.0:
            return self.base.next_dist_batch(contexts)
        contexts = np.asarray(contexts, dtype=np.int64)
        n, L = contexts.shape
        M = self.spec.M
        if self.gamma == 1.0:
            return np.full((n, M), 1.0 / M)
        log1mg, logg, logM = self._mix_terms()
        lp = self.base.prefix_log_prob_batch(contexts)
        rows = self.base.next_dist_batch(contexts)
        with np.errstate(divide="ignore"):
            log_num = np.logaddexp(
                log1mg + lp[:, None] + np.log(rows), logg - (L + 1) * logM
            )
        log_den = np.logaddexp(log1mg + lp, logg - L * logM)
        return np.exp(log_num - log_den[:, None])

    def prefix_log_prob(self, context) -> float:
        ctx = self._check_context(context)
        if self.gamma == 0.0:
            return self.base.prefix_log_prob(ctx)
        if self.gamma == 1.0:
            return -ctx.size * math.log(self.spec.M)
        log1mg, logg, logM = self._mix_terms()
        return float(
            np.logaddexp(
                log1mg + self.base.prefix_log_prob(ctx), logg - ctx.size * logM
            )
        )

    def prefix_log_prob_batch(self, prefixes: np.ndarray) -> np.ndarray:
        prefixes = np.asarray(prefixes, dtype=np.int64)
        L = prefixes.shape[1]
        if self.gamma == 0.0:
            return self.base.prefix_log_prob_batch(prefixes)
        if self.gamma == 1.0:
            return np.full(prefixes.shape[0], -L * math.log(self.spec.M))
        log1mg, logg, logM = self._mix_terms()
        return np.logaddexp(
            log1mg + self.base.prefix_log_prob_batch(prefixes), logg - L * logM
        )

    def seq_log_prob(self, seq) -> float:
        s = self._check_sequence(seq)
        if self.gamma == 0.0:
            return self.base.seq_log_prob(s)
        if self.gamma == 1.0:
            return -self.spec.T * math.log(self.spec.M)
        log1mg, logg, logM = self._mix_terms()
        return float(
            np.logaddexp(log1mg + self.base.seq_log_prob(s), logg - self.spec.T * logM)
        )

    def params_dict(self) -> dict:
        return {"gamma": self.gamma, "base": model_to_dict(self.base)}


class PerTokenMixture(ConditionalModel):
    """Mixes every conditional row with uniform: a per-step floor.

    Unlike :class:`MixtureModel` this factors across steps; it is a
    genuinely different sequence distribution, offered for comparison.
    """

    kind = "per_token_mixture"

    def __init__(self, base: ConditionalModel, gamma: float):
        super().__init__(base.spec)
        gamma = float(gamma)
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        self.base = base
        self.gamma = gamma

    def _row(self, context: np.ndarray) -> np.ndarray:
        M = self.spec.M
        return (1.0 - self.gamma) * np.asarray(
            self.base._row(context), dtype=float
        ) + self.gamma / M

    def next_dist_batch(self, contexts: np.ndarray) -> np.ndarray:
        M = self.spec.M
        return (1.0 - self.gamma) * self.base.next_dist_batch(
            contexts
        ) + self.gamma / M

    def params_dict(self) -> dict:
        return {"gamma": self.gamma, "base": model_to_dict(self.base)}


class DriftModel(ConditionalModel):
    """Faithful-then-uniform switching model.

    Generation: starting in the faithful mode, each step first decides
    (with probability ``switch_prob``) to enter the uniform mode
    permanently, then emits -- from the base conditional while faithful,
    uniformly otherwise.  Scoring a fixed sequence marginalizes the
    latent mode exactly via the normalized two-hypothesis forward
    recursion, so ``seq_log_prob`` matches the chain rule over
    ``next_dist`` by construction.
    """

    kind = "drift"

    def __init__(self, base: ConditionalModel, switch_prob: float | None = None):
        super().__init__(base.spec)
        if switch_prob is None:
            switch_prob = 1.0 / base.spec.T
        switch_prob = float(switch_prob)
        if not 0.0 <= switch_prob <= 1.0:
            raise ValueError(f"switch probability must lie in [0, 1], got {switch_prob}")
        self.base = base
        self.switch_prob = switch_prob

    def _posterior_faithful(self, context: np.ndarray) -> float:
        """P(still faithful after emitting `context`)."""
        p = self.switch_prob
        q = 1.0
        for t in range(len(context)):
            beta_f = q * (1.0 - p)
            pf = float(self.base._row(context[:t])[context[t]])
            num = beta_f * pf
            den = num + (1.0 - beta_f) / self.spec.M
            q = num / den if den > 0.0 else 0.0
        return q

    def _row(self, context: np.ndarray) -> np.ndarray:
        if self.switch_prob == 0.0:
            return self.base._row(context)
        beta_f = self._posterior_faithful(context) * (1.0 - self.switch_prob)
        base_row = np.asarray(self.base._row(context), dtype=float)
        return beta_f * base_row + (1.0 - beta_f) / self.spec.M

    def next_dist_batch(self, contexts: np.ndarray) -> np.ndarray:
        if self.switch_prob == 0.0:
            return self.base.next_dist_batch(contexts)
        contexts = np.asarray(contexts, dtype=np.int64)
        n, L = contexts.shape
        p, M = self.switch_prob, self.spec.M
        q = np.ones(n)
        for t in range(L):
            rows = self.base.next_dist_batch(contexts[:, :t])
            pf = rows[np.arange(n), contexts[:, t]]
            beta_f = q * (1.0 - p)
            num = beta_f * pf
            den = num + (1.0 - beta_f) / M
            q = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
        beta_f = q * (1.0 - p)
        rows = self.base.next_dist_batch(contexts)
        return beta_f[:, None] * rows + ((1.0 - beta_f) / M)[:, None]

    def seq_log_prob(self, seq) -> float:
        s = self._check_sequence(seq)
        if self.switch_prob == 0.0:
            return self.base.seq_log_prob(s)
        p, M = self.switch_prob, self.spec.M
        q, total = 1.0, 0.0
        for t in range(self.spec.T):
            beta_f = q * (1.0 - p)
            pf = float(self.base._row(s[:t])[s[t]])
            step = beta_f * pf + (1.0 - beta_f) / M
            if step == 0.0:
                return -math.inf
            q = beta_f * pf / step
            total += math.log(step)
        return total

    def prefix_log_prob_batch(self, prefixes: np.ndarray) -> np.ndarray:
        if self.switch_prob == 0.0:
            return self.base.prefix_log_prob_batch(prefixes)
        prefixes = np.asarray(prefixes, dtype=np.int64)
        n, L = prefixes.shape
        p, M = self.switch_prob, self.spec.M
        q = np.ones(n)
        total = np.zeros(n)
        for t in range(L):
            rows = self.base.next_dist_batch(prefixes[:, :t])
            pf = rows[np.arange(n), prefixes[:, t]]
            beta_f = q * (1.0 - p)
            step = beta_f * pf + (1.0 - beta_f) / M
            with np.errstate(divide="ignore", invalid="ignore"):
                total += np.log(step)
                q = np.where(step > 0.0, beta_f * pf / np.where(step > 0.0, step, 1.0), 0.0)
        return total

    def params_dict(self) -> dict:
        return {"switch_prob": self.switch_prob, "base": model_to_dict(self.base)}


def stationary_distribution(transition: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Stationary distribution of a row-stochastic transition matrix.

    Uses the eigenvector of the transpose at eigenvalue 1; raises if the
    chain has no unique stationary distribution at the given tolerance.
    """
    transition = np.asarray(transition, dtype=float)
    eigvals, eigvecs = np.linalg.eig(transition.T)
    close = np.abs(eigvals - 1.0) < 1e-8
    if not np.any(close):
        raise ValueError("transition matrix has no eigenvalue 1")
    if np.sum(close) > 1:
        raise ValueError("stationary distribution is not unique")
    vec = np.real(eigvecs[:, int(np.argmax(close))])
    vec = np.abs(vec)
    vec /= vec.sum()
    if np.max(np.abs(vec @ transition - vec)) > max(tol, 1e-10):
        raise ValueError("stationary distribution did not verify")
    return vec


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
    from .exact import prefix_expansion  # deferred: avoids a module cycle

    if window < 1:
        raise ValueError("window must be >= 1")
    M, T = model.spec.M, model.spec.T
    eff = min(window, T - 1)
    acc = [np.zeros((M**ell, M)) for ell in range(eff + 1)]
    for t, ctx, weights, rows in prefix_expansion(model, budget):
        ell = min(eff, t - 1)
        codes = context_codes(ctx[:, ctx.shape[1] - ell :], M)
        np.add.at(acc[ell], codes, weights[:, None] * rows)

    tables = []
    for table in acc:
        mass = table.sum(axis=1, keepdims=True)
        uniform = np.full_like(table, 1.0 / M)
        with np.errstate(invalid="ignore", divide="ignore"):
            rows = np.where(mass > 0.0, table / np.where(mass > 0.0, mass, 1.0), uniform)
        tables.append(rows)
    return LimitedMemoryModel(model.spec, eff, tables)


# ---------------------------------------------------------------------------
# Serialization: versioned JSON documents with decimal probability rows.
# ---------------------------------------------------------------------------

_FROM_PARAMS: dict[str, Callable[[SequenceSpec, dict], ConditionalModel]] = {}


def register_model_kind(kind: str, builder: Callable[[SequenceSpec, dict], ConditionalModel]):
    """Register a deserializer for a model kind (used by the tilt models)."""
    _FROM_PARAMS[kind] = builder


def model_to_dict(model: ConditionalModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "M": model.spec.M,
        "T": model.spec.T,
        "parameters": model.params_dict(),
    }


def model_from_dict(doc: dict) -> ConditionalModel:
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {doc.get('format_version')!r}"
        )
    kind = doc.get("kind")
    spec = make_spec(int(doc["M"]), int(doc["T"]))
    params = doc.get("parameters", {})
    if kind == "markov":
        return MarkovModel(spec, int(params["order"]), params["tables"])
    if kind == "limited_memory":
        return LimitedMemoryModel(spec, int(params["window"]), params["tables"])
    if kind == "mixture":
        return MixtureModel(model_from_dict(params["base"]), params["gamma"])
    if kind == "per_token_mixture":
        return PerTokenMixture(model_from_dict(params["base"]), params["gamma"])
    if kind == "drift":
        return DriftModel(model_from_dict(params["base"]), params["switch_prob"])
    if kind in _FROM_PARAMS:
        return _FROM_PARAMS[kind](spec, params)
    raise ValueError(f"unknown model kind {kind!r}")


def model_dumps(model: ConditionalModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))


def model_loads(text: str) -> ConditionalModel:
    return model_from_dict(json.loads(text))


def save_model(model: ConditionalModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_dumps(model))
        fh.write("\n")


def load_model(path) -> ConditionalModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_loads(fh.read())


def model_hash(model: ConditionalModel) -> str:
    """Content hash of the canonical serialization (identity for provenance)."""
    return hashlib.sha256(model_dumps(model).encode("utf-8")).hexdigest()
