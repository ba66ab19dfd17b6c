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
  per step; conditionals are exact ratios of prefix probabilities, and
  the state carries the base prefix's log-probability.
* :class:`PerTokenMixture` -- mixes each conditional row with uniform
  instead.  This is a different distribution from :class:`MixtureModel`
  and is provided for comparison only.
* :class:`DriftModel` -- starts faithful to a base model and at each
  step may permanently switch (before emitting) into a mode that emits
  uniformly at random forever.  The state carries the posterior of the
  faithful mode, updated by a two-hypothesis forward recursion.

Every model is read through one stateful step (:class:`ConditionalModel`):
``init_state(n)`` starts n empty prefixes, ``advance(state, tokens)``
appends one token to each, and ``rows(state)`` gives their next-token
rows.  Scoring, sampling and every exact lattice walk drive these three
methods, so each costs one step per token.  States are tuples of ints
and arrays and are never mutated; models are immutable after
construction and safe to share across threads; sampling consumes an
externally owned generator.
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


def check_tokens(tokens, M: int) -> np.ndarray:
    """`tokens` as an int64 array; ValueError if one lies outside ``{0, ..., M-1}``."""
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= M):
        raise ValueError("tokens contain a token outside the vocabulary")
    return arr


def check_samples(samples, spec: SequenceSpec) -> np.ndarray:
    """An (n, T) sample array of `spec` as int64, checked by :func:`check_tokens`."""
    arr = np.asarray(samples)
    if arr.ndim != 2 or arr.shape[1] != spec.T:
        raise ValueError(f"samples must be an (n, {spec.T}) array")
    return check_tokens(arr, spec.M)


def _sample_rows(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One token per row by inverting the CDF in ascending token-id order.

    Draws ``rng.random(n)`` once; the token is the number of CDF entries
    at or below the draw.  The CDF is accumulated one column at a time
    (``cdf += rows[:, j]``).  These are the left-to-right additions that
    ``np.cumsum`` makes along a row, so every draw is bitwise the cumsum
    formula's.  numpy is slow along a short last axis, so the loop beats
    one ``np.cumsum`` pass on narrow rows: 0.15 against 1.2 ms at M = 4
    and n = 20,000 on a 2-vCPU host.

    A draw at or above a row's rounded total mass falls to the row's last
    token of positive probability, so a zero-probability token is never
    returned; every other draw already lands on a token of positive
    probability.
    """
    n, M = rows.shape
    u = rng.random(n)
    cdf = np.zeros(n)
    idx = np.zeros(n, dtype=np.int64)
    for j in range(M):
        cdf += rows[:, j]
        idx += cdf <= u
    over = np.flatnonzero(idx == M)
    idx[over] = M - 1 - np.argmax(rows[over, ::-1] > 0.0, axis=1)
    return idx


def pick(rows: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """``rows[i, tokens[i]]`` for every row i of an (n, M) array, by one flat gather."""
    n, M = rows.shape
    return np.take(rows, np.arange(0, n * M, M) + tokens)


def take_state(state, idx: np.ndarray):
    """The batch state of the prefixes `idx` of `state` (arrays indexed, ints kept)."""
    if isinstance(state, tuple):
        return tuple(take_state(part, idx) for part in state)
    if isinstance(state, np.ndarray):
        return state[idx]
    return state


class ConditionalModel(ABC):
    """A distribution over length-T sequences given by next-token conditionals.

    Subclasses implement one stateful step over a batch of n equal-length
    prefixes:

    * ``init_state(n)`` -- the state of n empty prefixes;
    * ``advance(state, tokens)`` -- a new state with ``tokens[i]``
      appended to prefix i (the input state is left untouched);
    * ``rows(state)`` -- the (n, M) next-token rows of the prefixes.

    States exist for prefix lengths 0..T-1 and are tuples of ints and
    arrays whose leading axis is the batch, so :func:`take_state` can
    select or repeat prefixes.  None of the three validates its input.
    The public scoring and sampling methods below are drivers of this
    step: they validate once per call and cost one step per token.
    """

    kind: str = "abstract"

    def __init__(self, spec: SequenceSpec):
        self.spec = spec

    # -- the step ------------------------------------------------------

    @abstractmethod
    def init_state(self, n: int):
        """State of n empty prefixes."""

    @abstractmethod
    def advance(self, state, tokens: np.ndarray):
        """State after appending ``tokens[i]`` to prefix i; no validation."""

    @abstractmethod
    def rows(self, state) -> np.ndarray:
        """(n, M) next-token rows at `state`; no validation."""

    def _state_at(self, contexts: np.ndarray):
        """State after reading every row of an (n, L) token array."""
        state = self.init_state(contexts.shape[0])
        for t in range(contexts.shape[1]):
            state = self.advance(state, contexts[:, t])
        return state

    # -- validation ----------------------------------------------------

    def _check_batch(self, batch, what: str, max_length: int) -> np.ndarray:
        arr = check_tokens(batch, self.spec.M)
        if arr.ndim != 2:
            raise ValueError(f"{what} must be a 2-d array of token rows")
        if arr.shape[1] > max_length:
            raise ValueError(
                f"{what} of length {arr.shape[1]} exceeds maximum {max_length}"
            )
        return arr

    def _check_context(self, context) -> np.ndarray:
        return self._check_batch(np.reshape(context, (1, -1)), "context", self.spec.T - 1)[0]

    def _check_sequences(self, seqs) -> np.ndarray:
        seqs = self._check_batch(seqs, "sequences", self.spec.T)
        if seqs.shape[1] != self.spec.T:
            raise ValueError(f"sequences have length {seqs.shape[1]}, expected {self.spec.T}")
        return seqs

    # -- drivers -------------------------------------------------------

    def next_dist(self, context) -> np.ndarray:
        """P(W_t = . | W_{<t} = context) as a length-M probability vector."""
        ctx = self._check_context(context)
        return self.rows(self._state_at(ctx[None, :]))[0].copy()

    def next_dist_batch(self, contexts) -> np.ndarray:
        """Rows for an (n, L) array of equal-length contexts; (n, M) output."""
        contexts = self._check_batch(contexts, "contexts", self.spec.T - 1)
        return self.rows(self._state_at(contexts))

    def seq_log_prob(self, seq) -> float:
        """log P(w_{1:T}) in nats; -inf iff some step probability is exactly 0."""
        return float(self.seq_log_prob_batch(np.reshape(seq, (1, -1)))[0])

    def seq_log_prob_batch(self, seqs) -> np.ndarray:
        """log P(w) of every row of an (n, T) sequence array, by the chain rule."""
        seqs = self._check_sequences(seqs)
        n, T = seqs.shape
        total = np.zeros(n)
        state = self.init_state(n)
        for t in range(T):
            # One contiguous copy of the strided column serves both reads.
            tokens = np.ascontiguousarray(seqs[:, t])
            with np.errstate(divide="ignore"):
                total += np.log(pick(self.rows(state), tokens))
            if t + 1 < T:
                state = self.advance(state, tokens)
        return total

    def _generate(self, out: np.ndarray, start: int, rng: np.random.Generator):
        """Sample ``out[:, start:]`` after the given ``out[:, :start]``.

        Yields (t, rows) once the rows at 0-based step t have been
        sampled into ``out[:, t]``.  Tokens are drawn by inverting the
        CDF in ascending token-id order with one ``rng.random(n)`` per
        step, so results are reproducible across platforms for a fixed
        generator state.
        """
        T = self.spec.T
        state = self._state_at(out[:, :start])
        for t in range(start, T):
            rows = self.rows(state)
            tokens = _sample_rows(rows, rng)
            out[:, t] = tokens
            yield t, rows
            if t + 1 < T:
                state = self.advance(state, tokens)

    def sample_batch(
        self, n: int, rng: np.random.Generator, prefix=None
    ) -> np.ndarray:
        """Draw n sequences by iterated inverse-CDF sampling.

        An optional seed prefix (length < T) is copied verbatim into
        every sample.
        """
        out = np.empty((n, self.spec.T), dtype=np.int64)
        start = 0
        if prefix is not None:
            pfx = self._check_context(prefix)  # enforces length < T
            start = pfx.size
            out[:, :start] = pfx
        for _ in self._generate(out, start, rng):
            pass
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

    def init_state(self, n: int):
        # Step count and the code of the last min(order, t) tokens.
        return 0, np.zeros(n, dtype=np.int64)

    def advance(self, state, tokens):
        t, code = state
        return t + 1, (code * self.spec.M + tokens) % self.spec.M ** min(self.order, t + 1)

    def rows(self, state) -> np.ndarray:
        t, code = state
        return np.take(self._tables[min(self.order, t)], code, axis=0)

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

    so the state carries the base prefix's log-probability log B(w_{<t})
    next to the base state and its rows.
    """

    kind = "mixture"

    def __init__(self, base: ConditionalModel, gamma: float):
        super().__init__(base.spec)
        gamma = float(gamma)
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        self.base = base
        self.gamma = gamma

    def init_state(self, n: int):
        base_state = self.base.init_state(n)
        return 0, base_state, np.zeros(n), self.base.rows(base_state)

    def advance(self, state, tokens):
        t, base_state, lp, base_rows = state
        with np.errstate(divide="ignore"):
            lp = lp + np.log(pick(base_rows, tokens))
        base_state = self.base.advance(base_state, tokens)
        return t + 1, base_state, lp, self.base.rows(base_state)

    def rows(self, state) -> np.ndarray:
        t, _, lp, base_rows = state
        M = self.spec.M
        if self.gamma == 0.0:
            return base_rows
        if self.gamma == 1.0:
            return np.full((lp.shape[0], M), 1.0 / M)
        log1mg, logg, logM = math.log1p(-self.gamma), math.log(self.gamma), math.log(M)
        with np.errstate(divide="ignore"):
            log_num = np.logaddexp(
                log1mg + lp[:, None] + np.log(base_rows), logg - (t + 1) * logM
            )
        log_den = np.logaddexp(log1mg + lp, logg - t * logM)
        return np.exp(log_num - log_den[:, None])

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

    def init_state(self, n: int):
        return self.base.init_state(n)

    def advance(self, state, tokens):
        return self.base.advance(state, tokens)

    def rows(self, state) -> np.ndarray:
        return (1.0 - self.gamma) * self.base.rows(state) + self.gamma / self.spec.M

    def params_dict(self) -> dict:
        return {"gamma": self.gamma, "base": model_to_dict(self.base)}


class DriftModel(ConditionalModel):
    """Faithful-then-uniform switching model.

    Generation: starting in the faithful mode, each step first decides
    (with probability ``switch_prob``) to enter the uniform mode
    permanently, then emits -- from the base conditional while faithful,
    uniformly otherwise.  The state carries q = P(still faithful | prefix),
    updated by the normalized two-hypothesis forward recursion, next to
    the base state and its rows; scoring a sequence therefore
    marginalizes the latent mode exactly.
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

    def init_state(self, n: int):
        base_state = self.base.init_state(n)
        return base_state, np.ones(n), self.base.rows(base_state)

    def advance(self, state, tokens):
        base_state, q, base_rows = state
        pf = pick(base_rows, tokens)
        beta_f = q * (1.0 - self.switch_prob)
        num = beta_f * pf
        den = num + (1.0 - beta_f) / self.spec.M
        q = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
        base_state = self.base.advance(base_state, tokens)
        return base_state, q, self.base.rows(base_state)

    def rows(self, state) -> np.ndarray:
        _, q, base_rows = state
        if self.switch_prob == 0.0:
            return base_rows
        beta_f = q * (1.0 - self.switch_prob)
        return beta_f[:, None] * base_rows + ((1.0 - beta_f) / self.spec.M)[:, None]

    def params_dict(self) -> dict:
        return {"switch_prob": self.switch_prob, "base": model_to_dict(self.base)}


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic transition matrix.

    Uses the eigenvector of the transpose at eigenvalue 1; raises if the
    chain has no unique stationary distribution (checked to 1e-10).
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
    if np.max(np.abs(vec @ transition - vec)) > 1e-10:
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
    tail = MarkovModel.uniform(model.spec, min(window, model.spec.T - 1))
    return _fit_window(prefix_expansion(model, budget, tail), tail)


def _fit_window(walk, tail: MarkovModel, smoothing: float = 0.0) -> LimitedMemoryModel:
    """Window tables pooled over the levels of a lattice or sample walk.

    `tail` is the uniform order-``window`` Markov model, walked last, so
    its state code is the window of every prefix.  Each window's row
    is its accumulated next-token mass plus `smoothing` per token,
    normalized; a window without mass gets the uniform row.
    """
    M, eff = tail.spec.M, tail.order
    acc = [np.zeros((M**ell, M)) for ell in range(eff + 1)]
    for t, states, weights, rows in walk:
        np.add.at(acc[min(eff, t - 1)], states[-1][1], weights[:, None] * rows)
    tables = []
    for table in acc:
        smoothed = table + smoothing
        mass = smoothed.sum(axis=1, keepdims=True)
        uniform = np.full_like(table, 1.0 / M)
        with np.errstate(invalid="ignore", divide="ignore"):
            rows = np.where(mass > 0.0, smoothed / np.where(mass > 0.0, mass, 1.0), uniform)
        tables.append(rows)
    return LimitedMemoryModel(tail.spec, eff, tables)


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


def _try_model_hash(model: ConditionalModel) -> str | None:
    """:func:`model_hash`, or None for a model that cannot be serialized."""
    try:
        return model_hash(model)
    except (NotImplementedError, ValueError):
        return None
