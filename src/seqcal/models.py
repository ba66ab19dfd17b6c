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
  per step; the state carries, next to the base's state, the log-odds
  that the prefix came from the base rather than from uniform.
* :class:`PerTokenMixture` -- mixes each conditional row with uniform
  instead.  This is a different distribution from :class:`MixtureModel`
  and is provided for comparison only.
* :class:`DriftModel` -- starts faithful to a base model and at each
  step may permanently switch (before emitting) into a mode that emits
  uniformly at random forever.  The state carries, next to the base's
  state, the posterior of the faithful mode, updated by a two-hypothesis
  forward recursion.

Every model is read through one stateful step (:class:`ConditionalModel`):
``init_state(n)`` starts n empty prefixes, ``rows(state)`` gives their
next-token rows, and ``step(state, tokens)`` appends one token to each
and reads its probability in the same call; ``step(state, None)``, the
step of an exact lattice walk, appends every token and reads the rows.
Scoring makes one step per token, so a table or floored model builds no
(n, M) row to score a token; sampling reads ``rows`` and then
``advance``, the step's state alone.  States are tuples of ints and
arrays and are never mutated; models are immutable after construction
and safe to share across threads; sampling consumes an externally owned
generator.

This is the bottom layer, importing no other seqcal module.  It holds
the rules the layers above share: the short-axis sum and log-partition
(:func:`_sum_columns`, :func:`_logsumexp_columns`) and the registry of
model kinds that :func:`model_from_dict` reads.
"""

from __future__ import annotations

import hashlib
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

import numpy as np

MODEL_FORMAT_VERSION = 1

# Row sums are validated against this at construction time.
_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SequenceSpec:
    """Vocabulary size M (tokens 0..M-1) and the sequence length T every model is bound to."""

    M: int
    T: int

    def __post_init__(self):
        if not isinstance(self.M, int) or isinstance(self.M, bool):
            raise ValueError("vocabulary size must be an integer")
        if self.M < 2:
            raise ValueError(f"vocabulary size must be >= 2, got {self.M}")
        if not isinstance(self.T, int) or isinstance(self.T, bool):
            raise ValueError("sequence length must be an integer")
        if self.T < 1:
            raise ValueError(f"sequence length must be >= 1, got {self.T}")


def make_spec(M: int, T: int) -> SequenceSpec:
    return SequenceSpec(M, T)


def row_entropies(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of each probability vector along the last axis.

    Zero entries contribute zero, matching the p*log(p) -> 0 limit.
    """
    rows = np.asarray(rows, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows > 0.0, rows * np.log(rows), 0.0)
    return -_sum_columns(terms.T).T


def _sum_columns(x: np.ndarray) -> np.ndarray:
    """Sum an (M, ...) array over axis 0, adding each column as numpy adds a row.

    numpy adds a row of fewer than 8 entries left to right from +0.0, but
    slowly along a short last axis, so below M = 8 the M rows of `x` are
    added in that order, in any layout: 12.8 against 18.0 ms for
    :func:`row_entropies` at n = 262,144 and M = 4 on a 2-vCPU host.  A
    longer row numpy adds pairwise, so from M = 8 the row layout is summed.
    """
    if x.shape[0] >= 8:
        return np.ascontiguousarray(x.T).sum(axis=-1).T
    total = x[0] + 0.0
    for j in range(1, x.shape[0]):
        total += x[j]
    return total


def _logsumexp_columns(x: np.ndarray) -> np.ndarray:
    """Max-shifted log(sum(exp(x), axis=0)) of an (M, n) array; bitwise ``logsumexp(x.T, axis=1)``."""
    # The max row by row, like the sum: on the transpose of (n, M) rows,
    # ``x.max(axis=0)`` reduces along the short axis, which made this
    # function 3.9 times slower at M = 4 and n = 4096.
    shift = x[0].copy()
    for j in range(1, x.shape[0]):
        np.maximum(shift, x[j], out=shift)
    shift[~np.isfinite(shift)] = 0.0
    e = x - shift
    with np.errstate(divide="ignore"):
        return np.log(_sum_columns(np.exp(e, out=e))) + shift


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
        raise ValueError(f"samples must be an (n, {spec.T}) array of length-{spec.T} sequences")
    return check_tokens(arr, spec.M)


def _sample_rows(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One token per row by inverting the CDF in ascending token-id order.

    Draws ``rng.random(n)`` once; the token is the number of CDF entries
    at or below the draw.  The CDF is accumulated one column at a time
    (``cdf += rows[:, j]``).  These are the left-to-right additions that
    ``np.cumsum`` makes along a row, so every draw is bitwise the cumsum
    formula's.  numpy is slow along a short last axis, so the loop beats
    one ``np.cumsum`` pass on narrow rows: 0.14 against 1.0 ms at M = 4
    and n = 20,000 on a 2-vCPU host.  Each column's comparison is written
    into one bool buffer and counted in the smallest unsigned type that
    holds M, so no int64 is added per column.

    A draw at or above a row's rounded total mass falls to the row's last
    token of positive probability, so a zero-probability token is never
    returned; every other draw already lands on a token of positive
    probability.
    """
    n, M = rows.shape
    u = rng.random(n)
    cdf = np.zeros(n)
    below = np.empty(n, dtype=bool)
    count = np.zeros(n, dtype=np.min_scalar_type(M))
    for j in range(M):
        cdf += rows[:, j]
        count += np.less_equal(cdf, u, out=below)
    del u, cdf  # freed before the tokens are allocated
    idx = count.astype(np.int64)
    over = np.flatnonzero(idx == M)
    idx[over] = M - 1 - np.argmax(rows[over, ::-1] > 0.0, axis=1)
    return idx


def pick(rows: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """``rows[i, tokens[i]]`` for every row i of an (n, M) array, by one flat gather."""
    n, M = rows.shape
    return np.take(rows, np.arange(0, n * M, M) + tokens)


def _append_code(code: np.ndarray, tokens, M: int) -> np.ndarray:
    """``code * M + tokens``; with tokens None, every child code ``i*M + j`` of the lattice."""
    if tokens is None:
        return (code[:, None] * M + np.arange(M)).reshape(-1)
    return code * M + tokens


class ConditionalModel(ABC):
    """A distribution over length-T sequences given by next-token conditionals.

    Subclasses implement one stateful step over a batch of n equal-length
    prefixes:

    * ``init_state(n)`` -- the state of n empty prefixes;
    * ``rows(state)`` -- the (n, M) next-token rows of the prefixes;
    * ``step(state, tokens)`` -- (read, next state): ``pick(rows(state),
      tokens)`` and a new state with ``tokens[i]`` appended to prefix i
      (the input is left untouched); with tokens None, the lattice step:
      ``rows(state)`` and n*M prefixes, child ``i*M + j`` being prefix i
      followed by token j;
    * ``advance(state, tokens)`` -- the next state alone.

    ``step`` and ``advance`` default to each other, so a subclass
    overrides one or both.  A model whose read is part of its update
    (Mixture, Drift) overrides ``step`` alone; a table model reads its
    token entry by a bitwise equal gather, without building rows.

    States exist for prefix lengths 0..T and are tuples of ints and
    arrays whose leading axis is the batch; no state holds a row.  For
    the lattice step a leaf model repeats or gathers its own arrays; a
    floored model (Mixture, Drift) updates its 1-d array from its base's
    lattice read, broadcast over the (n, M) rows, so no (n, M) array is
    repeated.  None of these validates its input.  The public scoring
    and sampling methods below are drivers of this step: they validate
    once per call and cost one step per token.
    """

    kind: str = "abstract"

    def __init__(self, spec: SequenceSpec):
        self.spec = spec

    # -- the step ------------------------------------------------------

    @abstractmethod
    def init_state(self, n: int):
        """State of n empty prefixes."""

    @abstractmethod
    def rows(self, state) -> np.ndarray:
        """(n, M) next-token rows at `state`; no validation."""

    def step(self, state, tokens: np.ndarray | None):
        """(read, next state) after appending ``tokens[i]`` to prefix i; no validation."""
        rows = self.rows(state)
        return (rows if tokens is None else pick(rows, tokens)), self.advance(state, tokens)

    def advance(self, state, tokens: np.ndarray | None):
        """The state :meth:`step` returns, without its read."""
        return self.step(state, tokens)[1]

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
        seqs = check_samples(seqs, self.spec)
        # A column of a column-major array (as `sample_batch` returns) is
        # read as a view; any other layout is copied once per step.
        columns = (np.ascontiguousarray(seqs[:, t]) for t in range(seqs.shape[1]))
        return self._score(columns, seqs.shape[0])

    def _score(self, columns, n: int) -> np.ndarray:
        """Chain-rule log-probabilities of n sequences given as T token columns.

        `columns` yields the tokens of step 0, 1, ..., T-1 in turn, so a
        sampler's token stream is scored as it is drawn.  The last step
        leaves states of length T, which are not read.
        """
        total = np.zeros(n)
        state = self.init_state(n)
        for tokens in columns:
            p, state = self.step(state, tokens)
            with np.errstate(divide="ignore"):
                total += np.log(p)
            del p, tokens  # not held through the next step
        return total

    def _generate(self, state, start: int, rng: np.random.Generator):
        """Draw steps ``start..T-1`` after n length-`start` prefixes in `state`.

        Yields (t, rows, tokens) for the 0-based step t: the (n, M) rows
        there and the n tokens drawn from them.  Tokens are drawn by
        inverting the CDF in ascending token-id order with one
        ``rng.random(n)`` per step, so results are reproducible across
        platforms for a fixed generator state.  Nothing is stored: the
        caller keeps what it needs of each step.  The rows leave this frame
        before the yield, so a yielded rows array lives as long as the caller holds it.
        """
        T = self.spec.T
        for t in range(start, T):
            rows = [self.rows(state)]
            tokens = _sample_rows(rows[0], rng)
            yield t, rows.pop(), tokens
            if t + 1 < T:
                state = self.advance(state, tokens)
            del tokens  # not held through the next draw

    def sample_batch(
        self, n: int, rng: np.random.Generator, prefix=None
    ) -> np.ndarray:
        """Draw n sequences by iterated inverse-CDF sampling.

        An optional seed prefix (length < T) is copied verbatim into
        every sample.  The (n, T) result is column-major, so writing a
        step and reading one back are contiguous.
        """
        out = np.empty((n, self.spec.T), dtype=np.int64, order="F")
        start = 0
        if prefix is not None:
            pfx = self._check_context(prefix)  # enforces length < T
            start = pfx.size
            out[:, :start] = pfx
        steps = self._generate(self._state_at(out[:, :start]), start, rng)
        for t, tokens in enumerate(map(itemgetter(2), steps), start):
            out[:, t] = tokens
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
        # Row ``code`` holds the child codes ``(code*M + j) % M**order``: a
        # gather is faster than the int64 %.
        M = spec.M
        self._wrap = (np.arange(M ** (self.order + 1)) % M**self.order).reshape(-1, M)

    @property
    def tables(self) -> tuple:
        return self._tables

    def init_state(self, n: int):
        # Step count and the code of the last min(order, t) tokens.
        return 0, np.zeros(n, dtype=np.int64)

    def advance(self, state, tokens):
        t, code = state
        # While t < order the child code is below M**order, so the wrap
        # table leaves it unchanged; from then on the oldest token drops out.
        if tokens is None:
            return t + 1, np.take(self._wrap, code, axis=0).reshape(-1)
        return t + 1, np.take(self._wrap, code * self.spec.M + tokens)

    def rows(self, state) -> np.ndarray:
        t, code = state
        return np.take(self._tables[min(self.order, t)], code, axis=0)

    def step(self, state, tokens):
        t, code = state
        table = self._tables[min(self.order, t)]
        if tokens is None:
            children = np.take(self._wrap, code, axis=0).reshape(-1)
            return np.take(table, code, axis=0), (t + 1, children)
        # One flat index serves the table entry and the child code.
        child = code * self.spec.M + tokens
        return np.take(table, child), (t + 1, np.take(self._wrap, child))

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
        tables = [dirichlet_rows(rng, M, M**ell, concentration) for ell in range(order + 1)]
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


def _unit_interval(value, name: str) -> float:
    """`value` as a float; ValueError naming `name` unless it lies in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def _finite(value, name: str):
    """`value`, a number or an array; ValueError naming `name` unless every entry is finite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return value


def _floor(base_rows: np.ndarray, w_base, w_uniform, M: int) -> np.ndarray:
    """``w_base * base_rows + w_uniform / M`` for scalar, (n, 1) or (n,) weights."""
    # `w_uniform` is divided in place, so an array passed there must be a
    # fresh one the caller owns.  No other (n, M) temporary is made: on
    # the exact walks, that sets the peak memory.
    out = base_rows * w_base
    w_uniform /= M
    out += w_uniform
    return out


class MixtureModel(ConditionalModel):
    """Sequence-level mixture (1-gamma) * base + gamma * Uniform([M]^T).

    The mixture does not factor across steps.  Its conditional is the
    base row floored by the posterior share of uniform, ``s(l) b + s(-l) / M``
    with s the logistic function.  The state is the base's state and the
    log-odds l of base against uniform given the prefix: ``log((1-g)/g)``
    at first, plus ``log b(x) + log M`` per token x.  ``step`` reads b(x)
    by the base's step and floors it into its own read; the lattice step
    broadcasts the log-odds over the base's rows.
    """

    kind = "mixture"

    def __init__(self, base: ConditionalModel, gamma: float):
        super().__init__(base.spec)
        self.base = base
        self.gamma = _unit_interval(gamma, "gamma")
        with np.errstate(divide="ignore"):
            self._prior_log_odds = float(np.log1p(-self.gamma) - np.log(self.gamma))

    def init_state(self, n: int):
        return self.base.init_state(n), np.full(n, self._prior_log_odds)

    def step(self, state, tokens):
        base_state, log_odds = state
        p, base_state = self.base.step(base_state, tokens)
        if tokens is None:
            log_odds = log_odds[:, None]
        read = self._mix(p, log_odds)
        # At gamma = 0 a zero base entry makes inf - inf; rows ignores it.
        with np.errstate(divide="ignore", invalid="ignore"):
            log_odds = np.log(p) + log_odds
            log_odds += math.log(self.spec.M)
        return read, (base_state, log_odds.reshape(-1))

    def rows(self, state) -> np.ndarray:
        base_state, log_odds = state
        return self._mix(self.base.rows(base_state), log_odds[:, None])

    def _mix(self, base_probs: np.ndarray, log_odds: np.ndarray) -> np.ndarray:
        """Mixture probabilities from base probabilities and the log-odds, broadcast together."""
        if self.gamma == 0.0:
            return base_probs
        # s(l) and s(-l) as exp(min(l, 0)) and exp(min(-l, 0)) over their
        # sum: neither exponential overflows, and s(-l) keeps its digits
        # when s(l) rounds to 1.
        to_base = np.exp(np.minimum(log_odds, 0.0))
        to_uniform = np.exp(np.minimum(-log_odds, 0.0))
        total = to_base + to_uniform
        to_base /= total
        to_uniform /= total
        return _floor(base_probs, to_base, to_uniform, self.spec.M)

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
        self.base = base
        self.gamma = _unit_interval(gamma, "gamma")

    def init_state(self, n: int):
        return self.base.init_state(n)

    def advance(self, state, tokens):
        return self.base.advance(state, tokens)

    def rows(self, state) -> np.ndarray:
        return self._mix(self.base.rows(state))

    def step(self, state, tokens):
        p, state = self.base.step(state, tokens)
        return self._mix(p), state

    def _mix(self, base_probs: np.ndarray) -> np.ndarray:
        return _floor(base_probs, 1.0 - self.gamma, self.gamma, self.spec.M)

    def params_dict(self) -> dict:
        return {"gamma": self.gamma, "base": model_to_dict(self.base)}


class DriftModel(ConditionalModel):
    """Faithful-then-uniform switching model.

    Generation: starting in the faithful mode, each step first decides
    (with probability ``switch_prob``) to enter the uniform mode
    permanently, then emits -- from the base conditional while faithful,
    uniformly otherwise.  The state is the base's state and q = P(still
    faithful | prefix), updated by the normalized two-hypothesis forward
    recursion from each token's base probability, read by the base's
    step; scoring a sequence therefore marginalizes the latent mode
    exactly, and builds no base rows.  The recursion's denominator is
    bitwise the floored read, which ``step`` returns.
    """

    kind = "drift"

    def __init__(self, base: ConditionalModel, switch_prob: float | None = None):
        super().__init__(base.spec)
        if switch_prob is None:
            switch_prob = 1.0 / base.spec.T
        self.base = base
        self.switch_prob = _unit_interval(switch_prob, "switch probability")

    def init_state(self, n: int):
        return self.base.init_state(n), np.ones(n)

    def step(self, state, tokens):
        base_state, q = state
        pf, base_state = self.base.step(base_state, tokens)
        beta_f = q * (1.0 - self.switch_prob)
        if tokens is None:
            beta_f = beta_f[:, None]
        num = beta_f * pf
        # den in one buffer.  (beta_f - 1) / -M is (1 - beta_f) / M but for
        # the sign of a zero, which adding num >= 0 drops.
        den = beta_f - 1.0
        den /= -self.spec.M
        den = num + den if tokens is None else np.add(num, den, out=den)
        # den is 0 only where both of its nonnegative terms are, so num is
        # already the 0 that q takes there.
        q = np.divide(num, den, out=num, where=den > 0.0)
        return (pf if self.switch_prob == 0.0 else den), (base_state, q.reshape(-1))

    def rows(self, state) -> np.ndarray:
        base_state, q = state
        base_rows = self.base.rows(base_state)
        if self.switch_prob == 0.0:
            return base_rows
        beta_f = q[:, None] * (1.0 - self.switch_prob)
        return _floor(base_rows, beta_f, 1.0 - beta_f, self.spec.M)

    def params_dict(self) -> dict:
        return {"switch_prob": self.switch_prob, "base": model_to_dict(self.base)}


def dirichlet_rows(rng: np.random.Generator, M: int, n: int, concentration: float) -> np.ndarray:
    """`n` rows over M tokens, each drawn from a symmetric Dirichlet."""
    concentration = float(concentration)
    if not (math.isfinite(concentration) and concentration > 0.0):
        raise ValueError(f"concentration must be a positive finite number, got {concentration}")
    return rng.dirichlet(np.full(M, concentration), size=n)


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


# ---------------------------------------------------------------------------
# Serialization: versioned JSON documents with decimal probability rows.
# ---------------------------------------------------------------------------

def model_to_dict(model: ConditionalModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "M": model.spec.M,
        "T": model.spec.T,
        "parameters": model.params_dict(),
    }


def model_from_dict(doc: dict, budget=None) -> ConditionalModel:
    """The model a document describes; a global tilt, nested ones too, enumerates its base under `budget`."""
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {doc.get('format_version')!r}"
        )
    kind = doc.get("kind")
    spec = make_spec(int(doc["M"]), int(doc["T"]))
    if kind not in _FROM_PARAMS:
        raise ValueError(f"unknown model kind {kind!r}")
    model = _FROM_PARAMS[kind](spec, doc.get("parameters", {}), budget)
    if model.spec != spec:
        raise ValueError(f"{kind} parameters give M={model.spec.M}, T={model.spec.T}, not the declared M/T")
    return model


# The deserializer of each model kind, given the declared spec, the
# parameters and the enumeration budget; the tilt kinds register theirs in
# their own modules.
_FROM_PARAMS: dict[str, Callable[[SequenceSpec, dict, object], ConditionalModel]] = {
    "markov": lambda spec, p, budget: MarkovModel(spec, int(p["order"]), p["tables"]),
    "limited_memory": lambda spec, p, budget: LimitedMemoryModel(spec, int(p["window"]), p["tables"]),
    "mixture": lambda spec, p, budget: MixtureModel(model_from_dict(p["base"], budget), p["gamma"]),
    "per_token_mixture": lambda spec, p, budget: PerTokenMixture(model_from_dict(p["base"], budget), p["gamma"]),
    "drift": lambda spec, p, budget: DriftModel(model_from_dict(p["base"], budget), p["switch_prob"]),
}


def register_model_kind(kind: str, builder: Callable[[SequenceSpec, dict, object], ConditionalModel]):
    """Register the deserializer of a model kind defined outside this module."""
    _FROM_PARAMS[kind] = builder


def model_dumps(model: ConditionalModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))


def model_loads(text: str, budget=None) -> ConditionalModel:
    return model_from_dict(json.loads(text), budget)


def save_model(model: ConditionalModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_dumps(model))
        fh.write("\n")


def load_model(path, budget=None) -> ConditionalModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_loads(fh.read(), budget)


def model_hash(model: ConditionalModel) -> str:
    """Content hash of the canonical serialization (identity for provenance)."""
    return hashlib.sha256(model_dumps(model).encode("utf-8")).hexdigest()


def _try_model_hash(model: ConditionalModel) -> str | None:
    """:func:`model_hash`, or None for a model that cannot be serialized."""
    try:
        return model_hash(model)
    except (NotImplementedError, ValueError):
        return None
