"""Exact information-theoretic quantities by brute-force enumeration.

Everything here enumerates all ``M**T`` sequences (or all prefixes at a
step) and is therefore only usable on small instances, guarded by an
:class:`EnumerationBudget`.  These routines are the ground truth that
the Monte-Carlo estimators and all fitted quantities are tested against.

Every exact routine in the package walks the prefix lattice through
:func:`prefix_expansion`: level t holds all length-(t-1) prefixes in
lexicographic order (prefix i has code i) as model states, with their
probabilities and next-token rows, and
the last level's rows give every sequence's log-probability
(:func:`sequence_log_probs`).  Sequence functionals are evaluated on
that lattice, never on an enumerated token array;
:func:`enumerate_sequences` remains only as an independent oracle.
:func:`sample_expansion` walks an (n, T) sample array the same way, as
the lattice of its empirical distribution.

Conventions: natural log everywhere (nats); an infinite cross entropy or
divergence is returned as ``math.inf`` (never produced via floating
overflow); reductions over enumerated terms use compensated summation so
results do not depend on partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .models import ConditionalModel, check_samples, take_state

# Probability floor used only when a logarithm of an exactly-zero entry
# must be finite (tilt features, comparator scoring).  Sampling and plain
# sequence scoring never floor.
P_MIN = 1e-300


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured state budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard cap on the number of enumerated states.

    Operations that would exceed it fail fast instead of silently
    approximating; callers must fall back to the Monte-Carlo estimators.
    """

    max_states: int = 10**6

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be positive")

    def check(self, states: int, what: str) -> None:
        if states > self.max_states:
            raise BudgetExceededError(
                f"{what} needs {states} states, exceeding the budget of "
                f"{self.max_states}"
            )


DEFAULT_BUDGET = EnumerationBudget()


def _fsum(values) -> float:
    """Correctly rounded sum, so independent of the order of the values.

    The values stream from a buffer; no list of Python floats is built.
    """
    return math.fsum(memoryview(np.ascontiguousarray(values, dtype=float).ravel()))


def logsumexp(a: np.ndarray, axis: int | None = None):
    """log(sum(exp(a))), max-shifted; handles -inf blocks cleanly."""
    a = np.asarray(a, dtype=float)
    if axis is None:
        m = float(np.max(a)) if a.size else -math.inf
        if not math.isfinite(m):
            return m
        with np.errstate(divide="ignore"):
            return float(np.log(np.sum(np.exp(a - m))) + m)
    m = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis)) + np.squeeze(shift, axis=axis)
    return out


def enumerate_sequences(M: int, T: int, budget: EnumerationBudget | None = None) -> np.ndarray:
    """All length-T sequences in lexicographic order, shape (M**T, T)."""
    (budget or DEFAULT_BUDGET).check(M**T, "sequence enumeration")
    codes = np.arange(M**T, dtype=np.int64)
    powers = M ** np.arange(T - 1, -1, -1, dtype=np.int64)
    return (codes[:, None] // powers) % M


def sequence_log_probs(model: "ConditionalModel", budget: EnumerationBudget | None = None) -> np.ndarray:
    """log P(w) for every sequence, lexicographic order, shape (M**T,).

    Entries are -inf exactly where the model assigns zero probability.
    """
    lp = np.zeros(1)
    for _t, _states, _weights, rows in prefix_expansion(model, budget):
        with np.errstate(divide="ignore"):
            lp = (lp[:, None] + np.log(rows)).reshape(-1)
    return lp


def _grow_prefixes(models, states, weights: np.ndarray, rows: np.ndarray):
    """One lattice step: extend every prefix by every token.

    Takes a level's n prefixes as the batch states of `models`, their
    probabilities and the driving model's (n, M) rows there.  Each state
    is repeated M times and advanced by the tiled tokens, so prefix i
    followed by token j becomes prefix i*M + j of the next level
    (lexicographic order).  Returns the new states and probabilities.
    """
    n, M = rows.shape
    idx = np.repeat(np.arange(n), M)
    tokens = np.tile(np.arange(M, dtype=np.int64), n)
    states = tuple(m.advance(take_state(s, idx), tokens) for m, s in zip(models, states))
    return states, (weights[:, None] * rows).reshape(-1)


def prefix_expansion(
    model: "ConditionalModel",
    budget: EnumerationBudget | None = None,
    *others: "ConditionalModel",
    last: int | None = None,
) -> Iterator[tuple[int, tuple, np.ndarray, np.ndarray]]:
    """Yield (t, states, prefix_probs, next_rows) for t = 1..last (default T).

    Level t holds every length-(t-1) prefix in lexicographic order, so
    prefix i has code i.  ``states`` holds the batch state of `model`,
    then of each of `others`, at those prefixes; ``prefix_probs`` are
    their probabilities under `model` and ``next_rows`` its rows there.
    The budget is checked against M**last states.
    """
    last = model.spec.T if last is None else last
    (budget or DEFAULT_BUDGET).check(model.spec.M**last, "prefix enumeration")
    models = (model, *others)
    states = tuple(m.init_state(1) for m in models)
    weights = np.ones(1)
    for t in range(1, last + 1):
        rows = model.rows(states[0])
        yield t, states, weights, rows
        if t < last:
            states, weights = _grow_prefixes(models, states, weights, rows)


def sample_expansion(
    samples: np.ndarray, *models: "ConditionalModel"
) -> Iterator[tuple[int, tuple, np.ndarray, np.ndarray]]:
    """The sample counterpart of :func:`prefix_expansion`, for t = 1..T.

    Level t holds the n sampled length-(t-1) prefixes of an (n, T)
    sample array, each of probability 1/n; ``states`` holds the batch
    state of each of `models` at those prefixes, and ``next_rows`` are
    the one-hot realised tokens, i.e. the sample's empirical next-token
    distribution.  An exact routine run on this walk is its
    sample-average counterpart.
    """
    spec = models[0].spec
    samples = check_samples(samples, spec)
    n, T = samples.shape
    one_hot = np.eye(spec.M)
    states = tuple(m.init_state(n) for m in models)
    weights = np.full(n, 1.0 / n)
    for t in range(1, T + 1):
        yield t, states, weights, one_hot[samples[:, t - 1]]
        if t < T:
            states = tuple(m.advance(s, samples[:, t - 1]) for m, s in zip(models, states))


class FunctionalF:
    """A scalar function on length-T sequences used as a tilt feature.

    Kinds:
      * ``log_prob`` / ``neg_log_prob`` -- (+/-) log probability under a
        model, floored at ``p_min`` so values stay finite;
      * ``table`` -- explicit values indexed by lexicographic sequence
        code, one per sequence of ``spec``.

    Exact routines evaluate a functional on the prefix lattice they
    already walk (:meth:`_on_lattice`): a table is its own lattice
    vector, and a log-probability reuses the walk's log-probabilities
    when it scores with the walked model.  :meth:`values` evaluates
    explicit token arrays and serves as the independent oracle.

    When a bound is declared, every evaluation checks |f(w)| <= bound.
    """

    def __init__(self, kind, *, model=None, table=None, spec=None, bound=None, p_min=P_MIN):
        if kind not in ("log_prob", "neg_log_prob", "table"):
            raise ValueError(f"unknown functional kind {kind!r}")
        self.kind = kind
        self.model = model
        self.table = None if table is None else np.asarray(table, dtype=float)
        self.spec = spec
        if kind == "table":
            size = None if spec is None else spec.M**spec.T
            if self.table is None or self.table.shape != (size,):
                raise ValueError(
                    f"table must have one value per sequence of its spec ({size}), "
                    f"got {None if self.table is None else self.table.shape}"
                )
        self.bound = None if bound is None else float(bound)
        self.p_min = float(p_min)

    @classmethod
    def log_prob(cls, model, bound=None, p_min=P_MIN) -> "FunctionalF":
        return cls("log_prob", model=model, bound=bound, p_min=p_min)

    @classmethod
    def neg_log_prob(cls, model, bound=None, p_min=P_MIN) -> "FunctionalF":
        return cls("neg_log_prob", model=model, bound=bound, p_min=p_min)

    @classmethod
    def from_table(cls, values, spec, bound=None) -> "FunctionalF":
        return cls("table", table=values, spec=spec, bound=bound)

    def values(self, seqs: np.ndarray) -> np.ndarray:
        seqs = np.asarray(seqs, dtype=np.int64)
        if self.kind == "table":
            powers = self.spec.M ** np.arange(self.spec.T - 1, -1, -1, dtype=np.int64)
            return self._checked(self.table[seqs @ powers])
        return self._from_log_probs(self.model.seq_log_prob_batch(seqs))

    def _on_lattice(self, model, lp, budget=None) -> np.ndarray:
        """Values at every sequence of `model`'s spec, lexicographic order.

        `lp` is ``sequence_log_probs(model)``, reused when this
        functional scores with that same model.
        """
        if (self.spec if self.kind == "table" else self.model.spec) != model.spec:
            raise ValueError("functional does not match the sequence spec")
        if self.kind == "table":
            return self._checked(self.table)
        if self.model is not model:
            lp = sequence_log_probs(self.model, budget)
        return self._from_log_probs(lp)

    def _from_log_probs(self, lp: np.ndarray) -> np.ndarray:
        lp = np.maximum(lp, math.log(self.p_min))
        return self._checked(lp if self.kind == "log_prob" else -lp)

    def _checked(self, out: np.ndarray) -> np.ndarray:
        if self.bound is not None and out.size:
            worst = float(np.max(np.abs(out)))
            if worst > self.bound + 1e-12:
                raise ValueError(
                    f"functional exceeded its declared bound: |f| reached {worst} "
                    f"> {self.bound}"
                )
        return out

    def descriptor(self) -> dict:
        from .models import model_hash  # deferred: avoids a module cycle

        desc = {"kind": self.kind, "bound": self.bound}
        if self.model is not None:
            desc["model_hash"] = model_hash(self.model)
            desc["p_min"] = self.p_min
        if self.table is not None:
            desc["table_size"] = int(self.table.size)
        return desc


# ---------------------------------------------------------------------------
# Exact quantities.
# ---------------------------------------------------------------------------


def entropy_exact(model: "ConditionalModel", budget: EnumerationBudget | None = None) -> float:
    """H(model) in nats, total over the sequence: sum_w P(w) log 1/P(w)."""
    return _entropy_from_log_probs(sequence_log_probs(model, budget))


def entropy_rate_exact(model: "ConditionalModel", budget: EnumerationBudget | None = None) -> float:
    """Per-token entropy H(model)/T in nats."""
    return entropy_exact(model, budget) / model.spec.T


def cross_entropy_exact(
    p: "ConditionalModel", q: "ConditionalModel", budget: EnumerationBudget | None = None
) -> float:
    """CE(p||q) = (1/T) E_{w~p}[log 1/q(w)] in nats per token.

    Returns ``math.inf`` when q assigns zero probability to any sequence
    p gives positive mass.
    """
    if p.spec != q.spec:
        raise ValueError("models must share the same sequence spec")
    lpp = sequence_log_probs(p, budget)
    lpq = sequence_log_probs(q, budget)
    pw = np.exp(lpp)
    mask = pw > 0.0
    if np.any(np.isneginf(lpq[mask])):
        return math.inf
    return -_fsum(pw[mask] * lpq[mask]) / p.spec.T


def kl_exact(
    p: "ConditionalModel", q: "ConditionalModel", budget: EnumerationBudget | None = None
) -> float:
    """KL(p||q) in nats, total over the sequence (not per token)."""
    if p.spec != q.spec:
        raise ValueError("models must share the same sequence spec")
    return _kl_from_log_probs(sequence_log_probs(p, budget), sequence_log_probs(q, budget))


def _entropy_from_log_probs(lp: np.ndarray) -> float:
    """Entropy of a lattice log-probability vector, as :func:`entropy_exact`."""
    p = np.exp(lp)
    mask = p > 0.0
    return -_fsum(p[mask] * lp[mask])


def _kl_from_log_probs(lpp: np.ndarray, lpq: np.ndarray) -> float:
    """KL between two lattice log-probability vectors, as :func:`kl_exact`."""
    pw = np.exp(lpp)
    mask = pw > 0.0
    if np.any(np.isneginf(lpq[mask])):
        return math.inf
    return _fsum(pw[mask] * (lpp[mask] - lpq[mask]))


def mean_var_exact(
    dist: "ConditionalModel", f: FunctionalF, budget: EnumerationBudget | None = None
) -> tuple[float, float]:
    """Exact mean and variance of f under `dist`."""
    lp = sequence_log_probs(dist, budget)
    pw = np.exp(lp)
    fv = f._on_lattice(dist, lp, budget)
    mu = _fsum(pw * fv)
    var = _fsum(pw * (fv - mu) ** 2)
    return mu, var


def log_partition_exact(
    base: "ConditionalModel",
    f: FunctionalF,
    alpha: float,
    budget: EnumerationBudget | None = None,
) -> float:
    """log Z_alpha = log sum_w exp(alpha f(w)) P(w), max-shifted for stability.

    Its derivatives in alpha are the tilted mean and variance of f.
    """
    lp = sequence_log_probs(base, budget)
    fv = f._on_lattice(base, lp, budget)
    return float(logsumexp(alpha * fv + lp))


def _conditional_entropy(joint: np.ndarray) -> float:
    """H(Z|C) in nats from a 2-d joint indexed (Z, C), by direct marginalization."""
    pc = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(joint > 0.0, joint * (np.log(joint) - np.log(pc)), 0.0)
    return -_fsum(terms)


def conditional_mi_exact(joint: np.ndarray) -> float:
    """I(Z; X | Y) in nats from an explicit joint indexed (Z, Y, X).

    Computed as H(Z|Y) - H(Z|Y,X).  The joint must be a normalized
    distribution.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 3:
        raise ValueError("joint must be a 3-d array indexed (Z, Y, X)")
    if np.any(joint < 0.0):
        raise ValueError("joint must be nonnegative")
    total = float(joint.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint must sum to 1, got {total}")
    # Order "A" merges (Y, X) without a copy for a C- or F-contiguous
    # joint, so each marginal over Z is summed along the same memory
    # axis as in the 3-d layout.
    yx = joint.reshape(joint.shape[0], -1, order="A")
    return _conditional_entropy(joint.sum(axis=2)) - _conditional_entropy(yx)
