"""Exact information-theoretic quantities by brute-force enumeration.

Everything here enumerates all ``M**T`` sequences (or all prefixes at a
step) and is therefore only usable on small instances, guarded by an
:class:`EnumerationBudget`.  These routines are the ground truth that
the Monte-Carlo estimators and all fitted quantities are tested against.

Every exact routine in the package walks the prefix lattice by one
generator, :func:`prefix_expansion`: level t holds all length-(t-1)
prefixes in lexicographic order (prefix i has code i) as model states,
with their probabilities (or log-probabilities) and next-token rows, and
the last level's rows give every sequence's log-probability
(:func:`sequence_log_probs`).  It yields (t, lo, states, weights, rows)
pieces, prefixes lo, lo+1, ... of level t, in one of two modes.  The
blocked mode, the default, grows the last `_TAIL_LEVELS` levels one
block of parents at a time, each a view of the parents' states;
:func:`sequence_log_probs` writes each block into its slice of a
preallocated output, so its heap stays near one lattice vector, a
reader that sums the blocks as they pass (the global tilt's truth, the
drift curve) holds none, and the per-step problem stays near its own
storage.  The whole-level mode, one block that holds every parent, gives
each level as one piece; only the test oracles and verify's memory chain
read it.  Sequence functionals are evaluated on that lattice, never on an
enumerated token array.  :func:`sample_expansion` walks an (n, T)
sample array the same way, as the lattice of its empirical
distribution, in the same pieces, one per level.

Conventions: natural log everywhere (nats); an infinite cross entropy or
divergence is returned as ``math.inf`` (never produced via floating
overflow); reductions over enumerated terms are correctly rounded sums
(:func:`_fsum`, by block-wise error-free extraction).  Such a sum is the
exact sum rounded once, so it does not depend on the order, the memory
layout or the partitioning of the terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .models import ConditionalModel, _finite, check_samples, model_hash

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


# _fsum's block length (128 KB temporaries), extraction levels per block,
# and the sizes and magnitudes for which it defers to math.fsum.
_FSUM_BLOCK = 2**14
_FSUM_DIRECT = 2**10
_FSUM_LEVELS = 4
_FSUM_HUGE = 2.0**990


def _fsum(values) -> float:
    """The correctly rounded sum, bitwise ``math.fsum`` of an array-like's values.

    Fewer than `_FSUM_DIRECT` values go to ``math.fsum`` directly, read
    from a buffer, which is faster there; more go through :class:`_Fsum`.
    """
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    if flat.size < _FSUM_DIRECT:
        return math.fsum(memoryview(flat))
    total = _Fsum()
    total.add(flat)
    return total.value()


class _Fsum:
    """A correctly rounded sum of arrays added one at a time.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 2008), one block of n < 2**b values
    at a time.  With every |x| below 2**e and ``sigma = 2**(e+b)``,
    ``q = (x + sigma) - sigma`` keeps the bits of x down to ``2**(e+b-53)``
    and ``x - q`` is the exact remainder.  Every q and every partial sum
    of the q's is a multiple of ``2**(e+b-53)`` with magnitude below sigma,
    so numpy sums the q's exactly in any order.  (Where ``2**(e+b-53)``
    would be below 2**-1074 the grid is 2**-1074, of which every double
    is a multiple, so this holds through the subnormals.)  The remainders
    go through further levels of about 53 - b bits each; whatever is left
    after `_FSUM_LEVELS` levels, or at once in a block of fewer than
    `_FSUM_DIRECT` values, is passed on unchanged.  One ``math.fsum`` of
    the exact level sums and the passed-on values then rounds once; only
    the passed-on values become Python floats.

    So the value is ``math.fsum`` of the concatenated arrays, with the
    same inf, nan, ValueError and OverflowError behaviour and the same
    sign of a zero: from the first array with a value that is not finite
    or reaches `_FSUM_HUGE`, the arrays are kept as copies and summed by
    ``math.fsum`` after the exact level sums of the arrays before it (a
    value that is not finite resets ``math.fsum``'s partial sums, and
    earlier values below `_FSUM_HUGE` cannot overflow them); when every
    value is zero, the value is ``math.fsum`` of each array's own sum.
    """

    def __init__(self):
        self._parts: list[float] = []
        self._zeros: list[float] = []
        self._rest: list[np.ndarray] | None = None

    def add(self, values) -> None:
        flat = np.ascontiguousarray(values, dtype=float).ravel()
        if self._rest is not None:
            self._rest.append(flat.copy())
            return
        kept = len(self._parts)
        size = min(flat.size, _FSUM_BLOCK)
        q_buf, r_buf = np.empty(size), np.empty(size)
        for start in range(0, flat.size, _FSUM_BLOCK):
            r = flat[start:start + _FSUM_BLOCK]
            n = r.size
            q = q_buf[:n]
            levels = _FSUM_LEVELS if n >= _FSUM_DIRECT else 0
            for level in range(levels + 1):
                m = max(r.max(), -r.min())
                if not m < _FSUM_HUGE:
                    del self._parts[kept:]
                    self._rest = [flat.copy()]
                    return
                if m == 0.0:
                    break
                if level == levels:
                    self._parts.extend(r[r != 0.0].tolist())
                    break
                sigma = math.ldexp(1.0, math.frexp(m)[1] + n.bit_length())
                np.add(r, sigma, out=q)
                q -= sigma
                self._parts.append(float(q.sum()))
                r = np.subtract(r, q, out=r_buf[:n])
        if flat.size and len(self._parts) == kept:
            self._zeros.append(math.fsum(memoryview(flat)))

    def value(self) -> float:
        if self._rest is not None:
            return math.fsum(itertools.chain(self._parts, *map(memoryview, self._rest)))
        return math.fsum(self._parts or self._zeros)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of two vectors, by numpy's own one-thread loop.

    BLAS's ``np.dot`` may split a long vector across threads, so its
    rounding would depend on the thread count.
    """
    return float(np.einsum("i,i", a, b))


def logsumexp(a: np.ndarray, axis: int | None = None):
    """log(sum(exp(a))), max-shifted; handles -inf blocks cleanly."""
    a = np.asarray(a, dtype=float)
    if axis is None:
        return float(logsumexp(a.reshape(-1), axis=0))
    m = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    e = a - shift
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(e, axis=axis)) + np.squeeze(shift, axis=axis)
    return out


# The last `_TAIL_LEVELS` levels of a blocked walk (:func:`prefix_expansion`)
# are grown one block of parents at a time, each block `_TAIL_BLOCK`
# sequences (128 KB of log-probabilities) or one parent.
_TAIL_LEVELS = 2
_TAIL_BLOCK = 2**14


def sequence_log_probs(model: "ConditionalModel", budget: EnumerationBudget | None = None) -> np.ndarray:
    """log P(w) for every sequence, lexicographic order, shape (M**T,).

    Entries are -inf exactly where the model assigns zero probability.
    Each block of :func:`_log_prob_blocks` is written into its slice of
    the output; every entry is the same sum in the same order as on a
    whole-level walk.
    """
    size = model.spec.M**model.spec.T
    (budget or DEFAULT_BUDGET).check(size, "prefix enumeration")  # before the output is allocated
    out = np.empty(size)
    for _ in _log_prob_blocks(model, budget, out):
        pass
    return out


def _log_prob_blocks(model: "ConditionalModel", budget: EnumerationBudget | None = None,
                     out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, log P(w) of sequences lo, lo+1, ...), one block of the blocked walk at a time.

    A block is a last-level piece of the log-weighted
    :func:`prefix_expansion`, its log-weights extended by its rows; it is
    written into its slice of `out` if given, else into a fresh array, so
    a reader that sums the blocks as they pass holds no lattice vector.
    """
    M, T = model.spec.M, model.spec.T
    for t, lo, _, lp, rows in prefix_expansion(model, budget, log=True):
        if t == T:
            last = None if out is None else out[lo * M:(lo + rows.shape[0]) * M].reshape(-1, M)
            yield lo * M, _extend(lp, rows, last)


def _extend(lp: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The children's log-probabilities: entry i*M + j is lp[i] + log rows[i, j].

    They are written into `out`, an (n, M) array, or into a fresh one;
    `lp` and `rows` are not written.
    """
    with np.errstate(divide="ignore"):
        step = np.log(rows, out=out)
    step += lp[:, None]
    return step.reshape(-1)


def _state_slice(state, lo: int, hi: int):
    """The batch state of prefixes lo..hi-1: each array of the nested state as a view."""
    if isinstance(state, tuple):
        return tuple(_state_slice(s, lo, hi) for s in state)
    if isinstance(state, np.ndarray):
        return state[lo:hi]
    return state


def prefix_expansion(
    model: "ConditionalModel",
    budget: EnumerationBudget | None = None,
    *others: "ConditionalModel",
    last: int | None = None,
    log: bool = False,
    whole: bool = False,
) -> Iterator[tuple[int, int, tuple, np.ndarray, np.ndarray]]:
    """The one prefix-lattice walk: yield (t, lo, states, weights, next_rows) pieces.

    Level t, for t = 1..last (default T), holds every length-(t-1)
    prefix in lexicographic order, so prefix i has code i.  A piece is
    its prefixes lo, lo+1, ...: ``states`` holds the batch state of
    `model`, then of each of `others`, at them, each a view of the
    level's; ``weights`` are their probabilities under `model`, or the
    logs of those if `log`, and ``next_rows`` its rows there.  Levels
    below last - `_TAIL_LEVELS` come whole (lo = 0).  From that level
    on, one block of its parents at a time is grown to level `last`, so
    the pieces of a block come level by level and a block is
    `_TAIL_BLOCK` values of level `last`'s rows or one parent.  With
    `whole`, one block grows from level 1, whose one prefix is the parent
    of all, so every level is one piece.  The budget is checked against
    M**last states when the walk is made, before it starts.
    """
    M, last = model.spec.M, model.spec.T if last is None else last
    (budget or DEFAULT_BUDGET).check(M**last, "prefix enumeration")
    models = (model, *others)
    split = 1 if whole else max(last - _TAIL_LEVELS, 1)

    def pieces():
        states = tuple(m.init_state(1) for m in models)
        # Level `split` is stepped one block at a time, so the whole-level
        # walk does not read its rows.
        walk = _grow(models, states, 1, split, np.zeros(1) if log else np.ones(1), log,
                     read_last=False)
        for t, states, level_weights, rows in walk:
            if t < split:
                yield t, 0, states, level_weights, rows
        n = M ** (split - 1)
        step = max(1, _TAIL_BLOCK // M ** (last - split + 1))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            block = _grow(models, _state_slice(states, lo, hi), split, last, level_weights[lo:hi], log)
            for t, block_states, block_weights, block_rows in block:
                yield t, lo * M ** (t - split), block_states, block_weights, block_rows
                # Released before the block grows its next level.
                del block_states, block_weights, block_rows

    return pieces()


def _grow(models: tuple, states: tuple, first: int, last: int, weights: np.ndarray, log: bool,
          read_last=True):
    """The one loop that grows a prefix lattice, for :func:`prefix_expansion`.

    Starts from the states and weights of `models` at level `first` and
    yields (t, states, weights, rows) for levels first..last.  Below the
    last level one lattice step of models[0] gives its rows and
    children, and the others advance; the last level's rows are read
    only if `read_last`, else None is yielded for them.  The weights are
    multiplied out, or their logs extended (:func:`_extend`) if `log`.
    """
    for t in range(first, last):
        # Prefix i followed by token j is child i*M + j, and no model
        # repeats a parent's (n, M) rows.  The old level is released only
        # once the new one is built.
        rows, child = models[0].step(states[0], None)
        yield t, states, weights, rows
        states = (child, *(m.advance(s, None) for m, s in zip(models[1:], states[1:])))
        weights = _extend(weights, rows) if log else (weights[:, None] * rows).reshape(-1)
    yield last, states, weights, models[0].rows(states[0]) if read_last else None


def sample_expansion(
    samples: np.ndarray, *models: "ConditionalModel"
) -> Iterator[tuple[int, int, tuple, np.ndarray, np.ndarray]]:
    """The sample counterpart of :func:`prefix_expansion`, each level one piece (lo = 0).

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
        # A column of a column-major sample is read as a view; any other
        # layout is copied once per step for both reads.
        tokens = np.ascontiguousarray(samples[:, t - 1])
        yield t, 0, states, weights, np.take(one_hot, tokens, axis=0)
        if t < T:
            states = tuple(m.advance(s, tokens) for m, s in zip(models, states))


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
    when it scores with the walked model.

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
            _finite(self.table, "table")
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
        # With no entry below the floor, a log_prob functional is `lp`
        # itself, not a copy: callers never write into either.
        floor = math.log(self.p_min)
        if np.any(lp < floor):
            lp = np.maximum(lp, floor)
        return self._checked(lp if self.kind == "log_prob" else -lp)

    def _checked(self, out: np.ndarray) -> np.ndarray:
        if self.bound is not None and out.size:
            # The largest |f| from the two ends, with no |out| copy.
            worst = float(max(out.max(), -out.min()))
            if worst > self.bound + 1e-12:
                raise ValueError(
                    f"functional exceeded its declared bound: |f| reached {worst} "
                    f"> {self.bound}"
                )
        return out

    def descriptor(self) -> dict:
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
    return _cross_entropy_from_log_probs(
        sequence_log_probs(p, budget), sequence_log_probs(q, budget), p.spec.T
    )


def kl_exact(
    p: "ConditionalModel", q: "ConditionalModel", budget: EnumerationBudget | None = None
) -> float:
    """KL(p||q) in nats, total over the sequence (not per token)."""
    if p.spec != q.spec:
        raise ValueError("models must share the same sequence spec")
    return _kl_from_log_probs(sequence_log_probs(p, budget), sequence_log_probs(q, budget))


def _support_fsum(lpp, *xs) -> list[float]:
    """The correctly rounded sums of p * x over the support of p = exp(lpp), one per x.

    `lpp` is a vector, or an iterator of its (lo, block) pieces in order
    (:func:`_log_prob_blocks`), so it need not be held whole.  One pass
    of `_FSUM_BLOCK` values at a time, which takes each block's
    exponentials once for every x and builds its terms in an array of
    this function's own.  An x is a vector or None, which stands for
    lpp itself; an x given as a pair (a, b) of those stands for a - b,
    formed one block at a time, so no whole difference is built.  Off
    the support, where p * x may be nan, the terms are set to -0.0, the
    exact additive identity, so no masked copy is made and each sum is
    bitwise the sum of the support's terms, the sign of a zero included.
    An infinite x on the support makes its sum infinite with its sign.
    """
    sums = [_Fsum() for _ in xs]
    for at, piece in lpp if isinstance(lpp, Iterator) else ((0, lpp),):
        for lo in range(0, piece.shape[0], _FSUM_BLOCK):
            lpp_block = piece[lo:lo + _FSUM_BLOCK]
            block = slice(at + lo, at + lo + lpp_block.shape[0])
            part = lambda v: lpp_block if v is None else v[block]  # noqa: E731
            p = np.exp(lpp_block)
            off = p == 0.0
            for x, total in zip(xs, sums):
                with np.errstate(invalid="ignore"):  # -inf - -inf, 0 * inf off the support
                    if isinstance(x, tuple):
                        terms = np.subtract(part(x[0]), part(x[1]))
                        terms *= p
                    else:
                        terms = p * part(x)
                terms[off] = -0.0
                total.add(terms)
    return [total.value() for total in sums]


def _entropy_from_log_probs(lp) -> float:
    """Entropy of a lattice log-probability vector or its pieces, as :func:`entropy_exact`."""
    return -_support_fsum(lp, None)[0]


def _cross_entropy_from_log_probs(lpp: np.ndarray, lpq: np.ndarray, T: int) -> float:
    """Per-token CE between two lattice log-probability vectors, as :func:`cross_entropy_exact`."""
    # A zero of q on p's support is a -inf term, so the sum is -inf.
    return -_support_fsum(lpp, lpq)[0] / T


def _kl_from_log_probs(lpp: np.ndarray, lpq: np.ndarray) -> float:
    """KL between two lattice log-probability vectors, as :func:`kl_exact`."""
    return _support_fsum(lpp, (lpp, lpq))[0]


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
    # The terms p(z, c) log p(z | c), 0 off the support, in one array built
    # in place; ravel order "K" reads it without a copy.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(joint)
        terms -= np.log(pc)
        terms *= joint
    terms[~(joint > 0.0)] = 0.0
    return -_fsum(terms.ravel(order="K"))
