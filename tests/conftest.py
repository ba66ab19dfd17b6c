"""Shared instance builders and independent brute-force oracles.

The oracle helpers here deliberately avoid the package's enumeration
code paths: probabilities are multiplied out with plain Python loops
from raw tables or via single next_dist calls, so they can serve as an
independent cross-check of everything in seqcal.exact.  The exact
memory's oracles, :func:`prediction_joint` and
:func:`conditional_mi_exact`, are the exception: they read the
package's whole-level walk, against which the memory bound's blocked
report is checked.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import seqcal
from seqcal import MarkovModel, make_spec, stationary_distribution

# Property tests draw the same examples on every run, so a new property
# cannot make the suite flaky; each test keeps its own max_examples.
settings.register_profile("seqcal", derandomize=True, deadline=None)
settings.load_profile("seqcal")


def all_seqs(M, T):
    return list(itertools.product(range(M), repeat=T))


def enumerate_sequences(M, T, budget=None):
    """All length-T sequences in lexicographic order, shape (M**T, T)."""
    (budget or seqcal.exact.DEFAULT_BUDGET).check(M**T, "sequence enumeration")
    codes = np.arange(M**T, dtype=np.int64)
    powers = M ** np.arange(T - 1, -1, -1, dtype=np.int64)
    return (codes[:, None] // powers) % M


def functional_values(f, seqs):
    """The functional f at every row of an (n, T) token array, by direct scoring.

    A table is indexed by each row's lexicographic code, and a
    log-probability scores the rows with its model; the package itself
    evaluates functionals only on its prefix lattice.
    """
    seqs = np.asarray(seqs, dtype=np.int64)
    if f.kind == "table":
        powers = f.spec.M ** np.arange(f.spec.T - 1, -1, -1, dtype=np.int64)
        return f._checked(f.table[seqs @ powers])
    return f._from_log_probs(f.model.seq_log_prob_batch(seqs))


def model_probs(model):
    """{sequence tuple: probability} using only next_dist and Python math."""
    M, T = model.spec.M, model.spec.T
    out = {}
    for w in all_seqs(M, T):
        p = 1.0
        for t in range(T):
            p *= float(model.next_dist(w[:t])[w[t]])
        out[w] = p
    return out


def entropy_oracle(probs):
    return -math.fsum(p * math.log(p) for p in probs.values() if p > 0.0)


def cross_entropy_oracle(p_probs, q_probs, T):
    total = 0.0
    for w, p in p_probs.items():
        if p > 0.0:
            q = q_probs[w]
            if q == 0.0:
                return math.inf
            total += p * math.log(1.0 / q)
    return total / T


def kl_oracle(p_probs, q_probs):
    total = 0.0
    for w, p in p_probs.items():
        if p > 0.0:
            q = q_probs[w]
            if q == 0.0:
                return math.inf
            total += p * math.log(p / q)
    return total


def conditional_entropy_oracle(joint):
    """H(Z|C) of a 2-d (Z, C) joint by the where-masked expression and math.fsum."""
    pc = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(joint > 0.0, joint * (np.log(joint) - np.log(pc)), 0.0)
    return -math.fsum(terms.ravel().tolist())


def prediction_joint(truth, predictor, tau, t, budget=None):
    """Joint (Z, Y, X) of the predictor's step-t token with the true past.

    Z is the predictor's next token at step t, Y the most recent
    min(tau, t-1) tokens, X the deep past before them; (X, Y) carries the
    truth's prefix distribution, from the whole-level walk to level t
    against a budget of M**t states.  Feeding this to
    :func:`conditional_mi_exact` yields the exact memory at gap tau for
    this step.
    """
    if predictor.spec != truth.spec:
        raise ValueError("models must share the same sequence spec")
    if not 1 <= t <= truth.spec.T:
        raise ValueError(f"step t must lie in 1..{truth.spec.T}")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    for _, _, (_, state), weights, _ in seqcal.exact.prefix_expansion(truth, budget, predictor,
                                                                      last=t, whole=True):
        pass
    return seqcal.memory._joint(weights, predictor.rows(state), tau, t)


def conditional_mi_exact(joint):
    """I(Z; X | Y) in nats from an explicit joint indexed (Z, Y, X).

    Computed as H(Z|Y) - H(Z|Y,X), H(Z|Y) from the joint's sum over X
    and H(Z|Y,X) from its (Z, Y*X) view.  The joint must be a normalized
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
    # joint, so each marginal over Z is summed along the same memory axis
    # as in the 3-d layout.
    entropy = seqcal.exact._conditional_entropy
    return entropy(joint.sum(axis=2)) - entropy(joint.reshape(joint.shape[0], -1, order="A"))


def random_markov(rng, M, T, order, concentration=1.0):
    return MarkovModel.random(make_spec(M, T), order, rng, concentration=concentration)


MODEL_KINDS = [
    "markov",
    "limited_memory",
    "mixture-0",
    "mixture-0.3",
    "mixture-1",
    "per_token_mixture",
    "drift-0",
    "drift-1/T",
    "drift-1",
    "global_tilt",
    "local_tilt",
    "memory_tilt",
]


def model_of_kind(kind, rng, M, T, zero_frac=0.0):
    """A model of `kind` on a random order-2 base.

    With `zero_frac`, about that share of the base's table entries is set
    to 0, each row keeping its largest entry, and the rows renormalized.
    """
    base = random_markov(rng, M, T, 2)
    if zero_frac:
        tables = []
        for table in base.tables:
            zero = rng.random(table.shape) < zero_frac
            zero[np.arange(table.shape[0]), table.argmax(axis=1)] = False
            kept = np.where(zero, 0.0, table)
            tables.append(kept / kept.sum(axis=1, keepdims=True))
        base = MarkovModel(base.spec, base.order, tables)
    name, _, param = kind.partition("-")
    if name == "markov":
        return base
    if name == "limited_memory":
        return seqcal.fit_limited_memory(base, 1)
    if name == "mixture":
        return seqcal.MixtureModel(base, float(param))
    if name == "per_token_mixture":
        return seqcal.PerTokenMixture(base, 0.3)
    if name == "drift":
        return seqcal.DriftModel(base, None if param == "1/T" else float(param))
    drift = seqcal.DriftModel(base, 0.25)
    if name == "global_tilt":
        return seqcal.GlobalTiltModel(drift, seqcal.FunctionalF.log_prob(base), -0.7)
    if name == "local_tilt":
        return seqcal.LocalTiltModel(drift, 0.6)
    comparator = seqcal.fit_limited_memory(base, 1)
    return seqcal.MemoryTiltModel(drift, comparator, -0.8, active_steps=(2, 3, 4))


def random_pair(rng, M=None, T=None, order=None, scale=0.25, concentration=1.2):
    """A random truth and a perturbed model of it, sharing support."""
    M = int(rng.integers(2, 5)) if M is None else M
    T = int(rng.integers(2, 7)) if T is None else T
    order = int(rng.integers(0, min(2, T - 1) + 1)) if order is None else order
    truth = random_markov(rng, M, T, order, concentration)
    return truth, truth.perturbed(rng, scale)


def stationary_sharp_truth(spec, rng, peak_lo=0.75, peak_hi=0.95):
    """Order-1 chain with uniformly sharp rows, started stationary."""
    M = spec.M
    transition = np.empty((M, M))
    for j in range(M):
        peak = rng.uniform(peak_lo, peak_hi)
        row = np.full(M, (1.0 - peak) / (M - 1))
        row[int(rng.integers(M))] = peak
        transition[j] = row
    pi = stationary_distribution(transition)
    return MarkovModel(spec, 1, [pi[None, :], transition])


def one_hot_model(spec, token=0):
    """All probability mass on a single token at every step."""
    M = spec.M
    row = np.zeros(M)
    row[token] = 1.0
    return MarkovModel(spec, 0, [row[None, :]])


def heap_peak(fn):
    """(fn(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_calls(model, *names):
    """Count the calls of the model's methods `names` together, in a one-element list.

    One step may be spread over several methods (``step`` and
    ``advance``), so their calls are summed.  A call that a counted
    method makes to another counted method of the same model counts too.
    """
    calls = [0]
    for name in names:
        method = getattr(model, name)

        def counted(*args, _method=method):
            calls[0] += 1
            return _method(*args)

        setattr(model, name, counted)
    return calls


def assert_states_equal(a, b):
    """Two model states are equal in structure, dtype and every entry.

    NaN equals NaN: a Mixture at gamma = 0 carries NaN log-odds after a
    zero base entry, on every path alike.
    """
    assert type(a) is type(b)
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_states_equal(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    else:
        assert a == b


@pytest.fixture
def few_samples(monkeypatch):
    """Sample-mode per-step fits and memory bounds accept any number of sequences."""
    monkeypatch.setattr(seqcal.calibrate, "_MIN_SAMPLES", 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
