import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqcal as sc
from seqcal.exact import (
    _FSUM_BLOCK,
    _FSUM_DIRECT,
    FunctionalF,
    _conditional_entropy,
    _Fsum,
    _cross_entropy_from_log_probs,
    _entropy_from_log_probs,
    _fsum,
    _kl_from_log_probs,
    _support_fsum,
    log_partition_exact,
    logsumexp,
    prefix_expansion,
    sample_expansion,
    sequence_log_probs,
)

from conftest import (
    all_seqs,
    assert_states_equal,
    conditional_entropy_oracle,
    conditional_mi_exact,
    cross_entropy_oracle,
    entropy_oracle,
    enumerate_sequences,
    heap_peak,
    kl_oracle,
    model_of_kind,
    model_probs,
    one_hot_model,
    prediction_joint,
    random_markov,
    random_pair,
)


class TestEntropy:
    def test_uniform(self):
        model = sc.MarkovModel.uniform(sc.make_spec(3, 2))
        assert sc.entropy_exact(model) == pytest.approx(2 * math.log(3), abs=1e-12)
        assert sc.entropy_rate_exact(model) == pytest.approx(math.log(3), abs=1e-12)

    def test_deterministic(self):
        model = one_hot_model(sc.make_spec(3, 4))
        assert sc.entropy_exact(model) == 0.0
        assert sc.entropy_rate_exact(model) == 0.0

    def test_matches_independent_enumeration(self, rng):
        model = random_markov(rng, 3, 4, 1)
        assert sc.entropy_exact(model) == pytest.approx(
            entropy_oracle(model_probs(model)), abs=1e-11
        )

    def test_drift_raises_entropy_rate(self, rng):
        base = random_markov(rng, 3, 4, 1, concentration=0.4)
        drift = sc.DriftModel(base)  # default switch probability 1/T
        assert drift.switch_prob == pytest.approx(0.25)
        assert sc.entropy_rate_exact(drift) > sc.entropy_rate_exact(base)
        assert sc.entropy_rate_exact(drift) == pytest.approx(
            entropy_oracle(model_probs(drift)) / 4, abs=1e-11
        )


class TestCrossEntropyAndKl:
    def test_self_cross_entropy_is_entropy_rate(self, rng):
        model = random_markov(rng, 3, 4, 1)
        assert sc.cross_entropy_exact(model, model) == sc.entropy_rate_exact(model)

    def test_against_uniform(self, rng):
        p = random_markov(rng, 4, 3, 1)
        q = sc.MarkovModel.uniform(sc.make_spec(4, 3))
        assert sc.cross_entropy_exact(p, q) == pytest.approx(math.log(4), abs=1e-12)

    def test_mixture_cross_entropy_matches_enumeration(self, rng):
        p = random_markov(rng, 2, 3, 1)
        mix = sc.MixtureModel(p, 0.1)
        expected = cross_entropy_oracle(model_probs(p), model_probs(mix), 3)
        assert sc.cross_entropy_exact(p, mix) == pytest.approx(expected, abs=1e-11)

    def test_kl_self_is_zero(self, rng):
        model = random_markov(rng, 3, 4, 2)
        assert sc.kl_exact(model, model) == 0.0

    def test_kl_bernoulli(self):
        spec = sc.make_spec(2, 1)
        p = sc.MarkovModel(spec, 0, [np.array([[0.5, 0.5]])])
        q = sc.MarkovModel(spec, 0, [np.array([[0.75, 0.25]])])
        expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        assert sc.kl_exact(p, q) == pytest.approx(expected, abs=1e-12)

    def test_kl_nonnegative_gibbs(self, rng):
        for _ in range(100):
            p, q = random_pair(rng)
            assert sc.kl_exact(p, q) >= 0.0

    def test_infinite_when_support_violated(self):
        spec = sc.make_spec(2, 2)
        p = sc.MarkovModel.uniform(spec)
        q = one_hot_model(spec)
        assert sc.cross_entropy_exact(p, q) == math.inf
        assert sc.kl_exact(p, q) == math.inf

    def test_ce_decomposition(self, rng):
        for _ in range(20):
            p, q = random_pair(rng)
            ce = sc.cross_entropy_exact(p, q)
            ent = sc.entropy_rate_exact(p)
            kl = sc.kl_exact(p, q)
            assert ce == pytest.approx(ent + kl / p.spec.T, abs=1e-9)


class TestMoments:
    def test_constant_functional(self, rng):
        model = random_markov(rng, 3, 3, 1)
        f = FunctionalF.from_table(np.full(27, 1.7), model.spec)
        mu, var = sc.mean_var_exact(model, f)
        assert mu == pytest.approx(1.7, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_neg_log_prob_mean_is_entropy(self, rng):
        model = sc.MixtureModel(random_markov(rng, 2, 4, 1), 0.05)
        f = FunctionalF.neg_log_prob(model)
        mu, _ = sc.mean_var_exact(model, f)
        assert mu == pytest.approx(4 * sc.entropy_rate_exact(model), abs=1e-10)

    def test_random_table_moments(self, rng):
        model = random_markov(rng, 2, 3, 1)
        values = rng.normal(size=8)
        f = FunctionalF.from_table(values, model.spec)
        probs = model_probs(model)
        mu_oracle = math.fsum(
            probs[w] * values[int("".join(map(str, w)), 2)] for w in all_seqs(2, 3)
        )
        var_oracle = math.fsum(
            probs[w] * (values[int("".join(map(str, w)), 2)] - mu_oracle) ** 2
            for w in all_seqs(2, 3)
        )
        mu, var = sc.mean_var_exact(model, f)
        assert mu == pytest.approx(mu_oracle, abs=1e-12)
        assert var == pytest.approx(var_oracle, abs=1e-12)

    def test_bound_declared_and_checked(self, rng):
        model = random_markov(rng, 2, 2, 0)
        f = FunctionalF.from_table([0.5, -0.5, 2.0, 0.0], model.spec, bound=1.0)
        with pytest.raises(ValueError, match="bound"):
            sc.mean_var_exact(model, f)

    def test_bound_checked_from_the_negative_side(self, rng):
        # Only the most negative value breaks the bound, both in a table
        # and in a log-probability functional, whose values are all
        # negative; a check of the largest value alone passes both.
        model = random_markov(rng, 2, 2, 0)
        f = FunctionalF.from_table([0.5, -2.0, 1.0, 0.0], model.spec, bound=1.0)
        with pytest.raises(ValueError, match=r"\|f\| reached 2\.0 "):
            sc.mean_var_exact(model, f)
        worst = -float(sequence_log_probs(model).min())
        with pytest.raises(ValueError, match="bound"):
            sc.mean_var_exact(model, FunctionalF.log_prob(model, bound=0.5 * worst))
        sc.mean_var_exact(model, FunctionalF.log_prob(model, bound=worst))


class TestLogPartition:
    def test_alpha_zero(self, rng):
        model = random_markov(rng, 3, 4, 1)
        f = FunctionalF.neg_log_prob(model)
        assert sc.log_partition_exact(model, f, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_functional(self, rng):
        model = random_markov(rng, 2, 3, 1)
        f = FunctionalF.from_table(np.full(8, 2.5), model.spec)
        assert sc.log_partition_exact(model, f, 0.7) == pytest.approx(0.7 * 2.5, abs=1e-12)

    def test_derivatives_match_tilted_moments(self, rng):
        # d/da log Z = tilted mean, d^2/da^2 = tilted variance, checked by
        # central finite differences at a 1e-6 step.
        model = random_markov(rng, 3, 3, 1)
        mix = sc.MixtureModel(model, 0.1)
        f = FunctionalF.log_prob(mix)
        alpha, h = 0.3, 1e-6
        lz = lambda a: log_partition_exact(mix, f, a)  # noqa: E731
        tilt = sc.GlobalTiltModel(mix, f, alpha)
        mu, var = sc.mean_var_exact(tilt, f)
        fd_mu = (lz(alpha + h) - lz(alpha - h)) / (2 * h)
        assert abs(fd_mu - mu) / abs(mu) <= 1e-5
        h2 = 1e-3
        fd_var = (lz(alpha + h2) - 2 * lz(alpha) + lz(alpha - h2)) / h2**2
        assert abs(fd_var - var) / var <= 1e-4


class TestConditionalMi:
    def test_window_predictor_has_zero_memory(self, rng):
        truth = random_markov(rng, 2, 4, 2)
        predictor = sc.fit_limited_memory(truth, 1)
        joint = prediction_joint(truth, predictor, tau=1, t=4)
        assert conditional_mi_exact(joint) == pytest.approx(0.0, abs=1e-12)

    def test_copy_channel(self):
        # Z copies the first token of X while Y is independent noise:
        # I(Z; X | Y) = H(first token of X).
        px = np.array([0.2, 0.8])
        py = np.array([0.5, 0.5])
        joint = np.zeros((2, 2, 2))
        for x in range(2):
            for y in range(2):
                joint[x, y, x] = px[x] * py[y]
        expected = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
        assert conditional_mi_exact(joint) == pytest.approx(expected, abs=1e-12)

    def test_full_context_predictor_matches_double_marginalization(self, rng):
        truth = random_markov(rng, 2, 4, 2)
        predictor = truth.perturbed(rng, 0.4)
        t, tau = 4, 1
        joint = prediction_joint(truth, predictor, tau=tau, t=t)
        # Independent oracle: explicit loops over (z, y, x).
        prefix_probs = {}
        for w in all_seqs(2, t - 1):
            p = 1.0
            for i in range(t - 1):
                p *= float(truth.next_dist(w[:i])[w[i]])
            prefix_probs[w] = p
        joint_oracle = np.zeros((2, 2, 4))
        for w, p in prefix_probs.items():
            x_code = w[0] * 2 + w[1]
            row = predictor.next_dist(w)
            for z in range(2):
                joint_oracle[z, w[2], x_code] += p * row[z]
        np.testing.assert_allclose(joint, joint_oracle, atol=1e-12)

        pyx = joint_oracle.sum(axis=0)
        h_zyx = -math.fsum(
            joint_oracle[z, y, x] * math.log(joint_oracle[z, y, x] / pyx[y, x])
            for z in range(2)
            for y in range(2)
            for x in range(4)
            if joint_oracle[z, y, x] > 0
        )
        pzy = joint_oracle.sum(axis=2)
        py = pzy.sum(axis=0)
        h_zy = -math.fsum(
            pzy[z, y] * math.log(pzy[z, y] / py[y])
            for z in range(2)
            for y in range(2)
            if pzy[z, y] > 0
        )
        assert conditional_mi_exact(joint) == pytest.approx(h_zy - h_zyx, abs=1e-11)

    def test_requires_normalized_joint(self):
        with pytest.raises(ValueError, match="sum to 1"):
            conditional_mi_exact(np.ones((2, 2, 2)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_normalization_tolerance_is_1e_9(self, sign):
        # The sums-to-1 check allows a total within 1e-9 of 1 and no more.
        joint = np.full((2, 3, 4), 1.0 / 24)
        with pytest.raises(ValueError, match="sum to 1"):
            conditional_mi_exact(joint * (1.0 + sign * 2e-9))
        assert conditional_mi_exact(joint * (1.0 + sign * 1e-12)) == pytest.approx(
            0.0, abs=1e-12
        )


    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_mi_is_bitwise_the_whole_joint_formula(self, layout):
        # H(Z|Y) from the joint's own sum over X, less H(Z|Y,X) from its
        # (Z, Y*X) view, each by the masked formula, as before the MI was
        # accumulated by blocks; whatever the joint's memory order.
        rng = np.random.default_rng(13)
        for shape in ((2, 1, 3), (3, 4, 5), (4, 16, 64), (9, 9, 81), (2, 2, 3000)):
            joint = rng.random(shape) ** 3
            joint[rng.random(shape) < 0.2] = 0.0
            joint /= joint.sum()
            if layout == "F":
                joint = np.asfortranarray(joint)
            yx = joint.reshape(shape[0], -1, order="A")
            expected = conditional_entropy_oracle(joint.sum(axis=2)) - conditional_entropy_oracle(yx)
            assert conditional_mi_exact(joint).hex() == expected.hex(), shape

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_conditional_entropy_is_bitwise_the_masked_formula(self, layout):
        # Built in place, the terms are bitwise the where-masked expression's,
        # zeros of the joint and of whole columns included.
        rng = np.random.default_rng(11)
        for shape in ((2, 3), (4, 64), (3, 2000)):
            joint = rng.random(shape) ** 3
            joint[rng.random(shape) < 0.3] = 0.0
            joint[:, 0] = 0.0
            joint /= joint.sum()
            if layout == "F":
                joint = np.asfortranarray(joint)
            expected = conditional_entropy_oracle(joint)
            assert _conditional_entropy(joint).hex() == expected.hex()

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_conditional_entropy_heap_is_one_terms_array(self, layout):
        # One array of terms and two boolean masks: 1.5 joints.  The
        # masked expression's temporaries took 2.6.
        rng = np.random.default_rng(12)
        joint = rng.random((4, 4**8))
        joint /= joint.sum()
        if layout == "F":
            joint = np.asfortranarray(joint)
        _, peak = heap_peak(lambda: _conditional_entropy(joint))
        assert peak < 1.7 * joint.nbytes


class TestBudget:
    def test_fail_fast(self, rng):
        model = random_markov(rng, 3, 5, 1)
        tiny = sc.EnumerationBudget(max_states=10)
        with pytest.raises(sc.BudgetExceededError, match="budget"):
            sc.entropy_exact(model, tiny)
        with pytest.raises(sc.BudgetExceededError):
            sc.cross_entropy_exact(model, model, tiny)

    def test_validation(self):
        with pytest.raises(ValueError):
            sc.EnumerationBudget(0)

    def test_fails_before_allocating_the_output(self, rng):
        # 4**40 log-probabilities could not even be allocated; the budget
        # must refuse them first.
        with pytest.raises(sc.BudgetExceededError, match="budget"):
            sequence_log_probs(random_markov(rng, 4, 40, 1))

    # Each routine on M=3, T=4 with the number of states it enumerates.
    BOUNDARY_CASES = {
        "sequence_log_probs": (81, lambda m, b: sequence_log_probs(m, b)),
        "prefix_expansion": (81, lambda m, b: list(prefix_expansion(m, b))),
        "prefix_expansion_last": (9, lambda m, b: list(prefix_expansion(m, b, last=2))),
        "enumerate_sequences": (81, lambda m, b: enumerate_sequences(3, 4, b)),
        "drift_curve_exact": (81, lambda m, b: sc.drift_curve_exact(m, b)),
        "fit_limited_memory": (81, lambda m, b: sc.fit_limited_memory(m, 1, budget=b)),
        "GlobalTiltModel": (81, lambda m, b: sc.GlobalTiltModel(m, FunctionalF.log_prob(m), 0.5, b)),
        "memory_bound": (81, lambda m, b: sc.memory_bound(
            m, m.perturbed(np.random.default_rng(1), 0.3), sc.fit_limited_memory(m, 1), budget=b)),
    }

    @pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
    def test_exactly_at_the_limit(self, rng, name):
        # A budget of exactly the enumerated states passes; one less fails.
        states, call = self.BOUNDARY_CASES[name]
        model = random_markov(rng, 3, 4, 2)
        call(model, sc.EnumerationBudget(states))
        with pytest.raises(sc.BudgetExceededError, match=f"needs {states} states"):
            call(model, sc.EnumerationBudget(states - 1))


class TestPinskerProperties:
    def test_bounded_functional_gap(self, rng):
        # Mean gap under two models against B * sqrt(2 KL), plus the L1
        # consistency step of the same argument.
        for _ in range(50):
            p, q = random_pair(rng)
            spec = p.spec
            b = float(rng.uniform(0.5, 2.0))
            f = FunctionalF.from_table(
                rng.uniform(-b, b, size=spec.M**spec.T), spec, bound=b
            )
            mu_p, _ = sc.mean_var_exact(p, f)
            mu_q, _ = sc.mean_var_exact(q, f)
            kl = sc.kl_exact(p, q)
            assert abs(mu_p - mu_q) <= b * math.sqrt(2 * kl) + 1e-12
            l1 = float(
                np.abs(np.exp(sequence_log_probs(p)) - np.exp(sequence_log_probs(q))).sum()
            )
            assert l1 <= math.sqrt(2 * kl) + 1e-12

    def test_mixture_hard_bound(self, rng):
        # The mixture floor caps every surprisal at T log M + log(1/eps).
        for eps in (0.01, 0.1, 0.5):
            base, _ = random_pair(rng, M=3, T=4)
            mix = sc.MixtureModel(base, eps)
            worst = float(np.max(-sequence_log_probs(mix)))
            assert worst <= 4 * math.log(3) + math.log(1 / eps) + 1e-9


class TestWalkHeap:
    """The heap peak of a lattice walk is a small multiple of its output.

    Each bound sits between this walk's peak and that of a walk which
    builds its last levels whole (2.9, 4.3 and 6.1 outputs), so it fails
    on the latter.  The counts are deterministic: tracemalloc sees every
    numpy buffer.
    """

    @pytest.mark.parametrize("nesting, bound", [
        ("markov", 1.8),
        ("drift", 2.4),
        ("mixture", 2.9),
    ])
    def test_sequence_log_probs_peak(self, nesting, bound):
        model = random_markov(np.random.default_rng(3), 4, 8, 2, concentration=0.8)
        if nesting != "markov":
            model = sc.DriftModel(model, 0.1)
        if nesting == "mixture":
            model = sc.MixtureModel(model, 0.05)
        lp, peak = heap_peak(lambda: sequence_log_probs(model))
        assert lp.shape == (4**8,)
        assert peak < bound * lp.nbytes

    def test_nested_peak_at_T10(self):
        # The bound sits between this walk's 1.20 outputs and the 1.34 of
        # a walk whose Mixture and Drift states carry their base's rows.
        markov = random_markov(np.random.default_rng(3), 4, 10, 2, concentration=0.8)
        model = sc.MixtureModel(sc.DriftModel(markov, 0.1), 0.05)
        lp, peak = heap_peak(lambda: sequence_log_probs(model, sc.EnumerationBudget(4**10)))
        assert lp.shape == (4**10,)
        assert peak < 1.25 * lp.nbytes


def _level_by_level_log_probs(model):
    """log P(w) for every sequence, adding each whole level's log rows."""
    lp = np.zeros(1)
    for _t, _lo, _states, _weights, rows in prefix_expansion(model, whole=True):
        with np.errstate(divide="ignore"):
            lp = (lp[:, None] + np.log(rows)).reshape(-1)
    return lp


def _walked_models(rng, M, T):
    truth = random_markov(rng, M, T, 2, concentration=0.5)
    drift = sc.DriftModel(truth, 0.1)
    comparator = sc.fit_limited_memory(truth, 1)
    yield truth
    for gamma in (0.0, 0.05, 1.0):
        yield sc.MixtureModel(drift, gamma)
    yield sc.PerTokenMixture(drift, 0.2)
    for switch in (0.0, 0.1, 1.0):
        yield sc.DriftModel(truth, switch)
    yield sc.GlobalTiltModel(drift, FunctionalF.log_prob(drift), 0.7)
    yield sc.LocalTiltModel(drift, -0.4)
    yield sc.MemoryTiltModel(drift, comparator, 0.6, active_steps=tuple(range(2, T + 1)))


class TestBlockedWalk:
    """`sequence_log_probs` grows its last levels in blocks of parents.

    Whatever the block size, including blocks that do not divide a level
    and blocks of one parent, every entry is bitwise the level-by-level
    sum.
    """

    @pytest.mark.parametrize("M", [2, 3, 4])
    @pytest.mark.parametrize("T", [1, 2, 3, 5])
    def test_bitwise_the_level_by_level_walk(self, monkeypatch, M, T):
        rng = np.random.default_rng(100 * M + T)
        for model in _walked_models(rng, M, T):
            expected = _level_by_level_log_probs(model)
            for block in (1, 5, 2 * M**2 + 1, 7 * M**2, 2**14):
                monkeypatch.setattr(sc.exact, "_TAIL_BLOCK", block)
                lp = sequence_log_probs(model)
                assert np.array_equal(lp, expected), (model.kind, block)


class TestSupportSums:
    """Entropy, cross entropy and KL sum only over p's support, bitwise.

    Deterministic M = 2 rows at T = 1: every term off the support is
    0 * -inf, and a zero result keeps the sign of the support's sum.
    """

    spec = sc.make_spec(2, 1)

    def _lp(self, row):
        return sequence_log_probs(sc.MarkovModel(self.spec, 0, [[row]]))

    def test_zero_signs_and_infinities(self):
        p, q, u = self._lp([1.0, 0.0]), self._lp([0.0, 1.0]), self._lp([0.5, 0.5])
        kept = [x.copy() for x in (p, q, u)]
        h = _entropy_from_log_probs(p)
        assert h == 0.0 and math.copysign(1.0, h) == -1.0
        ce = _cross_entropy_from_log_probs(p, p, 1)
        assert ce == 0.0 and math.copysign(1.0, ce) == -1.0
        kl = _kl_from_log_probs(p, p)
        assert kl == 0.0 and math.copysign(1.0, kl) == 1.0
        assert _cross_entropy_from_log_probs(p, q, 1) == math.inf
        assert _kl_from_log_probs(p, q) == math.inf
        assert _cross_entropy_from_log_probs(p, u, 1) == math.log(2)
        assert _kl_from_log_probs(p, u) == math.log(2)
        assert _entropy_from_log_probs(u) == math.log(2)
        # No reduction writes into the vectors it is given.
        for x, y in zip((p, q, u), kept):
            np.testing.assert_array_equal(x, y)


class TestSupportSumsInOnePass:
    def test_each_sum_is_the_support_fsum_of_its_terms(self):
        # Several lattice vectors summed against one exp(lpp) pass over
        # blocks: each is math.fsum of its own support's terms.  A pair
        # (a, b) is summed as a - b, here a KL's log ratio, with
        # -inf - -inf off the support.
        rng = np.random.default_rng(8)
        size = 2 * _FSUM_BLOCK + 5
        lpp = np.log(rng.dirichlet(np.full(size, 0.3)))
        lpp[rng.random(size) < 0.2] = -np.inf
        lpq = np.log(rng.dirichlet(np.full(size, 0.3)))
        lpq[np.isneginf(lpp)] = -np.inf
        xs = [lpp, rng.standard_normal(size), np.where(rng.random(size) < 0.5, -np.inf, 1.0), (lpp, lpq)]
        xs[2][np.isfinite(lpp)] = 2.0
        sums = _support_fsum(lpp, *xs)
        p = np.exp(lpp)
        on = p > 0.0
        for x, total in zip(xs, sums):
            if isinstance(x, tuple):
                with np.errstate(invalid="ignore"):
                    x = x[0] - x[1]
            assert total == math.fsum((p[on] * x[on]).tolist())
        # -inf only off the support, so the last sum is finite.
        assert math.isfinite(sums[2])
        assert _support_fsum(lpp, np.full(size, -np.inf)) == [-math.inf]


class TestFsum:
    def test_matches_fsum_of_a_list(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-12, 12, size=(40, 30))
        cases = [
            x,
            x[::3, 1::2],
            x.T,
            np.empty((0, 4)),
            np.append(x.ravel(), -np.inf),
            [1.0, 1e100, 1.0, -1e100],
        ]
        for values in cases:
            assert _fsum(values) == math.fsum(np.asarray(values, dtype=float).ravel().tolist())

    def test_opposite_infinities_raise(self):
        with pytest.raises(ValueError):
            _fsum(np.array([1.0, np.inf, -np.inf]))

    def test_streams_without_a_list(self):
        # A list of 2**20 Python floats would take about 32 MB.
        values = np.random.default_rng(6).random(2**20)
        _, peak = heap_peak(lambda: _fsum(values))
        assert peak < 2**20

    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 10**6),
        size=st.sampled_from([
            _FSUM_DIRECT - 1, _FSUM_DIRECT, _FSUM_DIRECT + 1,
            _FSUM_BLOCK - 1, _FSUM_BLOCK, _FSUM_BLOCK + 1,
            2 * _FSUM_BLOCK - 1, 3 * _FSUM_BLOCK + 7,
        ]),
        decades=st.sampled_from([0, 1, 20, 300]),
        signs=st.sampled_from(["positive", "negative", "mixed", "cancelling"]),
        extra=st.sampled_from(["none", "zeros", "subnormals"]),
        scale=st.sampled_from([1.0, 2.0**-1000, 2.0**-1070]),
        layout=st.sampled_from(["flat", "C", "F", "strided"]),
    )
    def test_random_vectors_match_fsum_of_a_list(
        self, seed, size, decades, signs, extra, scale, layout
    ):
        # 300 decades need every level and pass values on; the small
        # scales put whole blocks among the subnormals.
        rng = np.random.default_rng(seed)
        x = rng.uniform(1.0, 2.0, size) * 10.0 ** rng.uniform(-decades, decades, size)
        x *= scale
        if signs == "negative":
            x = -x
        elif signs != "positive":
            x *= rng.choice([-1.0, 1.0], size)
        if signs == "cancelling":
            half = size // 2
            x[half:2 * half] = -x[:half]
            rng.shuffle(x)
        if extra == "zeros":
            x[rng.random(size) < 0.3] = rng.choice([0.0, -0.0])
        elif extra == "subnormals":
            picks = rng.random(size) < 0.3
            x[picks] = rng.integers(-2**52, 2**52, int(picks.sum())) * 5e-324
        assert_fsum_matches(_layout(x, layout))

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 10**6),
        size=st.sampled_from([_FSUM_BLOCK - 1, 2 * _FSUM_BLOCK - 1, _FSUM_BLOCK + 12_000]),
    )
    def test_one_sign_blocks_at_their_bound_sum_exactly(self, seed, size):
        # Negative values of one binade put every extracted q on the
        # finest grid and drive a block's partial sums close to sigma.
        # A leading block cancels the total down to the rounding error
        # of its sum, so an inexact level sum changes the result.
        neg = -np.random.default_rng(seed).uniform(1.5, 2.0, size)
        lead = np.zeros(_FSUM_BLOCK)
        lead[0] = -math.fsum(neg.tolist())
        assert_fsum_matches(np.concatenate([lead, neg]))

    @settings(max_examples=60)
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
        size=st.sampled_from([_FSUM_DIRECT, _FSUM_BLOCK + 1, 2 * _FSUM_BLOCK + 3]),
        negate=st.booleans(),
    )
    def test_drawn_values_match_fsum_of_a_list(self, values, size, negate):
        # Drawn floats reach subnormals, -0.0 and the largest finite
        # values, where math.fsum may overflow.
        x = np.resize(np.array(values), size)
        if negate:
            x[1::2] *= -1.0
        assert_fsum_matches(x)

    @pytest.mark.parametrize("size", [0, 1, _FSUM_DIRECT, _FSUM_BLOCK + 1])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zeros_match_fsum_of_a_list(self, size, zero):
        assert_fsum_matches(np.full(size, zero))
        assert_fsum_matches(np.where(np.arange(size) % 2, 0.0, -0.0))

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 10**6),
        size=st.sampled_from([_FSUM_DIRECT + 1, _FSUM_BLOCK + 1, 2 * _FSUM_BLOCK + 3]),
        special=st.sampled_from([[np.inf], [-np.inf], [np.inf, -np.inf], [np.nan],
                                 [1e308, 1e308], [1e308, -1e308], [2.0**990], [-2.0**1000]]),
        block=st.integers(0, 2),
    )
    def test_non_finite_and_huge_values_match_fsum(self, seed, size, special, block):
        # The same value, or the same exception type, wherever the
        # special values land among ordinary ones.
        x = np.random.default_rng(seed).standard_normal(size)
        at = min(block * _FSUM_BLOCK, size - len(special))
        x[at:at + len(special)] = special
        assert_fsum_matches(x)


def _fsum_of_pieces(pieces):
    """One `_Fsum` given the pieces in turn."""
    total = _Fsum()
    for piece in pieces:
        total.add(piece)
    return total.value()


class TestStreamingFsum:
    """`_Fsum` given arrays one at a time is math.fsum of their concatenation."""

    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 10**6),
        sizes=st.lists(
            st.sampled_from([0, 1, 7, _FSUM_DIRECT - 1, _FSUM_DIRECT, _FSUM_BLOCK + 3]),
            min_size=1, max_size=5,
        ),
        decades=st.sampled_from([0, 20, 300]),
        special=st.sampled_from([None, [np.inf], [-np.inf], [np.inf, -np.inf], [np.nan],
                                 [1e308, 1e308], [1e308, -1e308], [2.0**990], [-2.0**1000]]),
        where=st.integers(0, 4),
        zeros=st.sampled_from(["none", "some", "pieces"]),
    )
    def test_matches_fsum_of_the_concatenation(self, seed, sizes, decades, special, where, zeros):
        # Pieces short and long, empty or all zero, with inf, nan or huge
        # values landing in any piece.
        rng = np.random.default_rng(seed)
        pieces = [rng.standard_normal(n) * 10.0 ** rng.uniform(-decades, decades, n) for n in sizes]
        for x in pieces:
            if zeros == "some":
                x[rng.random(x.size) < 0.3] = rng.choice([0.0, -0.0])
            elif zeros == "pieces" and rng.random() < 0.5:
                x[:] = rng.choice([0.0, -0.0])
        if special is not None:
            x = pieces[where % len(pieces)]
            if x.size >= len(special):
                at = rng.integers(0, x.size - len(special) + 1)
                x[at:at + len(special)] = special
        as_list = np.concatenate(pieces).tolist()
        assert _fsum_outcome(_fsum_of_pieces, pieces) == _fsum_outcome(math.fsum, as_list)

    def test_pieces_may_reuse_one_buffer(self):
        # A caller may refill the array it passed; from a value that is not
        # finite on, the kept pieces are copies, so the -inf of row 4 meets
        # the inf of row 2.
        values = np.random.default_rng(9).standard_normal((6, _FSUM_DIRECT + 1))
        values[2, 5] = np.inf
        values[4, 7] = -np.inf

        def refilled():
            buf = np.empty(values.shape[1])
            for row in values:
                buf[:] = row
                yield buf

        assert _fsum_outcome(_fsum_of_pieces, refilled()) == _fsum_outcome(
            math.fsum, values.ravel().tolist()
        )

    def test_all_zero_pieces_keep_fsums_sign(self):
        for pieces in ([np.full(3, -0.0), np.full(_FSUM_BLOCK + 1, -0.0)],
                       [np.full(3, -0.0), np.zeros(0), np.full(2, 0.0)]):
            expected = math.fsum(np.concatenate(pieces).tolist())
            assert _fsum_of_pieces(pieces).hex() == expected.hex()


def _layout(x: np.ndarray, layout: str) -> np.ndarray:
    """The values of `x`, as a flat, C- or F-ordered or strided array."""
    if layout == "flat":
        return x
    if layout == "strided":
        # Every other column of a (rows, 2 * cols) array.
        wide = np.empty((x.size, 2)) if x.size % 2 else np.empty((x.size // 2, 4))
        wide[:, ::2] = x.reshape(wide.shape[0], -1)
        return wide[:, ::2]
    cols = next((d for d in range(2, 12) if x.size % d == 0), 1)
    rows = x.reshape(-1, cols)
    return np.asfortranarray(rows) if layout == "F" else rows


def _fsum_outcome(fsum, values):
    """The sum as its hex string, or the type of exception it raised."""
    try:
        return fsum(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def assert_fsum_matches(values):
    """`_fsum` gives math.fsum's value bit for bit, or raises its exception."""
    as_list = np.asarray(values, dtype=float).ravel().tolist()
    assert _fsum_outcome(_fsum, values) == _fsum_outcome(math.fsum, as_list)


class TestLogSumExp:
    def test_matches_direct(self, rng):
        x = rng.normal(size=100)
        assert logsumexp(x) == pytest.approx(math.log(np.exp(x).sum()), rel=1e-12)

    def test_neg_inf_blocks(self):
        arr = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
        out = logsumexp(arr, axis=1)
        assert out[0] == -math.inf
        assert out[1] == pytest.approx(math.log(2), abs=1e-12)
        assert logsumexp(np.array([-np.inf, -np.inf])) == -math.inf

    def test_enumerate_sequences_order(self):
        seqs = enumerate_sequences(2, 3)
        assert [tuple(s) for s in seqs] == all_seqs(2, 3)


def _same_state(a, b) -> bool:
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_state, a, b))
    return np.array_equal(a, b)


class TestPrefixExpansion:
    def test_last_level_cuts_the_full_walk(self, rng):
        truth = random_markov(rng, 3, 4, 2)
        others = (sc.LocalTiltModel(truth.perturbed(rng, 0.3), 0.7), random_markov(rng, 3, 4, 1))
        full = list(prefix_expansion(truth, None, *others, whole=True))
        for last in range(1, 5):
            cut = list(prefix_expansion(truth, None, *others, last=last, whole=True))
            assert [level[0] for level in cut] == list(range(1, last + 1))
            for (t, lo, states, weights, rows), level in zip(cut, full):
                assert (t, lo) == (level[0], 0)
                assert _same_state(states, level[2])
                assert np.array_equal(weights, level[3])
                assert np.array_equal(rows, level[4])


# Model kinds whose walks the one-walk properties cover.
_WALKED_KINDS = ["markov", "mixture-0.3", "per_token_mixture", "drift-1/T", "local_tilt",
                 "global_tilt"]
_last_levels = st.integers(1, 5).flatmap(lambda T: st.tuples(st.just(T), st.integers(1, T)))


def _reference_levels(models, last, log):
    """Each level's (states, weights, rows), from the models' own rows and advance, level by level."""
    states = tuple(m.init_state(1) for m in models)
    weights = np.zeros(1) if log else np.ones(1)
    for t in range(1, last + 1):
        rows = models[0].rows(states[0])
        yield states, weights, rows
        if t < last:
            with np.errstate(divide="ignore"):
                grown = weights[:, None] + np.log(rows) if log else weights[:, None] * rows
            weights = grown.reshape(-1)
            states = tuple(m.advance(s, None) for m, s in zip(models, states))


def _joined(states):
    """One state from consecutive pieces' states: each array concatenated along its prefixes."""
    first = states[0]
    if isinstance(first, tuple):
        return tuple(_joined([s[i] for s in states]) for i in range(len(first)))
    if isinstance(first, np.ndarray):
        return np.concatenate(states)
    assert all(s == first for s in states)
    return first


def _walk(model, *others, block, **kwargs):
    """`prefix_expansion`'s pieces, blocked at `block` values, or whole levels if `block` is None.

    Whole levels are walked with blocks of one value, which they ignore.
    """
    with mock.patch.object(sc.exact, "_TAIL_BLOCK", block or 1):
        return list(prefix_expansion(model, None, *others, whole=block is None, **kwargs))


class TestOneWalk:
    """Both modes of the one walk yield each level's prefixes in order, bitwise.

    At any block size, and in whole levels, each level's pieces tile it
    contiguously, with the states, weights and rows of a level-by-level
    walk of the models' own rows and advance; and the log-weights
    extended by the last level's log rows are every sequence's
    chain-rule log-probability.
    """

    @pytest.mark.parametrize("M", [2, 3, 4])
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
    @settings(max_examples=10)
    @given(cut=st.integers(0, 4), kind=st.sampled_from(_WALKED_KINDS), log=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_pieces_tile_each_level(self, M, T, cut, kind, log, seed):
        last = max(T - cut, 1)
        rng = np.random.default_rng(seed)
        models = (model_of_kind(kind, rng, M, T), random_markov(rng, M, T, 1))
        expected = list(_reference_levels(models, last, log))
        for block in (1, 5, 2 * M**2 + 1, None):
            pieces = _walk(*models, block=block, last=last, log=log)
            levels = [[piece for piece in pieces if piece[0] == t] for t in range(1, last + 1)]
            assert sum(map(len, levels)) == len(pieces)
            if block is None:
                assert [len(level) for level in levels] == [1] * last
            for level, (states, weights, rows) in zip(levels, expected):
                ends = np.cumsum([piece[3].shape[0] for piece in level]).tolist()
                assert [piece[1] for piece in level] == [0, *ends[:-1]]
                assert ends[-1] == weights.shape[0]
                assert_states_equal(_joined([piece[2] for piece in level]), states)
                assert np.concatenate([piece[3] for piece in level]).tobytes() == weights.tobytes()
                assert np.concatenate([piece[4] for piece in level]).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("M", [2, 3, 4])
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
    @settings(max_examples=12)
    @given(kind=st.sampled_from(_WALKED_KINDS), block=st.sampled_from([1, 5, None]),
           seed=st.integers(0, 2**16))
    def test_log_weights_extend_to_each_sequence_log_prob(self, M, T, kind, block, seed):
        model = model_of_kind(kind, np.random.default_rng(seed), M, T)
        with np.errstate(divide="ignore"):
            lp = np.concatenate([(weights[:, None] + np.log(rows)).reshape(-1)
                                 for t, _, _, weights, rows in _walk(model, block=block, log=True)
                                 if t == T])
        assert lp.tobytes() == model.seq_log_prob_batch(enumerate_sequences(M, T)).tobytes()

    @settings(max_examples=40)
    @given(M=st.integers(2, 4), T_last=_last_levels, whole=st.booleans())
    def test_budget_of_the_last_level_exactly(self, M, T_last, whole):
        # A walk to level `last` enumerates M**last states; one fewer is
        # refused when the walk is made, before any piece.
        T, last = T_last
        model = sc.MarkovModel.uniform(sc.make_spec(M, T), 1)
        walk = prefix_expansion(model, sc.EnumerationBudget(M**last), last=last, whole=whole)
        assert list(walk)[-1][0] == last
        with pytest.raises(sc.BudgetExceededError, match=f"needs {M**last} states"):
            prefix_expansion(model, sc.EnumerationBudget(M**last - 1), last=last, whole=whole)


class TestSampleExpansion:
    def test_levels_are_the_sampled_prefixes(self, rng):
        truth = random_markov(rng, 3, 4, 2)
        samples = truth.sample_batch(50, rng)
        levels = list(sample_expansion(samples, truth))
        assert [level[0] for level in levels] == [1, 2, 3, 4]
        for t, lo, (state,), weights, rows in levels:
            assert lo == 0
            np.testing.assert_array_equal(weights, np.full(50, 1 / 50))
            np.testing.assert_array_equal(rows.sum(axis=1), np.ones(50))
            np.testing.assert_array_equal(rows.argmax(axis=1), samples[:, t - 1])
            np.testing.assert_array_equal(
                truth.rows(state), truth.next_dist_batch(samples[:, : t - 1])
            )

    def test_rejects_out_of_vocabulary_tokens(self, rng):
        truth = random_markov(rng, 2, 3, 1)
        samples = truth.sample_batch(5, rng)
        samples[2, 1] = 2
        with pytest.raises(ValueError, match="vocabulary"):
            next(sample_expansion(samples, truth))
