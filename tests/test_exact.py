import math
import tracemalloc

import numpy as np
import pytest

import seqcal as sc
from seqcal.exact import (
    FunctionalF,
    _fsum,
    enumerate_sequences,
    log_partition_exact,
    logsumexp,
    prefix_expansion,
    sample_expansion,
    sequence_log_probs,
)

from conftest import (
    all_seqs,
    cross_entropy_oracle,
    entropy_oracle,
    kl_oracle,
    model_probs,
    one_hot_model,
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
        predictor = sc.marginalize_to_window(truth, 1)
        joint = sc.prediction_joint(truth, predictor, tau=1, t=4)
        assert sc.conditional_mi_exact(joint) == pytest.approx(0.0, abs=1e-12)

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
        assert sc.conditional_mi_exact(joint) == pytest.approx(expected, abs=1e-12)

    def test_full_context_predictor_matches_double_marginalization(self, rng):
        truth = random_markov(rng, 2, 4, 2)
        predictor = truth.perturbed(rng, 0.4)
        t, tau = 4, 1
        joint = sc.prediction_joint(truth, predictor, tau=tau, t=t)
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
        assert sc.conditional_mi_exact(joint) == pytest.approx(h_zy - h_zyx, abs=1e-11)

    def test_requires_normalized_joint(self):
        with pytest.raises(ValueError, match="sum to 1"):
            sc.conditional_mi_exact(np.ones((2, 2, 2)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_normalization_tolerance_is_1e_9(self, sign):
        # The sums-to-1 check allows a total within 1e-9 of 1 and no more.
        joint = np.full((2, 3, 4), 1.0 / 24)
        with pytest.raises(ValueError, match="sum to 1"):
            sc.conditional_mi_exact(joint * (1.0 + sign * 2e-9))
        assert sc.conditional_mi_exact(joint * (1.0 + sign * 1e-12)) == pytest.approx(
            0.0, abs=1e-12
        )


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

    # Each routine on M=3, T=4 with the number of states it enumerates.
    BOUNDARY_CASES = {
        "sequence_log_probs": (81, lambda m, b: sequence_log_probs(m, b)),
        "prefix_expansion": (81, lambda m, b: list(prefix_expansion(m, b))),
        "prefix_expansion_last": (9, lambda m, b: list(prefix_expansion(m, b, last=2))),
        "enumerate_sequences": (81, lambda m, b: enumerate_sequences(3, 4, b)),
        "drift_curve_exact": (81, lambda m, b: sc.drift_curve_exact(m, b)),
        "marginalize_to_window": (81, lambda m, b: sc.marginalize_to_window(m, 1, b)),
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
        tracemalloc.start()
        try:
            _fsum(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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
        full = list(prefix_expansion(truth, None, *others))
        for last in range(1, 5):
            cut = list(prefix_expansion(truth, None, *others, last=last))
            assert [level[0] for level in cut] == list(range(1, last + 1))
            for (t, states, weights, rows), level in zip(cut, full):
                assert t == level[0]
                assert _same_state(states, level[1])
                assert np.array_equal(weights, level[2])
                assert np.array_equal(rows, level[3])


class TestSampleExpansion:
    def test_levels_are_the_sampled_prefixes(self, rng):
        truth = random_markov(rng, 3, 4, 2)
        samples = truth.sample_batch(50, rng)
        levels = list(sample_expansion(samples, truth))
        assert [level[0] for level in levels] == [1, 2, 3, 4]
        for t, (state,), weights, rows in levels:
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
