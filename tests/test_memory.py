import math

import numpy as np
import pytest

import seqcal as sc
from seqcal.calibrate import _step_problem
from seqcal.exact import (
    conditional_mi_exact,
    enumerate_sequences,
    prefix_expansion,
    sample_expansion,
    sequence_log_probs,
)
from seqcal.memory import _fit_comparator, _joint
from seqcal.models import row_entropies

from conftest import all_seqs, count_advance, random_markov, random_pair


def per_step_grid_argmin(truth, full, comparator, steps, lo=-4.0, hi=4.0, step=1e-4):
    """Independent grid search over the shared per-step tilt exponent."""
    alphas = np.arange(lo, hi + step / 2, step)
    total = np.zeros_like(alphas)
    for t in steps:
        *_, (_, _, w, _) = prefix_expansion(truth, sc.EnumerationBudget(), last=t)
        ctx = enumerate_sequences(truth.spec.M, t - 1)
        true_rows = truth.next_dist_batch(ctx)
        log_full = np.log(full.next_dist_batch(ctx))
        log_comp = np.log(np.maximum(comparator.next_dist_batch(ctx), 1e-300))
        for k, a in enumerate(alphas):
            logits = log_full + a * log_comp
            shift = logits.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(logits - shift).sum(axis=1)) + shift[:, 0]
            nll = -(true_rows * (logits - log_z[:, None])).sum(axis=1)
            total[k] += float(np.dot(w, nll))
    return float(alphas[int(np.argmin(total))])


class TestFitLimitedMemory:
    def test_exact_recovers_order1(self, rng):
        truth = random_markov(rng, 3, 5, 1)
        limited = sc.fit_limited_memory(truth, 1)
        np.testing.assert_allclose(limited.tables[1], truth.tables[1], atol=1e-12)

    def test_empirical_unseen_context_is_uniform(self, rng):
        spec = sc.make_spec(2, 4)
        # All-zeros corpus: context (1,) at step 2 is never observed.
        samples = np.zeros((50, 4), dtype=int)
        limited = sc.fit_limited_memory(samples, 1, spec=spec, smoothing=1.0)
        np.testing.assert_allclose(limited.tables[1][1], [0.5, 0.5], atol=1e-12)

    def test_empirical_converges_to_exact_marginal(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        exact = sc.fit_limited_memory(truth, 2)
        n = 10**6
        samples = truth.sample_batch(n, sc.named_stream(31, "ngram"))
        fitted = sc.fit_limited_memory(samples, 2, spec=truth.spec, smoothing=0.0)
        # Multinomial stderr oracle per (context, token) cell.
        counts = np.zeros((4, 2))
        for t in range(3, 6):
            codes = samples[:, t - 3] * 2 + samples[:, t - 2]
            np.add.at(counts, (codes, samples[:, t - 1]), 1.0)
        totals = counts.sum(axis=1, keepdims=True)
        stderr = np.sqrt(exact.tables[2] * (1 - exact.tables[2]) / totals)
        assert np.all(np.abs(fitted.tables[2] - exact.tables[2]) <= 3 * stderr + 1e-9)

    def test_min_samples_enforced(self, rng):
        spec = sc.make_spec(2, 3)
        with pytest.raises(ValueError, match="at least"):
            sc.fit_limited_memory(np.zeros((3, 3), dtype=int), 1, spec=spec)

    def test_empirical_rejects_out_of_vocabulary_tokens(self):
        spec = sc.make_spec(3, 4)
        samples = np.zeros((20, 4), dtype=int)
        samples[5, 2] = -1
        with pytest.raises(ValueError, match="vocabulary"):
            sc.fit_limited_memory(samples, 1, spec=spec)
        samples[5, 2] = 3
        with pytest.raises(ValueError, match="vocabulary"):
            sc.fit_limited_memory(samples, 1, spec=spec)

    def test_spec_required_for_empirical(self):
        with pytest.raises(ValueError, match="spec"):
            sc.fit_limited_memory(np.zeros((100, 3), dtype=int), 1)


class TestCalibrateToComparator:
    def test_truth_full_model_is_already_calibrated(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        comparator = sc.fit_limited_memory(truth, 1)
        tilted, res = sc.calibrate_to_comparator(truth, truth, comparator)
        assert abs(res.alpha_star) <= 1e-8
        assert res.objective <= res.baseline_objective + 1e-12

    def test_binary_uniform_comparator_flat_direction(self, rng):
        # A uniform comparator makes the tilt a no-op for every alpha:
        # the objective is exactly flat.
        truth, full = random_pair(rng, M=2, T=4, order=1)
        comparator = sc.LimitedMemoryModel(
            truth.spec, 1, [np.full((1, 2), 0.5), np.full((2, 2), 0.5)]
        )
        ce0 = sc.cross_entropy_exact(truth, full)
        for alpha in (-2.0, -0.5, 0.7, 3.0):
            tilt = sc.MemoryTiltModel(full, comparator, alpha)
            assert abs(sc.cross_entropy_exact(truth, tilt) - ce0) <= 1e-9

    def test_matches_grid_oracle(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        full = truth.perturbed(rng, 0.4)
        comparator = sc.fit_limited_memory(truth, 1)
        steps = (2, 3, 4, 5)
        tilted, res = sc.calibrate_to_comparator(truth, full, comparator, steps=steps)
        oracle = per_step_grid_argmin(truth, full, comparator, steps)
        assert abs(res.alpha_star) < 3.8
        assert abs(res.alpha_star - oracle) <= 2e-4

    def test_zero_comparator_entries_floored(self, rng):
        spec = sc.make_spec(2, 3)
        truth = sc.MarkovModel.uniform(spec)
        full = sc.MarkovModel.uniform(spec)
        comparator = sc.LimitedMemoryModel(
            spec, 1, [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [1.0, 0.0]])]
        )
        tilted, res = sc.calibrate_to_comparator(truth, full, comparator, steps=(2, 3))
        assert res.extras["feature_floored"]
        assert math.isfinite(res.objective)

    def test_improvement_when_comparator_knows_more(self, rng):
        # A full model blind to the previous token gains from tilting
        # toward an informed comparator.
        truth = random_markov(rng, 2, 5, 1, concentration=0.4)
        full = sc.MarkovModel(truth.spec, 0, [truth.tables[0]])
        comparator = sc.fit_limited_memory(truth, 1)
        tilted, res = sc.calibrate_to_comparator(truth, full, comparator)
        assert res.alpha_star > 0.1
        assert res.improvement > 1e-3


class TestMemoryBound:
    def test_windowed_full_model_has_zero_memory(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        full = sc.fit_limited_memory(truth, 1)  # depends only on last token
        comparator = sc.fit_limited_memory(truth, 1)
        est = sc.memory_bound(truth, full, comparator)
        assert est.exact_mi == pytest.approx(0.0, abs=1e-10)
        assert est.bound >= -1e-9
        assert est.valid

    def test_bound_dominates_exact_mi(self, rng):
        for _ in range(20):
            truth = random_markov(rng, 2, int(rng.integers(4, 7)), 2)
            full = truth.perturbed(rng, 0.35)
            tau = int(rng.integers(1, 3))
            comparator = sc.fit_limited_memory(truth, tau)
            est = sc.memory_bound(truth, full, comparator)
            assert est.exact_mi is not None
            assert est.bound >= est.exact_mi - 1e-9
            assert est.valid

    def test_enumeration_identities(self, rng):
        # bound - I equals the expected KL between the calibrated
        # prediction's window-marginal and the comparator, recomputed
        # independently from the joint.
        truth = random_markov(rng, 2, 5, 2)
        comparator = sc.fit_limited_memory(truth, 1)
        est = sc.memory_bound(truth, truth, comparator)
        assert est.bound >= est.exact_mi - 1e-9
        kl_terms = []
        for t in est.steps:
            joint = sc.prediction_joint(
                truth,
                sc.MemoryTiltModel(truth, comparator, est.alpha_star, est.steps),
                est.tau,
                t,
            )
            pzy = joint.sum(axis=2)
            py = pzy.sum(axis=0)
            kl_t = 0.0
            for y in range(joint.shape[1]):
                if py[y] == 0:
                    continue
                pred = pzy[:, y] / py[y]
                comp = comparator.next_dist(_decode(y, est.tau, 2))
                kl_t += py[y] * sum(
                    p * math.log(p / c) for p, c in zip(pred, comp) if p > 0
                )
            kl_terms.append(kl_t)
        assert est.bound - est.exact_mi == pytest.approx(np.mean(kl_terms), abs=1e-9)

    def test_single_step_policy(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        full = truth.perturbed(rng, 0.3)
        comparator = sc.fit_limited_memory(truth, 1)
        est = sc.memory_bound(truth, full, comparator, t_policy=5)
        assert est.steps == [5]
        assert est.bound >= est.exact_mi - 1e-9

    def test_mc_mode_agrees_with_exact(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        full = truth.perturbed(rng, 0.3)
        comparator = sc.fit_limited_memory(truth, 1)
        exact = sc.memory_bound(truth, full, comparator)
        samples = truth.sample_batch(10**5, sc.named_stream(33, "memory-mc"))
        mc = sc.memory_bound(samples, full, comparator)
        assert mc.mode == "mc"
        assert abs(mc.ce_comparator - exact.ce_comparator) <= 4 * mc.ce_stderr
        assert abs(mc.bound - exact.bound) <= 4 * mc.bound_stderr + 2e-3
        assert mc.n_samples == 10**5

    def test_mc_mode_rejects_out_of_vocabulary_tokens(self, rng):
        truth = random_markov(rng, 2, 4, 1)
        comparator = sc.fit_limited_memory(truth, 1)
        samples = truth.sample_batch(2000, rng)
        samples[7, 3] = -1
        with pytest.raises(ValueError, match="vocabulary"):
            sc.memory_bound(samples, truth, comparator)
        with pytest.raises(ValueError, match="vocabulary"):
            sc.calibrate_to_comparator(samples, truth, comparator)

    def test_calibrated_condition_chain(self, rng):
        # Zero gradient makes E[-log comparator] under the calibrated
        # prediction equal CE(truth || comparator); Jensen then bounds
        # H(prediction | recent past) by the same quantity.
        truth = random_markov(rng, 2, 5, 2)
        full = truth.perturbed(rng, 0.3)
        comparator = sc.fit_limited_memory(truth, 1)
        tilted, res = sc.calibrate_to_comparator(truth, full, comparator)
        steps = res.extras["active_steps"]
        lhs, ce, hzy = [], [], []
        for t in steps:
            *_, (_, _, w, _) = prefix_expansion(truth, sc.EnumerationBudget(), last=t)
            ctx = enumerate_sequences(truth.spec.M, t - 1)
            mt_rows = tilted.next_dist_batch(ctx)
            comp_rows = comparator.next_dist_batch(ctx)
            true_rows = truth.next_dist_batch(ctx)
            log_comp = np.log(comp_rows)
            lhs.append(-float(np.dot(w, (mt_rows * log_comp).sum(axis=1))))
            ce.append(-float(np.dot(w, (true_rows * log_comp).sum(axis=1))))
            joint = sc.prediction_joint(truth, tilted, 1, t)
            pzy = joint.sum(axis=2)
            py = pzy.sum(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(pzy > 0, pzy * (np.log(pzy) - np.log(py[None, :])), 0.0)
            hzy.append(-float(terms.sum()))
        assert np.mean(lhs) == pytest.approx(np.mean(ce), abs=1e-7)
        assert np.mean(hzy) <= np.mean(ce) + 1e-9

    def test_mean_bound_decays_with_window(self, rng):
        taus = (1, 2, 3)
        bounds = np.zeros((10, 3))
        for i in range(10):
            truth = random_markov(rng, 2, 6, 3)
            full = truth.perturbed(rng, 0.3)
            for j, tau in enumerate(taus):
                comparator = sc.fit_limited_memory(truth, tau)
                est = sc.memory_bound(truth, full, comparator, attach_exact_mi=False)
                bounds[i, j] = est.bound
        means = bounds.mean(axis=0)
        assert np.all(np.diff(means) <= 1e-9)

    def test_csv_table(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        full = truth.perturbed(rng, 0.3)
        ests = [
            sc.memory_bound(truth, full, sc.fit_limited_memory(truth, tau))
            for tau in (1, 2)
        ]
        text = sc.memory_table_csv(ests)
        lines = text.strip().split("\n")
        assert lines[0].startswith("tau,ce_comparator,bound,alpha_star")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[2]) == pytest.approx(ests[0].bound, abs=1e-15)


def _decode(code, length, M):
    out = []
    for _ in range(length):
        out.append(code % M)
        code //= M
    return list(reversed(out))


class TestPredictionJoint:
    def test_normalized(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        joint = sc.prediction_joint(truth, truth.perturbed(rng, 0.3), tau=1, t=4)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert sc.conditional_mi_exact(joint) >= -1e-12

    def test_early_step_has_empty_deep_past(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        joint = sc.prediction_joint(truth, truth, tau=3, t=3)
        assert joint.shape == (2, 4, 1)
        assert sc.conditional_mi_exact(joint) == pytest.approx(0.0, abs=1e-12)

    def test_budget(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        with pytest.raises(sc.BudgetExceededError):
            sc.prediction_joint(truth, truth, tau=1, t=5, budget=sc.EnumerationBudget(4))

    def test_budget_is_checked_at_step_t(self, rng):
        # Step t < T walks the lattice to level t only: M**t states.
        truth = random_markov(rng, 2, 5, 2)
        for t in (1, 3, 4):
            sc.prediction_joint(truth, truth, tau=1, t=t, budget=sc.EnumerationBudget(2**t))
            with pytest.raises(sc.BudgetExceededError, match=f"needs {2**t} states"):
                sc.prediction_joint(truth, truth, tau=1, t=t, budget=sc.EnumerationBudget(2**t - 1))


class TestSampleModeOnEnumeratedSample:
    # Every sequence once: the sample's empirical distribution is exactly
    # the uniform truth, so sample mode must reproduce exact mode in every
    # value that does not depend on where the optimizer stops.
    spec = sc.make_spec(3, 4)

    def _instance(self, rng):
        truth = sc.MarkovModel.uniform(self.spec, 0)
        samples = enumerate_sequences(3, 4)
        full = sc.DriftModel(random_markov(rng, 3, 4, 1), 0.3)
        comparator = sc.fit_limited_memory(random_markov(rng, 3, 4, 2), 1)
        return truth, samples, full, comparator

    @staticmethod
    def _assert_same_fixed_values(exact, sample):
        assert sample.mode == "sample-average" and exact.mode == "exact"
        for name in ("mu_target", "baseline_objective"):
            assert getattr(sample, name) == pytest.approx(getattr(exact, name), abs=1e-10)
        assert sample.extras["mu_base"] == pytest.approx(exact.extras["mu_base"], abs=1e-10)

    def test_per_step_fits(self, rng):
        truth, samples, full, comparator = self._instance(rng)
        _, exact = sc.fit_alpha_local(truth, full)
        _, sample = sc.fit_alpha_local(samples, full, min_samples=1)
        self._assert_same_fixed_values(exact, sample)
        _, exact = sc.calibrate_to_comparator(truth, full, comparator)
        _, sample = sc.calibrate_to_comparator(samples, full, comparator, min_samples=1)
        self._assert_same_fixed_values(exact, sample)

    def test_memory_bound_cross_entropy(self, rng):
        truth, samples, full, comparator = self._instance(rng)
        exact = sc.memory_bound(truth, full, comparator)
        sample = sc.memory_bound(samples, full, comparator, min_samples=1)
        assert sample.mode == "mc"
        assert sample.ce_comparator == pytest.approx(exact.ce_comparator, abs=1e-10)

    def test_window_tables(self, rng):
        truth, samples, _, _ = self._instance(rng)
        for window in (1, 2, 3):
            exact = sc.fit_limited_memory(truth, window)
            sample = sc.fit_limited_memory(
                samples, window, spec=self.spec, smoothing=0.0, min_samples=1
            )
            assert sample.window == exact.window
            for a, b in zip(sample.tables, exact.tables):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)


class TestSampleModeZeroComparator:
    def test_sampled_zero_makes_cross_entropy_infinite(self, rng):
        # After token 1 the comparator never predicts token 1; the sample
        # contains that transition at step 3.
        spec = sc.make_spec(2, 3)
        full = sc.MarkovModel.uniform(spec)
        comparator = sc.LimitedMemoryModel(
            spec, 1, [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5], [1.0, 0.0]])]
        )
        samples = sc.MarkovModel.uniform(spec).sample_batch(200, rng)
        assert np.any((samples[:, 1] == 1) & (samples[:, 2] == 1))
        est = sc.memory_bound(samples, full, comparator, min_samples=1)
        assert est.per_step[3]["ce"] == math.inf
        assert est.ce_comparator == math.inf
        assert not est.valid


class TestComparatorWalks:
    def test_memory_bound_advances_comparator_once_per_level(self, rng):
        # The comparator's state lives inside the tilted model's, and the
        # bound reads its terms from the calibration's own walk, so the
        # comparator is advanced once per level: T - 1 batches in all.
        truth = random_markov(rng, 2, 5, 2)
        full = truth.perturbed(rng, 0.3)
        comparator = sc.fit_limited_memory(truth, 1)
        calls = count_advance(comparator)
        sc.memory_bound(truth, full, comparator)
        assert calls == [truth.spec.T - 1]

    def test_memory_bound_walks_the_truth_once(self, rng):
        # One lattice walk per estimate: the truth drives it and is
        # advanced once per level, T - 1 batches in all.
        truth = random_markov(rng, 2, 5, 2)
        full = truth.perturbed(rng, 0.3)
        comparator = sc.fit_limited_memory(truth, 1)
        calls = count_advance(truth)
        sc.memory_bound(truth, full, comparator)
        assert calls == [truth.spec.T - 1]



class TestBoundFromTheFitsWalk:
    """The bound's terms come from the calibration's walk and problem.

    Walking the truth (or the samples) again with the fitted tilt model,
    as a separate bound walk would, gives bitwise the same rows and
    per-step terms.
    """

    @pytest.mark.parametrize("case", ["exact", "alpha_zero", "pairwise_rows", "sample"])
    def test_fitted_rows_and_terms_match_a_second_walk(self, rng, case):
        M, T = (9, 3) if case == "pairwise_rows" else (3, 5)
        truth = random_markov(rng, M, T, 2)
        comparator = sc.fit_limited_memory(truth, 1)
        # A full model equal to its comparator is already calibrated:
        # the fit stops at alpha = 0.
        full = comparator if case == "alpha_zero" else truth.perturbed(rng, 0.3)
        target = truth.sample_batch(2000, rng) if case == "sample" else truth
        steps = tuple(range(2, T + 1))
        tilt = sc.MemoryTiltModel(full, comparator, 0.0, active_steps=steps)
        problem = _step_problem(target, tilt, steps)
        tilted, result = _fit_comparator(problem, 1e-10, None)
        est = sc.memory_bound(target, full, comparator)
        assert est.alpha_star == result.alpha_star
        assert (result.alpha_star == 0.0) == (case == "alpha_zero")

        if case == "sample":
            walk = sample_expansion(target, tilted)
        else:
            walk = prefix_expansion(truth, None, tilted)
        for t, states, weights, true_rows in walk:
            if t not in steps:
                continue
            state = states[-1]
            rows = tilted.rows(state)
            w, problem_rows = problem.tilted_rows(result.alpha_star, t)
            assert np.array_equal(w, weights)
            assert np.array_equal(problem_rows, rows)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_comp = np.log(comparator.rows(state[2]))
                mass = weights[:, None] * true_rows
                terms = np.where(mass > 0.0, mass * log_comp, 0.0)
            assert est.per_step[t]["ce"] == -math.fsum(terms.ravel().tolist())
            h = math.fsum((weights * row_entropies(rows)).tolist())
            assert est.per_step[t]["cond_entropy"] == h
            if case != "sample":
                mi = conditional_mi_exact(_joint(weights, rows, est.tau, t))
                assert est.per_step[t]["mi"] == mi
