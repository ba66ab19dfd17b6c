import math
import sys

import numpy as np
import pytest

import seqcal as sc
from seqcal.cli import _pipeline_memory, parse_config
from seqcal.calibrate import _fit_step, fit_per_step_tilt
from seqcal.exact import (
    prefix_expansion,
    sample_expansion,
    sequence_log_probs,
)
from seqcal.memory import _add_by_period, _joint, _WindowMass
from seqcal.models import row_entropies

from conftest import (
    all_seqs,
    conditional_entropy_oracle,
    conditional_mi_exact,
    count_calls,
    enumerate_sequences,
    heap_peak,
    prediction_joint,
    random_markov,
    random_pair,
)


def per_step_grid_argmin(truth, full, comparator, steps, lo=-4.0, hi=4.0, step=1e-4):
    """Independent grid search over the shared per-step tilt exponent."""
    alphas = np.arange(lo, hi + step / 2, step)
    total = np.zeros_like(alphas)
    for t in steps:
        *_, (_, _, _, w, _) = prefix_expansion(truth, sc.EnumerationBudget(), last=t, whole=True)
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


def window_mass_tables(target, spec, window):
    """Each level's window-mass table: every prefix's weight times its next row, added to its
    window's row one prefix at a time, in lattice (or sample) order."""
    M = spec.M
    tail = sc.MarkovModel.uniform(spec, min(window, spec.T - 1))
    if isinstance(target, sc.ConditionalModel):
        walk = prefix_expansion(target, None, tail, whole=True)
    else:
        walk = sample_expansion(target, tail)
    levels = []
    for t, _, states, weights, rows in walk:
        table = np.zeros((M ** min(tail.order, t - 1), M))
        for code, w, row in zip(states[-1][1].tolist(), weights, rows):
            table[code] += w * row
        levels.append(table)
    return levels


def _normalized(table):
    """Rows of `table` normalized; a row without mass is uniform."""
    mass = table.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(mass > 0.0, table / np.where(mass > 0.0, mass, 1.0),
                        np.full_like(table, 1.0 / table.shape[1]))


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

    @pytest.mark.parametrize("sample", [False, True])
    @pytest.mark.parametrize("M, T", [(2, 6), (3, 5), (4, 5)])
    def test_tables_are_bitwise_the_per_row_sums(self, rng, monkeypatch, sample, M, T):
        # Each level's window mass is added one prefix at a time, in lattice
        # (or sample) order; the levels' tables are pooled in level order,
        # then smoothed and normalized, whatever the walk's blocks.
        truth = random_markov(rng, M, T, 2, concentration=0.5)
        target = truth.sample_batch(400, rng) if sample else truth
        smoothing = 0.1 / 400 if sample else 0.0
        for window in (1, 2, 3):
            levels = window_mass_tables(target, truth.spec, window)
            eff = min(window, T - 1)
            pooled = levels[eff].copy()
            for table in levels[eff + 1:]:
                pooled += table
            expected = [_normalized(table + smoothing) for table in levels[:eff] + [pooled]]
            # One table per context length, each prefix added straight into
            # it across the levels, moves the rows by rounding only.
            tail = sc.MarkovModel.uniform(truth.spec, eff)
            if sample:
                walk = sample_expansion(target, tail)
            else:
                walk = prefix_expansion(truth, None, tail, whole=True)
            acc = [np.zeros((M**ell, M)) for ell in range(eff + 1)]
            for t, _, states, weights, rows in walk:
                for code, w, row in zip(states[-1][1].tolist(), weights, rows):
                    acc[min(eff, t - 1)][code] += w * row
            for block in (1, 3, 2**14):
                monkeypatch.setattr(sc.exact, "_TAIL_BLOCK", block)
                if sample:
                    fitted = sc.fit_limited_memory(target, window, spec=truth.spec, smoothing=0.1)
                else:
                    fitted = sc.fit_limited_memory(truth, window)
                assert len(fitted.tables) == len(expected)
                for got, want, old in zip(fitted.tables, expected, acc):
                    assert np.array_equal(got, want), (window, block)
                    np.testing.assert_allclose(got, _normalized(old + smoothing), rtol=1e-12, atol=0.0)

    def test_min_samples_enforced(self, rng):
        # The floor of 10 samples is inclusive.
        spec = sc.make_spec(2, 3)
        samples = random_markov(rng, 2, 3, 1).sample_batch(10, rng)
        with pytest.raises(ValueError, match="^empirical-ngram mode needs at least 10 samples, got 9$"):
            sc.fit_limited_memory(samples[:9], 1, spec=spec)
        assert sc.fit_limited_memory(samples, 1, spec=spec).window == 1

    def test_empirical_rejects_out_of_vocabulary_tokens(self):
        spec = sc.make_spec(3, 4)
        samples = np.zeros((20, 4), dtype=int)
        samples[5, 2] = -1
        with pytest.raises(ValueError, match="vocabulary"):
            sc.fit_limited_memory(samples, 1, spec=spec)
        samples[5, 2] = 3
        with pytest.raises(ValueError, match="vocabulary"):
            sc.fit_limited_memory(samples, 1, spec=spec)

    def test_window_below_one_rejected_in_both_modes(self, rng):
        truth = random_markov(rng, 2, 4, 1)
        samples = truth.sample_batch(20, rng)
        for window in (0, -1):
            with pytest.raises(ValueError, match="window must be >= 1"):
                sc.fit_limited_memory(truth, window)
            with pytest.raises(ValueError, match="window must be >= 1"):
                sc.fit_limited_memory(samples, window, spec=truth.spec)

    def test_spec_required_for_empirical(self):
        with pytest.raises(ValueError, match="spec"):
            sc.fit_limited_memory(np.zeros((100, 3), dtype=int), 1)


class TestMemoryTiltFit:
    def test_truth_full_model_is_already_calibrated(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        comparator = sc.fit_limited_memory(truth, 1)
        tilted, res = fit_per_step_tilt(truth, sc.MemoryTiltModel(truth, comparator, 0.0, (2, 3, 4, 5)))
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
        tilted, res = fit_per_step_tilt(truth, sc.MemoryTiltModel(full, comparator, 0.0, steps))
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
        tilted, res = fit_per_step_tilt(truth, sc.MemoryTiltModel(full, comparator, 0.0, (2, 3)))
        assert res.extras["feature_floored"]
        assert math.isfinite(res.objective)

    def test_zero_reachable_only_on_inactive_steps_is_not_floored(self, rng):
        # The order-1 comparator's step-1 table has a zero, but step 1 is not
        # fitted: only the tilted steps' features are read.
        spec = sc.make_spec(2, 3)
        truth = sc.MarkovModel.uniform(spec)
        comparator = sc.MarkovModel(
            spec, 1, [np.array([[1.0, 0.0]]), np.array([[0.6, 0.4], [0.3, 0.7]])]
        )
        _, res = fit_per_step_tilt(truth, sc.MemoryTiltModel(truth, comparator, 0.0, (2, 3)))
        assert res.extras["feature_floored"] is False
        _, res = fit_per_step_tilt(truth, sc.MemoryTiltModel(truth, comparator, 0.0, (1, 2, 3)))
        assert res.extras["feature_floored"] is True

    def test_improvement_when_comparator_knows_more(self, rng):
        # A full model blind to the previous token gains from tilting
        # toward an informed comparator.
        truth = random_markov(rng, 2, 5, 1, concentration=0.4)
        full = sc.MarkovModel(truth.spec, 0, [truth.tables[0]])
        comparator = sc.fit_limited_memory(truth, 1)
        tilted, res = fit_per_step_tilt(truth, sc.MemoryTiltModel(full, comparator, 0.0, (2, 3, 4, 5)))
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

    @pytest.mark.parametrize("shift, valid", [(0.0, True), (-5e-7, True), (5e-7, False)])
    def test_valid_forgives_rounding_only(self, monkeypatch, shift, valid):
        # A truth that is its own window-1 marginal has bound 0 up to
        # rounding: -1.1e-16 for the unshifted case's truth (seed 9; the
        # seed-1 truth's bound rounds to exactly 0.0); raising each
        # conditional entropy by 5e-7 lowers the bound by as much, which
        # is past rounding.
        seed = 9 if shift == 0.0 else 1
        truth = sc.fit_limited_memory(random_markov(np.random.default_rng(seed), 2, 5, 2), 1)
        comparator = sc.fit_limited_memory(truth, 1)
        monkeypatch.setattr(sc.memory, "row_entropies", lambda rows: row_entropies(rows) + shift)
        est = sc.memory_bound(truth, truth, comparator)
        assert est.alpha_star == 0.0
        if shift == 0.0:
            assert -1e-15 < est.bound < 0.0
        else:
            assert est.bound == pytest.approx(-shift, abs=1e-15)
        assert est.valid is valid

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
            joint = prediction_joint(
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

    def test_window_below_T_by_one_fits_the_last_step_only(self, rng):
        # A window-(T - 1) comparator has a full window only at step T, so
        # the measured steps are (T,).
        truth = random_markov(rng, 2, 4, 2)
        comparator = sc.fit_limited_memory(truth, 3)
        res = sc.memory_bound(truth, truth.perturbed(rng, 0.3), comparator).calibration
        assert res.extras["active_steps"] == [4]

    def test_single_step_policy(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        full = truth.perturbed(rng, 0.3)
        comparator = sc.fit_limited_memory(truth, 1)
        est = sc.memory_bound(truth, full, comparator, t_policy=5)
        assert est.steps == [5]
        assert est.bound >= est.exact_mi - 1e-9

    @pytest.mark.parametrize("t_policy", [11, "average"])
    def test_to_dict_writes_steps_as_strings(self, rng, t_policy):
        # At T = 12 the step keys reach 10, where int and str keys sort
        # differently in a sorted JSON document.
        truth = random_markov(rng, 2, 12, 2, concentration=0.8)
        est = sc.memory_bound(truth, sc.DriftModel(truth, 0.2), sc.fit_limited_memory(truth, 1),
                              t_policy=t_policy)
        doc = est.to_dict()
        assert doc["t_policy"] == str(t_policy)
        assert list(doc["per_step"]) == [str(t) for t in est.steps]
        assert doc["calibration"] == est.calibration.to_dict()

    @pytest.mark.parametrize("sample", [False, True])
    def test_gaps_need_two_steps(self, rng, few_samples, sample):
        # At T = 1 every gap is past the last step; the error says so
        # rather than naming a gap of 1 as below 1.
        truth = random_markov(rng, 2, 1, 0)
        target = truth.sample_batch(50, rng) if sample else truth
        comparator = sc.MarkovModel.uniform(truth.spec, 0)
        with pytest.raises(ValueError, match="memory gaps need T >= 2, got T = 1"):
            sc.memory_bounds(target, truth, [1])
        with pytest.raises(ValueError, match="memory gaps need T >= 2, got T = 1"):
            sc.memory_bound(target, truth, comparator, tau=1)

    def test_tau_below_one_rejected(self, rng):
        truth = random_markov(rng, 2, 4, 2)
        comparator = sc.fit_limited_memory(truth, 1)
        for tau in (0, -1):
            with pytest.raises(ValueError, match="tau must be >= 1"):
                sc.memory_bound(truth, truth, comparator, tau=tau)

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
            fit_per_step_tilt(samples, sc.MemoryTiltModel(truth, comparator, 0.0, (2, 3, 4)))

    def test_calibrated_condition_chain(self, rng):
        # Zero gradient makes E[-log comparator] under the calibrated
        # prediction equal CE(truth || comparator); Jensen then bounds
        # H(prediction | recent past) by the same quantity.
        truth = random_markov(rng, 2, 5, 2)
        full = truth.perturbed(rng, 0.3)
        comparator = sc.fit_limited_memory(truth, 1)
        tilted, res = fit_per_step_tilt(truth, sc.MemoryTiltModel(full, comparator, 0.0, (2, 3, 4, 5)))
        steps = res.extras["active_steps"]
        lhs, ce, hzy = [], [], []
        for t in steps:
            *_, (_, _, _, w, _) = prefix_expansion(truth, sc.EnumerationBudget(), last=t, whole=True)
            ctx = enumerate_sequences(truth.spec.M, t - 1)
            mt_rows = tilted.next_dist_batch(ctx)
            comp_rows = comparator.next_dist_batch(ctx)
            true_rows = truth.next_dist_batch(ctx)
            log_comp = np.log(comp_rows)
            lhs.append(-float(np.dot(w, (mt_rows * log_comp).sum(axis=1))))
            ce.append(-float(np.dot(w, (true_rows * log_comp).sum(axis=1))))
            joint = prediction_joint(truth, tilted, 1, t)
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


def _decode(code, length, M):
    out = []
    for _ in range(length):
        out.append(code % M)
        code //= M
    return list(reversed(out))


class TestPredictionJoint:
    def test_normalized(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        joint = prediction_joint(truth, truth.perturbed(rng, 0.3), tau=1, t=4)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert conditional_mi_exact(joint) >= -1e-12

    def test_early_step_has_empty_deep_past(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        joint = prediction_joint(truth, truth, tau=3, t=3)
        assert joint.shape == (2, 4, 1)
        assert conditional_mi_exact(joint) == pytest.approx(0.0, abs=1e-12)

    def test_predictor_must_share_the_spec(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        for predictor in (random_markov(rng, 3, 5, 1), random_markov(rng, 2, 7, 1)):
            with pytest.raises(ValueError, match="models must share the same sequence spec"):
                prediction_joint(truth, predictor, tau=1, t=4)

    def test_budget(self, rng):
        truth = random_markov(rng, 2, 5, 2)
        with pytest.raises(sc.BudgetExceededError):
            prediction_joint(truth, truth, tau=1, t=5, budget=sc.EnumerationBudget(4))

    def test_budget_is_checked_at_step_t(self, rng):
        # Step t < T walks the lattice to level t only: M**t states.
        truth = random_markov(rng, 2, 5, 2)
        for t in (1, 3, 4):
            prediction_joint(truth, truth, tau=1, t=t, budget=sc.EnumerationBudget(2**t))
            with pytest.raises(sc.BudgetExceededError, match=f"needs {2**t} states"):
                prediction_joint(truth, truth, tau=1, t=t, budget=sc.EnumerationBudget(2**t - 1))


@pytest.mark.usefixtures("few_samples")
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
        _, sample = sc.fit_alpha_local(samples, full)
        self._assert_same_fixed_values(exact, sample)
        tilt = sc.MemoryTiltModel(full, comparator, 0.0, (2, 3, 4))
        _, exact = fit_per_step_tilt(truth, tilt)
        _, sample = fit_per_step_tilt(samples, tilt)
        self._assert_same_fixed_values(exact, sample)

    def test_memory_bound_cross_entropy(self, rng):
        truth, samples, full, comparator = self._instance(rng)
        exact = sc.memory_bound(truth, full, comparator)
        sample = sc.memory_bound(samples, full, comparator)
        assert sample.mode == "mc"
        assert sample.ce_comparator == pytest.approx(exact.ce_comparator, abs=1e-10)

    def test_window_tables(self, rng):
        truth, samples, _, _ = self._instance(rng)
        for window in (1, 2, 3):
            exact = sc.fit_limited_memory(truth, window)
            sample = sc.fit_limited_memory(samples, window, spec=self.spec, smoothing=0.0)
            assert sample.window == exact.window
            for a, b in zip(sample.tables, exact.tables):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)


class TestSampleFloor:
    @pytest.mark.parametrize("fit", ["fit_alpha_local", "memory_bounds"])
    def test_per_step_fits_need_1000_sequences(self, rng, fit):
        # The floor is inclusive: 999 sequences are refused, 1000 are fitted.
        truth = random_markov(rng, 2, 3, 1)
        full = truth.perturbed(rng, 0.3)
        samples = truth.sample_batch(1000, rng)
        run = (lambda s: sc.fit_alpha_local(s, full)) if fit == "fit_alpha_local" else (
            lambda s: sc.memory_bounds(s, full, [1]))
        with pytest.raises(ValueError, match="^sample mode needs at least 1000 sequences, got 999$"):
            run(samples[:999])
        run(samples)


class TestSampleModeZeroComparator:
    def test_sampled_zero_makes_cross_entropy_infinite(self, rng, few_samples):
        # After token 1 the comparator never predicts token 1; the sample
        # contains that transition at step 3.
        spec = sc.make_spec(2, 3)
        full = sc.MarkovModel.uniform(spec)
        comparator = sc.LimitedMemoryModel(
            spec, 1, [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5], [1.0, 0.0]])]
        )
        samples = sc.MarkovModel.uniform(spec).sample_batch(200, rng)
        assert np.any((samples[:, 1] == 1) & (samples[:, 2] == 1))
        est = sc.memory_bound(samples, full, comparator)
        assert est.per_step[3]["ce"] == math.inf
        assert est.ce_comparator == math.inf
        assert not est.valid


class TestWindowMassByPeriod:
    """On a truth's lattice the window-mass tables are filled by block sums, bitwise ``np.add.at``."""

    @pytest.mark.parametrize("M", [2, 3, 4, 9])
    def test_pieces_add_as_add_at_does(self, M):
        # Context c goes to row c mod P, whatever the pieces: cuts off the
        # periods leave a partial head and tail, or a piece inside one period.
        rng = np.random.default_rng(M)
        for ell in range(5 if M < 9 else 4):
            P = M**ell
            for _ in range(10):
                n = int(rng.integers(1, 5)) * P + int(rng.integers(0, 2 * P + 1))
                mass = rng.random((n, M)) * 10.0 ** rng.integers(-9, 9, (n, 1))
                cuts = sorted({0, n, *rng.integers(0, n + 1, size=int(rng.integers(0, 6))).tolist()})
                got = rng.random((P, M))
                want, cells = got.copy(), (np.arange(n) % P)[:, None] * M + np.arange(M)
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    _add_by_period(got, mass[lo:hi], lo)
                    np.add.at(want.reshape(-1), cells[lo:hi].reshape(-1), mass[lo:hi].reshape(-1))
                assert np.array_equal(got, want), (ell, cuts)

    @pytest.mark.parametrize("sample", [False, True])
    def test_only_sample_mode_adds_by_add_at(self, rng, few_samples, sample):
        truth = random_markov(rng, 3, 5, 2)
        target = truth.sample_batch(50, rng) if sample else truth
        calls = []

        def profile(frame, event, arg):
            if event == "c_call" and getattr(arg, "__self__", None) is np.add and arg.__name__ == "at":
                calls.append(arg)

        sys.setprofile(profile)
        try:
            sc.memory_bounds(target, truth.perturbed(rng, 0.3), [1, 2])
        finally:
            sys.setprofile(None)
        assert bool(calls) == sample


class TestComparatorWalks:
    def test_memory_bound_reads_the_comparator_by_its_tables(self, rng):
        # The comparator's rows at a context depend only on its window, so
        # its features and CE terms are read off its tables against the
        # walk's window-mass tables: it is never walked or asked for rows.
        truth = random_markov(rng, 2, 5, 2)
        full = truth.perturbed(rng, 0.3)
        comparator = sc.fit_limited_memory(truth, 1)
        calls = count_calls(comparator, "rows", "step", "advance")
        sc.memory_bound(truth, full, comparator)
        assert calls == [0]

    def test_memory_bound_walks_the_truth_once(self, rng):
        # One lattice walk per estimate: the truth drives it and makes one
        # lattice step per level below the last, T - 1 batches in all.
        truth = random_markov(rng, 2, 5, 2)
        full = truth.perturbed(rng, 0.3)
        comparator = sc.fit_limited_memory(truth, 1)
        calls = count_calls(truth, "step", "advance")
        sc.memory_bound(truth, full, comparator)
        assert calls == [truth.spec.T - 1]

    def test_memory_pipeline_walks_the_truth_once(self, rng):
        # One walk for the whole run: every gap's window fit and bound read
        # the same window-mass tables, so tau = 1, 2, 3 take T - 1 lattice
        # steps of the truth; a walk per fit and per bound took 6 (T - 1).
        cfg = parse_config({"M": 2, "T": 6, "pipeline": "memory", "tau": [1, 2, 3]})
        truth = random_markov(rng, 2, 6, 3)
        full = truth.perturbed(rng, 0.3)
        calls = count_calls(truth, "step", "advance")
        code, docs, _ = _pipeline_memory(cfg, truth, full, None)
        assert code == 0 and len(docs["memory"]) == 3
        assert calls == [truth.spec.T - 1]

    @staticmethod
    def _heap_case():
        M, T = 4, 8
        truth = random_markov(np.random.default_rng(3), M, T, 2, concentration=0.8)
        full = sc.DriftModel(truth.perturbed(np.random.default_rng(4), 0.3), 0.1)
        return truth, full, sc.fit_limited_memory(truth, 1), 8 * M**T

    def test_build_heap_peak_in_last_level_arrays(self):
        # memory_bound's build, one blocked walk into the per-step problem's
        # storage and the window-mass tables, the problem read off them and
        # each step's comparator CE, peaks at 3.98 arrays of the last
        # level's (M**(T-1), M) rows: the walk's (N,) weights and
        # cross-entropy terms, every tilted step's base rows and one block
        # of the walk.  A build that also kept each context's target
        # feature mean and read the CE off its walk peaked at 4.09 (5.41
        # with (M, N) features, 9.27 from whole levels).
        truth, full, comparator, size = self._heap_case()
        T = truth.spec.T
        steps = range(2, T + 1)
        tilt = sc.MemoryTiltModel(full, comparator, 0.0, active_steps=steps)

        def build():
            walk = _WindowMass(truth, truth.spec, (1,), None, full, steps)
            return walk.problem(tilt), [walk.cross_entropy(comparator, t)[0] for t in steps]

        (problem, ce), peak = heap_peak(build)
        assert sorted(problem.feats) == list(steps) and len(ce) == len(steps)
        assert peak < 4.2 * size

    def test_memory_bound_heap_peak_in_last_level_arrays(self):
        # The whole estimate, build, fit and per-step report with its exact
        # MI, peaks at 4.08 arrays of the last level, in its report (4.09
        # in a build that kept per-context feature means, 5.41 with (M, N)
        # features): the report holds the problem's 1.71 and its probes'
        # moment buffer, 0.75, and one block of deep pasts at a time.  A
        # report of whole levels, their tilted rows, joint and
        # conditional-entropy terms, peaked at 7.11.
        truth, full, comparator, size = self._heap_case()
        est, peak = heap_peak(lambda: sc.memory_bound(truth, full, comparator))
        assert est.exact_mi is not None
        assert peak < 4.2 * size


class TestBoundFromTheFitsWalk:
    """The bound's terms come from the calibration's walk and problem.

    Walking the truth (or the samples) again with the fitted tilt model,
    as a separate bound walk would, gives bitwise the same rows and
    conditional entropies, and the CE and MI of their definitions: the
    CE from each step's window-mass table, the MI as H(Z | Y) of the
    (Z, Y) marginal summed one deep past at a time, less the conditional
    entropy.  Both are within 1e-12 of the per-context formulas.
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
        problem = tilt._problem(target)
        tilted, result = _fit_step(problem, 1e-10)
        est = sc.memory_bound(target, full, comparator)
        assert est.alpha_star == result.alpha_star
        assert (result.alpha_star == 0.0) == (case == "alpha_zero")

        if case == "sample":
            walk = sample_expansion(target, tilted)
        else:
            walk = prefix_expansion(truth, None, tilted, whole=True)
        for t, _, states, weights, true_rows in walk:
            if t not in steps:
                continue
            state = states[-1]
            rows = tilted.rows(state)
            blocks = list(problem.tilted_rows(result.alpha_star, t, 1))
            w = np.concatenate([b[0] for b in blocks])
            problem_rows = np.concatenate([b[1] for b in blocks], axis=1).T
            assert np.array_equal(w, weights)
            assert np.array_equal(problem_rows, rows)
            # The comparator's own state code is each context's window.
            table = np.zeros((M, M))
            for code, wi, row in zip(state[2][1].tolist(), weights, true_rows):
                table[code] += wi * row
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(table > 0.0, table * np.log(comparator.tables[1]), 0.0)
                mass = weights[:, None] * true_rows
                per_context = np.where(mass > 0.0, mass * np.log(comparator.rows(state[2])), 0.0)
            assert est.per_step[t]["ce"] == -math.fsum(terms.ravel().tolist())
            assert est.per_step[t]["ce"] == pytest.approx(-math.fsum(per_context.ravel().tolist()),
                                                          rel=1e-12, abs=1e-15)
            h = math.fsum((weights * row_entropies(rows)).tolist())
            assert est.per_step[t]["cond_entropy"] == h
            if case != "sample":
                joint = _joint(weights, rows, est.tau, t)
                mi = 0.0 if t - 1 <= est.tau else _sequential_mi(joint, h)
                assert est.per_step[t]["mi"] == mi
                assert mi == pytest.approx(conditional_mi_exact(joint), rel=1e-12, abs=1e-15)


def _sequential_mi(joint, h):
    """H(Z|Y) of a (Z, Y, X) joint's (Z, Y) marginal, summed one X at a time in order, less `h`."""
    marginal = joint[:, :, 0].copy()
    for x in range(1, joint.shape[2]):
        marginal += joint[:, :, x]
    return conditional_entropy_oracle(marginal) - h


def _whole_level_report(target, tilted, steps, tau):
    """Each step's (ce, cond_entropy, mi), per-context formulas and per-sequence terms, from whole levels.

    A second walk with the fitted tilt model reads each level whole.  The
    CE is math.fsum of the step's window-mass table times the log
    comparator table, the conditional entropy math.fsum of the weighted
    row entropies, and the MI :func:`_sequential_mi` (0 with no deep
    past).  Beside them, the CE and MI by the per-context formulas:
    math.fsum of each context's masked terms, and H(Z|Y) - H(Z|Y,X) of
    the joint.  In sample mode, each sequence's summed CE and h-terms.
    """
    sample = not isinstance(target, sc.ConditionalModel)
    M, order = tilted.spec.M, tilted.comparator.order
    walk = sample_expansion(target, tilted) if sample else prefix_expansion(target, None, tilted, whole=True)
    report, per_context, ce_seq, h_seq = {}, {}, 0.0, 0.0
    for t, _, states, weights, true_rows in walk:
        if t not in steps:
            continue
        rows = tilted.rows(states[-1])
        comp_state = states[-1][2]
        table = np.zeros((M ** min(order, t - 1), M))
        for code, w, row in zip(comp_state[1].tolist(), weights, true_rows):
            table[code] += w * row
        with np.errstate(divide="ignore", invalid="ignore"):
            log_table = np.log(tilted.comparator.tables[min(order, t - 1)])
            terms = np.where(table > 0.0, table * log_table, 0.0)
            mass = weights[:, None] * true_rows
            context_terms = np.where(mass > 0.0, mass * np.log(tilted.comparator.rows(comp_state)), 0.0)
        h_terms = weights * row_entropies(rows)
        h = math.fsum(h_terms.tolist())
        mi = old_mi = None
        if sample:
            ce_seq = ce_seq - context_terms.sum(axis=1)
            h_seq = h_seq + h_terms
        else:
            joint = _joint(weights, rows, tau, t)
            mi = 0.0 if t - 1 <= tau else _sequential_mi(joint, h)
            old_mi = (conditional_entropy_oracle(joint.sum(axis=2))
                      - conditional_entropy_oracle(joint.reshape(joint.shape[0], -1, order="A")))
        report[t] = (-math.fsum(terms.ravel().tolist()), h, mi)
        per_context[t] = (-math.fsum(context_terms.ravel().tolist()), old_mi)
    return report, per_context, ce_seq, h_seq


class TestBlockedReport:
    """The per-step report reads the calibrated rows by blocks of deep pasts.

    Whatever the block size, down to one run of recent contexts, each
    step's CE, conditional entropy and exact MI, and in sample mode the
    per-sequence terms behind the stderrs, are bitwise the whole-level
    formulas', and within 1e-12 of the per-context ones.
    """

    @pytest.mark.parametrize("M, T", [(2, 6), (3, 5), (4, 5), (9, 4)])
    @pytest.mark.parametrize("tau", [1, 2, 3])
    @pytest.mark.parametrize("sample", [False, True])
    def test_bitwise_the_whole_level_report(self, monkeypatch, few_samples, M, T, tau, sample):
        rng = np.random.default_rng(100 * M + 10 * tau + sample)
        truth = random_markov(rng, M, T, 2, concentration=0.5)
        full = sc.DriftModel(truth.perturbed(rng, 0.4), 0.1)
        comparator = sc.fit_limited_memory(truth, tau)
        target = truth.sample_batch(300, rng) if sample else truth
        for block in (1, 5, 2 * M**2 + 1, 2**14):
            monkeypatch.setattr(sc.exact, "_TAIL_BLOCK", block)
            est = sc.memory_bound(target, full, comparator)
            tilted = sc.MemoryTiltModel(full, comparator, est.alpha_star, active_steps=est.steps)
            expected, per_context, ce_seq, h_seq = _whole_level_report(target, tilted, est.steps, tau)
            assert sorted(est.per_step) == sorted(expected)
            for t, (ce, h, mi) in expected.items():
                got = est.per_step[t]
                assert (got["ce"], got["cond_entropy"], got["mi"]) == (ce, h, mi), (block, t)
                old_ce, old_mi = per_context[t]
                assert ce == pytest.approx(old_ce, rel=1e-12, abs=1e-15)
                if not sample:
                    assert mi == pytest.approx(old_mi, rel=1e-12, abs=1e-15)
            if sample:
                # memory_bound's per-sequence step averages, from whole levels.
                n = target.shape[0]
                ce_seq, h_seq = ce_seq * n / len(est.steps), h_seq * n / len(est.steps)
                assert est.ce_stderr == float(ce_seq.std(ddof=1) / math.sqrt(n))
                assert est.cond_entropy_stderr == float(h_seq.std(ddof=1) / math.sqrt(n))


class TestOneWalkPerRun:
    """Every gap of a run reads one walk's window-mass tables.

    For M in 2..4, T in 3..6 and tau in 1..3, in exact and sample mode:
    each level's table is added one context at a time in context order,
    so the tables, the window fits and the estimates do not depend on the
    walk's blocks, and the estimate at each gap is bitwise the one-gap
    pipeline, ``memory_bound`` against ``fit_limited_memory``'s
    comparator.
    """

    @pytest.mark.parametrize("M", [2, 3, 4])
    @pytest.mark.parametrize("T", [3, 4, 5, 6])
    @pytest.mark.parametrize("sample", [False, True])
    def test_each_gap_is_its_own_pipeline_at_every_block(self, monkeypatch, few_samples, M, T, sample):
        rng = np.random.default_rng(100 * M + 10 * T + sample)
        truth = random_markov(rng, M, T, 3, concentration=0.5)
        full = sc.DriftModel(truth.perturbed(rng, 0.4), 0.1)
        target = truth.sample_batch(60, rng) if sample else truth
        taus = [1, 2, 3]
        levels = {tau: window_mass_tables(target, truth.spec, tau) for tau in taus}
        first = None
        for block in (1, 5, 2**14):
            monkeypatch.setattr(sc.exact, "_TAIL_BLOCK", block)
            walk = _WindowMass(target, truth.spec, taus)
            for tau in taus:
                tables = walk.mass[min(tau, T - 1)]
                assert len(tables) == T, (tau, block)
                assert all(np.array_equal(a, b) for a, b in zip(tables, levels[tau])), (tau, block)
            docs = [est.to_dict() for est in sc.memory_bounds(target, full, taus)]
            for tau, doc in zip(taus, docs, strict=True):
                if sample:
                    comparator = sc.fit_limited_memory(target, tau, spec=truth.spec)
                else:
                    comparator = sc.fit_limited_memory(truth, tau)
                assert doc == sc.memory_bound(target, full, comparator).to_dict(), (tau, block)
            first = first or docs
            assert docs == first, block

    @pytest.mark.parametrize("sample", [False, True])
    def test_comparator_must_be_a_window_table_model(self, rng, few_samples, sample):
        truth = random_markov(rng, 2, 4, 2)
        full = truth.perturbed(rng, 0.3)
        target = truth.sample_batch(50, rng) if sample else truth
        for comparator in (sc.DriftModel(truth, 0.2), sc.MixtureModel(sc.fit_limited_memory(truth, 1), 0.1)):
            with pytest.raises(ValueError, match="window table model"):
                sc.memory_bound(target, full, comparator, tau=1)
            with pytest.raises(ValueError, match="window table model"):
                fit_per_step_tilt(target, sc.MemoryTiltModel(full, comparator, 0.0))


class TestSampleLayouts:
    def test_sample_mode_results_do_not_depend_on_memory_order(self, rng):
        # The sample walk reads one contiguous copy of each column, so a
        # C-ordered, an F-ordered and a column-sliced array give the same bits.
        truth = random_markov(rng, 3, 5, 2)
        full = sc.DriftModel(truth, 0.2)
        comparator = sc.fit_limited_memory(truth, 1)
        samples = truth.sample_batch(2000, rng)
        wide = np.zeros((2000, 8), dtype=np.int64)
        wide[:, 2:7] = samples
        layouts = [np.ascontiguousarray(samples), np.asfortranarray(samples), wide[:, 2:7]]
        assert not layouts[1].flags.c_contiguous and not layouts[2].flags.c_contiguous
        docs = []
        for seqs in layouts:
            local, fit = sc.fit_alpha_local(seqs, full)
            docs.append((
                sc.model_to_dict(local),
                fit.to_dict(),
                sc.memory_bound(seqs, full, comparator).to_dict(),
                sc.model_to_dict(sc.fit_limited_memory(seqs, 2, spec=truth.spec)),
            ))
        assert docs[0] == docs[1] == docs[2]
