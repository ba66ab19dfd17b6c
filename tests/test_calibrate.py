import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqcal as sc
from seqcal.calibrate import _step_problem, fit_per_step_tilt, tilted_variance_max
from seqcal.exact import (
    FunctionalF,
    enumerate_sequences,
    logsumexp,
    prefix_expansion,
    sequence_log_probs,
)

from conftest import (
    all_seqs,
    model_probs,
    one_hot_model,
    random_markov,
    random_pair,
    stationary_sharp_truth,
)


def global_objective_grid(truth, base, f, alphas):
    """Independent vectorized CE(truth || tilt_a) over an alpha grid."""
    spec = base.spec
    lp_base = sequence_log_probs(base)
    fv = f.values(enumerate_sequences(spec.M, spec.T))
    pw = np.exp(sequence_log_probs(truth))
    mask = pw > 0.0
    mu_true = float(np.dot(pw, np.where(mask, fv, 0.0)))
    ce_term = -float(np.dot(pw[mask], lp_base[mask]))
    out = np.empty(len(alphas))
    for start in range(0, len(alphas), 2000):
        chunk = np.asarray(alphas[start : start + 2000])
        weights = chunk[:, None] * fv[None, :] + lp_base[None, :]
        out[start : start + 2000] = (
            ce_term - chunk * mu_true + logsumexp(weights, axis=1)
        ) / spec.T
    return out


def grid_argmin_alpha(truth, base, f, lo=-4.0, hi=4.0, step=1e-4):
    alphas = np.arange(lo, hi + step / 2, step)
    values = global_objective_grid(truth, base, f, alphas)
    return float(alphas[int(np.argmin(values))])


class TestGlobalTiltModel:
    def test_normalizes_over_sequences(self, rng):
        base = sc.MixtureModel(random_markov(rng, 3, 4, 1), 0.1)
        f = FunctionalF.log_prob(base)
        tilt = sc.GlobalTiltModel(base, f, 0.6)
        total = math.fsum(np.exp(sequence_log_probs(tilt)).tolist())
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_powering_up_identity(self, rng):
        # Tilting with f = log of the floored base raises it to the
        # power (1 + alpha), renormalized.
        base = random_markov(rng, 2, 3, 1)
        mix = sc.MixtureModel(base, 0.05)
        alpha = 0.42
        tilt = sc.GlobalTiltModel(mix, FunctionalF.log_prob(mix), alpha)
        probs = model_probs(mix)
        powered = {w: p ** (1 + alpha) for w, p in probs.items()}
        z = math.fsum(powered.values())
        for w in all_seqs(2, 3):
            assert math.exp(tilt.seq_log_prob(w)) == pytest.approx(powered[w] / z, rel=1e-10)

    def test_alpha_zero_scores_like_base(self, rng):
        base = sc.MixtureModel(random_markov(rng, 3, 3, 1), 0.2)
        tilt = sc.GlobalTiltModel(base, FunctionalF.log_prob(base), 0.0)
        local = sc.LocalTiltModel(base, 0.0)
        for w in all_seqs(3, 3):
            assert abs(tilt.seq_log_prob(w) - base.seq_log_prob(w)) <= 1e-12
            assert abs(local.seq_log_prob(w) - base.seq_log_prob(w)) <= 1e-12

    def test_conditionals_match_chain_rule(self, rng):
        base = sc.MixtureModel(random_markov(rng, 2, 4, 1), 0.1)
        tilt = sc.GlobalTiltModel(base, FunctionalF.neg_log_prob(base), -0.3)
        for w in all_seqs(2, 4):
            chained = sum(
                math.log(tilt.next_dist(w[:t])[w[t]]) for t in range(4)
            )
            assert chained == pytest.approx(tilt.seq_log_prob(w), abs=1e-10)


class TestFitAlphaGlobal:
    def test_truth_as_base_gives_zero(self, rng):
        truth = random_markov(rng, 3, 4, 1)
        res = sc.fit_alpha_global(truth, truth, FunctionalF.neg_log_prob(truth))
        assert abs(res.alpha_star) <= 1e-8
        assert res.objective <= res.baseline_objective + 1e-12

    def test_constant_shift_invariance(self, rng):
        truth, base = random_pair(rng, M=3, T=3, order=1)
        spec = base.spec
        table = rng.normal(size=27)
        f1 = FunctionalF.from_table(table, spec)
        f2 = FunctionalF.from_table(table + 3.7, spec)
        r1 = sc.fit_alpha_global(truth, base, f1)
        r2 = sc.fit_alpha_global(truth, base, f2)
        assert r1.alpha_star == pytest.approx(r2.alpha_star, abs=1e-7)
        t1 = sc.GlobalTiltModel(base, f1, r1.alpha_star)
        t2 = sc.GlobalTiltModel(base, f2, r2.alpha_star)
        for w in all_seqs(3, 3):
            assert t1.seq_log_prob(w) == pytest.approx(t2.seq_log_prob(w), abs=1e-8)

    def test_matches_grid_search_oracle(self, rng):
        truth = random_markov(rng, 3, 4, 1)
        base = truth.perturbed(rng, 0.35)
        f = FunctionalF.neg_log_prob(sc.MixtureModel(base, 0.02))
        res = sc.fit_alpha_global(truth, base, f)
        oracle = grid_argmin_alpha(truth, base, f)
        assert abs(res.alpha_star) < 3.8  # interior of the oracle grid
        assert abs(res.alpha_star - oracle) <= 2e-4

    def test_moment_matching_and_gradient(self, rng):
        truth, base = random_pair(rng, M=3, T=4, order=1)
        f = FunctionalF.log_prob(sc.MixtureModel(base, 0.05))
        res = sc.fit_alpha_global(truth, base, f)
        assert abs(res.gradient) <= 1e-10
        assert abs(res.mu_target - res.mu_tilted) <= 4 * 1e-10

    def test_optimum_at_infinity_saturates_within_tolerance(self, rng):
        # Truth concentrated on the maximizer of f: the exact optimum is
        # at +inf, so the fit stops once the moment mismatch is within
        # tolerance and still reports a valid improvement.
        spec = sc.make_spec(2, 2)
        truth = one_hot_model(spec)
        base = sc.MarkovModel.uniform(spec)
        table = np.array([1.0, 0.0, 0.0, 0.0])
        res = sc.fit_alpha_global(truth, base, FunctionalF.from_table(table, spec))
        assert abs(res.gradient) <= 1e-10
        assert res.alpha_star > 1.0
        assert res.objective <= res.baseline_objective + 1e-12

    def test_divergence_when_base_misses_support(self, rng):
        spec = sc.make_spec(2, 2)
        truth = sc.MarkovModel.uniform(spec)
        base = one_hot_model(spec)
        with pytest.raises(sc.CalibrationDivergenceError, match="support"):
            sc.fit_alpha_global(truth, base, FunctionalF.neg_log_prob(sc.MixtureModel(base, 0.1)))


class TestEntropyRateCalibration:
    def test_truth_base_identity(self, rng):
        # The floor mixes the base away from the truth, so alpha* is
        # Theta(eps) rather than exactly 0: it un-mixes what the floor
        # added.  As eps -> 0 the exponent vanishes and the calibration
        # identity holds throughout.
        truth = random_markov(rng, 3, 4, 1)
        alphas = []
        for eps in (0.05, 1e-3, 1e-6):
            tilted, res = sc.calibrate_entropy_rate(truth, truth, eps)
            alphas.append(abs(res.alpha_star))
            ce = sc.cross_entropy_exact(truth, tilted)
            er = sc.entropy_rate_exact(tilted)
            assert abs(ce - er) <= 1e-8
        assert alphas[2] <= 1e-4
        assert alphas[2] < alphas[1] < alphas[0]

    def test_drift_base_fixed(self, rng):
        truth = stationary_sharp_truth(sc.make_spec(3, 5), rng)
        base = sc.DriftModel(truth, 1.0 / 5)
        eps = 0.01
        mixture = sc.MixtureModel(base, eps)
        pre_gap = abs(
            sc.cross_entropy_exact(truth, mixture) - sc.entropy_rate_exact(mixture)
        )
        assert pre_gap > 1e-3
        tilted, res = sc.calibrate_entropy_rate(truth, base, eps)
        post_gap = abs(
            sc.cross_entropy_exact(truth, tilted) - sc.entropy_rate_exact(tilted)
        )
        assert post_gap <= 1e-8
        assert res.objective <= res.baseline_objective + 1e-12

    def test_calibration_guarantees_random_suite(self, rng):
        for _ in range(15):
            truth, base = random_pair(rng, T=int(rng.integers(2, 5)), scale=0.3)
            T, M = truth.spec.T, truth.spec.M
            eps = max(sc.kl_exact(truth, base) / T, 1e-5)
            tilted, res = sc.calibrate_entropy_rate(truth, base, eps)
            mixture = tilted.base
            # calibration identity
            ce = sc.cross_entropy_exact(truth, tilted)
            er = sc.entropy_rate_exact(tilted)
            assert abs(ce - er) <= 1e-8
            # entropy rate closeness at the measured regret
            eps_true = res.extras["measured_epsilon"]
            assert abs(sc.entropy_rate_exact(truth) - er) <= (1 + 1 / T) * eps_true + 1e-9
            # improvement in the stated quadratic form
            denom = math.log(M) + math.log(1 / eps) / T
            claim = 0.5 * ((res.baseline_objective - sc.entropy_rate_exact(mixture)) / denom) ** 2
            assert res.improvement >= claim - 1e-12


    def test_one_lattice_walk_per_model(self, rng, monkeypatch):
        import seqcal.calibrate as cal
        import seqcal.exact as ex

        walked, calls = [], {"enumerate_sequences": 0, "values": 0}
        real_walk, real_enum, real_values = (
            ex.sequence_log_probs, ex.enumerate_sequences, ex.FunctionalF.values
        )

        def counting_walk(model, budget=None):
            walked.append(model)
            return real_walk(model, budget)

        def counting_enum(*args, **kwargs):
            calls["enumerate_sequences"] += 1
            return real_enum(*args, **kwargs)

        def counting_values(*args, **kwargs):
            calls["values"] += 1
            return real_values(*args, **kwargs)

        for module in (cal, ex):
            monkeypatch.setattr(module, "sequence_log_probs", counting_walk)
            monkeypatch.setattr(module, "enumerate_sequences", counting_enum, raising=False)
        monkeypatch.setattr(ex.FunctionalF, "values", counting_values)
        truth, base = random_pair(rng, T=4, scale=0.3)
        tilted, _ = sc.calibrate_entropy_rate(truth, base, 0.05)
        mixture = tilted.base
        assert [m is truth for m in walked].count(True) == 1
        assert [m is mixture for m in walked].count(True) == 1
        assert len(walked) == 2
        assert calls == {"enumerate_sequences": 0, "values": 0}

    def test_rebuilt_model_has_bitwise_equal_levels(self, rng):
        truth, base = random_pair(rng, T=4, scale=0.3)
        tilted, _ = sc.calibrate_entropy_rate(truth, base, 0.05)
        rebuilt = sc.model_from_dict(sc.model_to_dict(tilted))
        assert len(rebuilt._levels) == len(tilted._levels)
        for ours, theirs in zip(tilted._levels, rebuilt._levels):
            assert ours.tobytes() == theirs.tobytes()


class TestLookahead:
    def test_uniform_base(self):
        base = sc.MarkovModel.uniform(sc.make_spec(4, 3))
        np.testing.assert_allclose(
            sc.lookahead_entropy_vector(base, [1]), np.full(4, math.log(4)), atol=1e-12
        )

    def test_deterministic_base(self):
        base = one_hot_model(sc.make_spec(3, 3))
        np.testing.assert_allclose(sc.lookahead_entropy_vector(base, [0]), np.zeros(3))

    def test_binary_markov_rows(self):
        spec = sc.make_spec(2, 4)
        base = sc.MarkovModel(
            spec, 1, [np.array([[0.5, 0.5]]), np.array([[0.9, 0.1], [0.5, 0.5]])]
        )
        h09 = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        h05 = math.log(2)
        np.testing.assert_allclose(
            sc.lookahead_entropy_vector(base, [0]), [h09, h05], atol=1e-12
        )

    def test_final_step_is_zero(self, rng):
        base = random_markov(rng, 3, 3, 1)
        np.testing.assert_array_equal(
            sc.lookahead_entropy_vector(base, [0, 1]), np.zeros(3)
        )

    def test_local_rows_normalize(self, rng):
        base = random_markov(rng, 3, 4, 1)
        tilt = sc.LocalTiltModel(base, -1.7)
        for _ in range(50):
            L = int(rng.integers(0, 4))
            row = tilt.next_dist(rng.integers(0, 3, size=L))
            assert abs(row.sum() - 1.0) <= 1e-12
            assert np.all(row >= 0.0)


class TestFitAlphaLocal:
    def test_truth_as_base(self, rng):
        truth = random_markov(rng, 3, 4, 1)
        tilted, res = sc.fit_alpha_local(truth, truth)
        assert abs(res.alpha_star) <= 1e-8

    def test_moment_matching(self, rng):
        truth = stationary_sharp_truth(sc.make_spec(3, 5), rng)
        base = sc.DriftModel(truth, 0.2)
        tilted, res = sc.fit_alpha_local(truth, base)
        assert abs(res.mu_target - res.mu_tilted) <= 1e-8
        assert res.objective <= res.baseline_objective + 1e-12
        # CE of the returned model agrees with the reported objective
        assert sc.cross_entropy_exact(truth, tilted) == pytest.approx(res.objective, abs=1e-10)

    def test_sample_mode_approaches_exact(self, rng):
        truth = stationary_sharp_truth(sc.make_spec(3, 5), rng)
        base = sc.DriftModel(truth, 0.2)
        _, exact_res = sc.fit_alpha_local(truth, base)
        samples = truth.sample_batch(10**5, sc.named_stream(21, "local-sample"))
        _, samp_res = sc.fit_alpha_local(samples, base)
        assert samp_res.mode == "sample-average"
        se_alpha = samp_res.extras["gradient_stderr"] / max(samp_res.curvature, 1e-12)
        assert abs(samp_res.alpha_star - exact_res.alpha_star) <= 3 * se_alpha

    def test_sample_mode_needs_enough_sequences(self, rng):
        truth, base = random_pair(rng, M=2, T=3)
        with pytest.raises(ValueError, match="at least"):
            sc.fit_alpha_local(truth.sample_batch(100, rng), base)

    def test_sample_mode_rejects_out_of_vocabulary_tokens(self, rng):
        truth, base = random_pair(rng, M=2, T=3)
        samples = truth.sample_batch(1000, rng)
        for bad in (-1, 2):
            samples[11, 1] = bad
            with pytest.raises(ValueError, match="vocabulary"):
                sc.fit_alpha_local(samples, base)

    def test_quadratic_improvement_floor(self, rng):
        # Stated floor for the lookahead tilt of a mixture-floored base:
        # improvement >= (mean mismatch / (log M + log(1/eps)/T))^2 / 2.
        for _ in range(10):
            spec = sc.make_spec(3, 5)
            truth = stationary_sharp_truth(spec, rng)
            base = sc.DriftModel(truth, 0.2)
            eps = max(sc.kl_exact(truth, base) / spec.T, 1e-6)
            mix = sc.MixtureModel(base, eps)
            _, res = sc.fit_alpha_local(truth, mix)
            denom = math.log(spec.M) + math.log(1.0 / eps) / spec.T
            floor = 0.5 * ((res.mu_target - res.extras["mu_base"]) / denom) ** 2
            assert res.improvement >= floor - 1e-12


class TestObjectiveGeometry:
    def _fit(self, rng):
        truth, base = random_pair(rng, M=3, T=4, order=1, scale=0.3)
        mixture = sc.MixtureModel(base, 0.05)
        f = FunctionalF.log_prob(mixture)
        res = sc.fit_alpha_global(truth, mixture, f)
        return truth, mixture, f, res

    def test_convexity_around_optimum(self, rng):
        truth, mixture, f, res = self._fit(rng)
        at = lambda a: global_objective_grid(truth, mixture, f, [a])[0]  # noqa: E731
        for delta in (0.01, 0.1):
            assert at(res.alpha_star + delta) >= res.objective - 1e-12
            assert at(res.alpha_star - delta) >= res.objective - 1e-12

    def test_gradient_and_curvature_vs_finite_differences(self, rng):
        truth, mixture, f, res = self._fit(rng)
        ce = lambda a: global_objective_grid(truth, mixture, f, [a])[0]  # noqa: E731
        pw = np.exp(sequence_log_probs(truth))
        fv = f.values(enumerate_sequences(3, 4))
        mu_true = float(np.dot(pw, fv))
        for off in (-1.0, -0.4, 0.4, 1.0):
            a = res.alpha_star + off
            tilt = sc.GlobalTiltModel(mixture, f, a)
            mu, var = sc.mean_var_exact(tilt, f)
            grad = (mu - mu_true) / 4
            h1, h2 = 1e-4, 1e-3
            fd1 = (ce(a + h1) - ce(a - h1)) / (2 * h1)
            fd2 = (ce(a + h2) - 2 * ce(a) + ce(a - h2)) / h2**2
            assert abs(fd1 - grad) / abs(grad) <= 1e-5
            assert abs(fd2 - var / 4) / (var / 4) <= 1e-4

    def test_improvement_lower_bound_quadratic(self, rng):
        truth, mixture, f, res = self._fit(rng)
        grid = np.linspace(min(0, res.alpha_star) - 1, max(0, res.alpha_star) + 1, 41)
        sigma2 = tilted_variance_max(mixture, f, grid)
        bound = (res.mu_target - res.extras["mu_base"]) ** 2 / (2 * sigma2 * 4)
        assert res.improvement >= bound - 1e-12

    def test_per_step_gradient_identity(self, rng):
        # Finite-difference check of the per-step objective's derivative
        # against the lookahead mean mismatch.
        truth = stationary_sharp_truth(sc.make_spec(3, 4), rng)
        base = sc.DriftModel(truth, 0.25)
        h = 1e-4
        ce = lambda a: sc.cross_entropy_exact(truth, sc.LocalTiltModel(base, a))  # noqa: E731
        mu_true = _mu_bar(truth, base, truth)
        for alpha in (-0.5, 0.3, 1.1):
            fd = (ce(alpha + h) - ce(alpha - h)) / (2 * h)
            mu_tilt = _mu_bar(truth, base, sc.LocalTiltModel(base, alpha))
            assert abs(fd - (mu_tilt - mu_true)) <= 1e-6


def _mu_bar(truth, feature_base, sampler):
    """(1/T) sum_t E_{ctx~truth} E_{w_t~sampler}[lookahead entropy]."""
    M, T = truth.spec.M, truth.spec.T
    total = 0.0
    levels = {t: w for t, _states, w, _rows in prefix_expansion(truth)}
    for t in range(1, T + 1):
        ctx, w = enumerate_sequences(M, t - 1), levels[t]
        rows = sampler.next_dist_batch(ctx)
        feats = np.vstack([sc.lookahead_entropy_vector(feature_base, c) for c in ctx])
        total += float(np.dot(w, (rows * feats).sum(axis=1)))
    return total / T


def _row_layout_probe(problem, alpha):
    """A per-step probe computed on (N, M) rows, one context per row."""
    log_rows = np.ascontiguousarray(problem.log_rows.T)
    feats = np.ascontiguousarray(problem.feats.T)
    logits = log_rows + alpha * feats
    peak = np.max(logits, axis=1, keepdims=True)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        log_z = np.log(np.sum(np.exp(logits - shift), axis=1)) + np.squeeze(shift, axis=1)
    rows = np.exp(logits - log_z[:, None])
    m = (rows * feats).sum(axis=1)
    var = (rows * (feats - m[:, None]) ** 2).sum(axis=1)
    T, w = problem.T, problem.weights
    c = float(np.dot(w, var)) / T
    out = {
        "g": (float(np.dot(w, m)) - problem.target_feat_sum) / T,
        "c": c,
        "obj": (problem.xent_sum - alpha * problem.target_feat_sum + float(np.dot(w, log_z))) / T,
        "mu": float(np.dot(w, m)) / T,
        "var": c * T,
    }
    if problem.obs_feats is not None:
        per_seq = (m.reshape(T, problem.n_seqs) - problem.obs_feats).sum(axis=0) / T
        out["g_stderr"] = float(per_seq.std(ddof=1) / math.sqrt(problem.n_seqs))
    return out


class TestStepProblemLayout:
    # M = 9 crosses the row length from which numpy sums a row pairwise.
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        M=st.sampled_from([2, 3, 4, 9, 17]),
        T=st.integers(1, 4),
        kind=st.sampled_from(["local", "memory"]),
        sample=st.booleans(),
        zero=st.booleans(),
        active_mask=st.integers(1, 15),
    )
    def test_column_probe_is_bitwise_the_row_formula(
        self, seed, M, T, kind, sample, zero, active_mask
    ):
        rng = np.random.default_rng(seed)
        spec = sc.make_spec(M, T)
        tables = [rng.dirichlet(np.ones(M), size=M**ell) for ell in (0, 1)]
        comparator_row = rng.dirichlet(np.ones(M))
        if zero:
            # The truth never emits the last token first or after token
            # 0; the base keeps that zero, so its log row is -inf off the
            # target's support, and the comparator's zero is floored.
            for row in (tables[0][0], tables[1][0], comparator_row):
                row[-1] = 0.0
                row /= row.sum()
        truth = sc.MarkovModel(spec, 1, tables)
        base = truth.perturbed(rng, 0.5)
        active = {t for t in range(1, T + 1) if active_mask >> (t - 1) & 1} or {T}
        if kind == "local":
            tilt = sc.LocalTiltModel(base, 0.0)
        else:
            comparator = sc.MarkovModel(spec, 0, [comparator_row[None, :]])
            tilt = sc.MemoryTiltModel(base, comparator, 0.0, active_steps=active)
        target = truth.sample_batch(50, rng) if sample else truth
        problem = _step_problem(target, tilt, active, min_samples=1)
        assert problem.log_rows.flags.c_contiguous and problem.feats.flags.c_contiguous
        for alpha in (0.0, 0.6, -0.6, 8.0, -8.0):
            assert problem.evaluate(alpha) == _row_layout_probe(problem, alpha)
            if alpha != 0.0:
                # The model's own rows on every level it tilts are the
                # row formula: log rows + alpha * feats, less the logsumexp.
                model = (sc.LocalTiltModel(base, alpha) if kind == "local" else
                         sc.MemoryTiltModel(base, comparator, alpha, active_steps=active))
                for t, states, _, _ in prefix_expansion(truth, None, model):
                    if (t < T) if kind == "local" else (t in active):
                        base_rows, feats = model._step(states[-1])
                        with np.errstate(divide="ignore"):
                            logits = np.log(base_rows) + alpha * feats
                        rows = np.exp(logits - logsumexp(logits, axis=1)[:, None])
                        assert np.array_equal(model.rows(states[-1]), rows)


class TestAmplificationBound:
    def test_plug_in_t1(self):
        bound = sc.amplification_bound(0.2, 1, 2)
        assert bound.mixture_kl_bound == pytest.approx(0.4, abs=1e-15)

    def test_independent_arithmetic(self):
        eps, T, M = 0.01, 100, 3
        bound = sc.amplification_bound(eps, T, M)
        assert bound.mixture_kl_bound == pytest.approx(1.01 * 0.01, abs=1e-15)
        expected_gap = math.sqrt(2 * 0.01 * 101) * (math.log(3) + math.log(100) / 100)
        assert bound.generation_gap_bound == pytest.approx(expected_gap, abs=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                sc.amplification_bound(bad, 4, 3)
        with pytest.raises(ValueError):
            sc.amplification_bound(0.1, 0, 3)
        with pytest.raises(ValueError):
            sc.amplification_bound(0.1, 4, 1)

    def test_bound_holds_on_random_instances(self, rng):
        for _ in range(25):
            truth, base = random_pair(rng, scale=0.2)
            T, M = truth.spec.T, truth.spec.M
            eps = sc.kl_exact(truth, base) / T
            if not 1e-6 < eps < 0.5:
                continue
            mix = sc.MixtureModel(base, eps)
            bound = sc.amplification_bound(eps, T, M)
            assert sc.kl_exact(truth, mix) / T <= bound.mixture_kl_bound + 1e-12
            gap = abs(sc.cross_entropy_exact(truth, mix) - sc.entropy_rate_exact(mix))
            assert gap <= bound.generation_gap_bound + 1e-12


class TestResultArtifacts:
    def test_result_serializes(self, rng):
        truth, base = random_pair(rng, M=2, T=3, order=1)
        tilted, res = sc.calibrate_entropy_rate(truth, base, 0.05)
        doc = res.to_dict()
        assert doc["mode"] == "exact"
        assert doc["f_descriptor"]["kind"] == "log_prob"
        assert len(doc["trace"]) == res.n_iterations
        clone = sc.model_from_dict(sc.model_to_dict(tilted))
        for w in all_seqs(2, 3):
            assert clone.seq_log_prob(w) == pytest.approx(tilted.seq_log_prob(w), abs=1e-12)
