import math

import numpy as np
import pytest

import seqcal as sc

from conftest import one_hot_model, random_markov, random_pair, stationary_sharp_truth


class TestCrossEntropyMc:
    def test_uniform_self_is_exact_with_zero_stderr(self):
        model = sc.MarkovModel.uniform(sc.make_spec(3, 4))
        est = sc.cross_entropy_mc(model, model, 100, sc.named_stream(0, "mc"))
        assert est.value == pytest.approx(math.log(3), abs=1e-12)
        assert est.stderr == 0.0
        assert est.n_samples == 100

    def test_agrees_with_exact(self, rng):
        p, q = random_pair(rng, M=3, T=4, order=1)
        exact = sc.cross_entropy_exact(p, q)
        est = sc.cross_entropy_mc(p, q, 10**5, sc.named_stream(1, "mc"))
        assert abs(est.value - exact) <= 3 * est.stderr

    def test_deterministic_given_stream(self, rng):
        p, q = random_pair(rng, M=3, T=3, order=1)
        a = sc.cross_entropy_mc(p, q, 2, sc.named_stream(5, "mc"))
        b = sc.cross_entropy_mc(p, q, 2, sc.named_stream(5, "mc"))
        assert a.value == b.value and a.stderr == b.stderr

    def test_requires_two_samples(self, rng):
        p, q = random_pair(rng, M=2, T=2)
        with pytest.raises(ValueError):
            sc.cross_entropy_mc(p, q, 1, rng)

    def test_zero_probability_flags_infinite(self, rng):
        spec = sc.make_spec(2, 3)
        p = sc.MarkovModel.uniform(spec)
        q = one_hot_model(spec)
        est = sc.cross_entropy_mc(p, q, 64, sc.named_stream(2, "mc"))
        assert est.infinite and est.value == math.inf
        assert est.offending is not None
        assert q.seq_log_prob(est.offending) == -math.inf


class TestDriftCurve:
    def test_stationary_self_generation_is_flat(self, rng):
        truth = stationary_sharp_truth(sc.make_spec(3, 8), rng)
        prefixes = truth.sample_batch(4096, sc.named_stream(3, "prefixes"))[:, :1]
        curve = sc.drift_curve(truth, 4096, sc.named_stream(3, "drift"), prefixes=prefixes)
        spread = curve.means.max() - curve.means.min()
        combined = math.hypot(*(curve.stderrs.tolist()))
        assert spread <= 3 * combined
        # exact version: flat to machine precision
        exact = sc.drift_curve_exact(truth, seed_model=truth, prefix_len=1)
        assert exact.means.max() - exact.means.min() <= 1e-12

    def test_drift_model_rises_toward_log_m(self, rng):
        # Seeded with one real token so every point is a conditional
        # entropy; the mode-posterior mixing then rises monotonically.
        base = stationary_sharp_truth(sc.make_spec(3, 8), rng)
        drift = sc.DriftModel(base)  # switch probability 1/T
        exact = sc.drift_curve_exact(drift, seed_model=base, prefix_len=1)
        assert np.all(np.diff(exact.means) > 0)
        assert exact.means[-1] >= exact.means[0]
        assert exact.means[-1] <= math.log(3)
        prefixes = base.sample_batch(4096, sc.named_stream(4, "p"))[:, :1]
        mc = sc.drift_curve(drift, 4096, sc.named_stream(4, "drift"), prefixes=prefixes)
        assert mc.means[-1] >= mc.means[0]
        np.testing.assert_allclose(mc.means, exact.means, atol=5 * mc.stderrs.max() + 1e-9)

    def test_deterministic_model_all_zero(self, rng):
        model = one_hot_model(sc.make_spec(3, 5))
        curve = sc.drift_curve(model, 16, sc.named_stream(5, "drift"))
        np.testing.assert_array_equal(curve.means, np.zeros(5))

    def test_means_within_entropy_range(self, rng):
        for _ in range(10):
            model, _ = random_pair(rng, T=4)
            curve = sc.drift_curve(model, 64, sc.named_stream(6, "drift"))
            assert np.all(curve.means >= 0.0)
            assert np.all(curve.means <= math.log(model.spec.M) + 1e-12)

    def test_reproducible_bit_exact(self, rng):
        model, _ = random_pair(rng, M=3, T=5, order=1)
        a = sc.drift_curve(model, 256, sc.named_stream(7, "drift"))
        b = sc.drift_curve(model, 256, sc.named_stream(7, "drift"))
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.stderrs, b.stderrs)

    def test_seeded_curve_starts_at_seed_end(self, rng):
        model, _ = random_pair(rng, M=3, T=6, order=1)
        prefixes = model.sample_batch(8, sc.named_stream(9, "p"))[:, :2]
        curve = sc.drift_curve(model, 64, sc.named_stream(9, "drift"), prefixes=prefixes)
        assert curve.steps[0] == 3 and curve.steps[-1] == 6
        with pytest.raises(ValueError):
            curve.at_step(2)

    def test_csv_round_trip_values(self, rng):
        model, _ = random_pair(rng, M=2, T=3, order=0)
        curve = sc.drift_curve(model, 32, sc.named_stream(10, "drift"))
        lines = curve.to_csv_text().strip().split("\n")
        assert lines[0] == "t,mean,stderr,n"
        first = lines[1].split(",")
        assert float(first[1]) == curve.means[0]  # repr round-trips exactly


class TestEntRateGap:
    def test_truth_model_has_no_gap(self, rng):
        # A step-homogeneous truth: every conditional equals its entropy
        # rate, so the CE endpoint and the late generation entropy agree.
        truth = random_markov(rng, 3, 6, 0, concentration=0.8)
        gap = sc.ent_rate_gap(truth, 8192, sc.named_stream(11, "gap"), true_model=truth)
        assert abs(gap.gap) <= 3 * max(gap.gap_stderr, 1e-12)

    def test_drift_model_positive_gap(self, rng):
        # Exact endpoints certify the gap; the MC version must agree.
        truth = stationary_sharp_truth(sc.make_spec(3, 6), rng)
        drift = sc.DriftModel(truth)
        exact_end = sc.drift_curve_exact(drift).means[-1]
        exact_start = sc.cross_entropy_exact(truth, drift)
        assert exact_end - exact_start > 0
        gap = sc.ent_rate_gap(drift, 8192, sc.named_stream(12, "gap"), true_model=truth)
        assert gap.gap > 3 * gap.gap_stderr
        assert gap.start_source == "cross_entropy_mc"

    def test_mixture_gap_within_amplification_bound(self, rng):
        # Exact computation against the closed-form worst-case bound.
        truth = stationary_sharp_truth(sc.make_spec(3, 5), rng)
        base = truth.perturbed(rng, 0.3)
        eps = sc.kl_exact(truth, base) / truth.spec.T
        mix = sc.MixtureModel(base, eps)
        bound = sc.amplification_bound(eps, truth.spec.T, truth.spec.M)
        gap = abs(
            sc.cross_entropy_exact(truth, mix) - sc.entropy_rate_exact(mix)
        )
        assert gap <= bound.generation_gap_bound

    def test_without_truth_uses_curve_start(self, rng):
        model, _ = random_pair(rng, M=3, T=4, order=1)
        gap = sc.ent_rate_gap(model, 128, sc.named_stream(13, "gap"))
        assert gap.start_source == "curve_start"
        assert gap.gap == pytest.approx(gap.end - gap.start, abs=1e-15)
