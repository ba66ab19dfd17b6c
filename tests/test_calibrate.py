import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import seqcal as sc
from seqcal.calibrate import (
    _GlobalTiltProblem,
    _minimize_convex,
    fit_per_step_tilt,
    tilted_variance_max,
)
from seqcal import cli
from seqcal.cli import parse_config, run
from seqcal.estimate import _exact_drift_curve
from seqcal.exact import (
    P_MIN,
    FunctionalF,
    _entropy_from_log_probs,
    logsumexp,
    prefix_expansion,
    sample_expansion,
    sequence_log_probs,
)
from seqcal.models import _dot_columns, _logsumexp_columns, _sum_columns

from conftest import (
    MODEL_KINDS,
    all_seqs,
    enumerate_sequences,
    functional_values,
    heap_peak,
    model_of_kind,
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
    fv = functional_values(f, enumerate_sequences(spec.M, spec.T))
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

    @pytest.mark.parametrize("M", [2, 3, 4, 8, 9])
    def test_pyramid_step_is_bitwise_logsumexp(self, M):
        # The column loop adds the M terms left to right, as numpy adds a
        # row of fewer than 8; from M = 8 the row formula is used.  Rows
        # with -inf entries and rows that are all -inf included, in the
        # pyramid's layout (the transpose of (n, M) rows) and in the
        # per-step tilt's (a C-contiguous (M, n) array).
        rng = np.random.default_rng(M)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=(n, M))
            a[rng.random((n, M)) < 0.3] = -np.inf
            a[rng.random(n) < 0.15] = -np.inf
            expected = logsumexp(a, axis=1)
            assert np.array_equal(_logsumexp_columns(a.T), expected)
            assert np.array_equal(_logsumexp_columns(np.ascontiguousarray(a.T)), expected)

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


class TestNonFiniteParameters:
    """A non-finite exponent or feature table is refused, from code and from documents.

    Accepted, a NaN alpha or table entry would give a global tilt uniform
    rows everywhere and a local tilt NaN rows, which serialize as NaN.
    """

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_tilts_reject_a_non_finite_alpha(self, rng, bad):
        base = random_markov(rng, 2, 3, 1)
        f = FunctionalF.log_prob(base)
        comparator = sc.fit_limited_memory(base, 1)
        builds = [
            lambda alpha: sc.GlobalTiltModel(base, f, alpha),
            lambda alpha: sc.LocalTiltModel(base, alpha),
            lambda alpha: sc.MemoryTiltModel(base, comparator, alpha),
        ]
        for build in builds:
            doc = sc.model_to_dict(build(0.5))
            doc["parameters"]["alpha"] = bad
            with pytest.raises(ValueError, match="alpha must be finite"):
                build(bad)
            with pytest.raises(ValueError, match="alpha must be finite"):
                sc.model_from_dict(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_table_functional_rejects_a_non_finite_entry(self, bad):
        spec = sc.make_spec(2, 2)
        with pytest.raises(ValueError, match="table must be finite"):
            FunctionalF.from_table([0.0, 1.0, bad, 2.0], spec)
        f = FunctionalF.from_table([0.0, 1.0, 3.0, 2.0], spec)
        doc = sc.model_to_dict(sc.GlobalTiltModel(sc.MarkovModel.uniform(spec), f, 0.5))
        doc["parameters"]["f"]["values"][2] = bad
        with pytest.raises(ValueError, match="table must be finite"):
            sc.model_from_dict(doc)


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
        # at +inf, so the fit stops at its first probe whose moment
        # mismatch is within tolerance and still reports a valid
        # improvement.  The loose tolerance is met well before the tilted
        # probabilities saturate in floating point, where the gradient
        # reads 0.
        spec = sc.make_spec(2, 2)
        truth = one_hot_model(spec)
        base = sc.MarkovModel.uniform(spec)
        table = np.array([1.0, 0.0, 0.0, 0.0])
        tolerance = 1e-6
        res = sc.fit_alpha_global(truth, base, FunctionalF.from_table(table, spec), tolerance)
        assert abs(res.gradient) <= tolerance
        assert all(abs(g) > tolerance for _, g in res.trace[:-1])
        assert res.alpha_star > 1.0
        assert res.objective <= res.baseline_objective + 1e-12

    def test_target_moments_are_correctly_rounded_support_sums(self, rng):
        # mu_target and the base term of the objective are math.fsum of
        # the truth's support terms; off the support nothing is added.
        # (A plain dot product misses this on about half the instances.)
        for _ in range(10):
            rows = rng.dirichlet(np.ones(3), size=3)
            rows[[0, 1, 2], [2, 0, 1]] = 0.0
            rows /= rows.sum(axis=1, keepdims=True)
            truth = sc.MarkovModel(sc.make_spec(3, 4), 1, [[[0.6, 0.4, 0.0]], rows])
            base = sc.MixtureModel(random_markov(rng, 3, 4, 1), 0.05)
            problem = _GlobalTiltProblem.build(base, FunctionalF.neg_log_prob(base), truth=truth)
            p = np.exp(sequence_log_probs(truth))
            support = p > 0.0
            assert 0 < support.sum() < support.size
            assert problem.mu_target == math.fsum((p * problem.fv)[support].tolist())
            assert problem.ce_base_term == -math.fsum((p * problem.lp_base)[support].tolist())

    def test_divergence_when_base_misses_support(self, rng):
        spec = sc.make_spec(2, 2)
        truth = sc.MarkovModel.uniform(spec)
        base = one_hot_model(spec)
        with pytest.raises(sc.CalibrationDivergenceError, match="support"):
            sc.fit_alpha_global(truth, base, FunctionalF.neg_log_prob(sc.MixtureModel(base, 0.1)))


def _fsum_moments(lp_base, fv, alpha):
    """(mean, variance, log Z) of f under exp(alpha f + log B) / Z, by whole vectors and math.fsum."""
    x = alpha * fv + lp_base
    top = x.max()
    p = np.exp(x - top)
    total = math.fsum(p.tolist())
    mu = math.fsum((p * fv).tolist()) / total
    var = math.fsum((p * (fv - mu) ** 2).tolist()) / total
    return mu, var, top + math.log(total)


class TestBlockedGlobalMoments:
    # (M, T) lattices of one block and of several (a part block last at
    # M = 3); the block is 2**14 values.
    @settings(max_examples=60)
    @given(st.sampled_from([(2, 5), (3, 4), (4, 3), (2, 15), (3, 10), (4, 8)]),
           st.sampled_from([0.0, 0.3, -0.3, 5.0, -5.0, 300.0]),
           st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_matches_the_whole_vector_fsum_moments(self, shape, alpha, seed, f_is_log_b, dead_block):
        # Relative bounds: log Z within 1e-14 of max(1, |log Z|), the
        # mean within 1e-14 of s = max |f| over the sequences with mass,
        # and the variance within 1e-14 of sigma * (sigma + s), as the
        # deviations f - mean carry an error of order eps * s.  A merge
        # without the exp(m_b - max m) rescale or without the
        # between-block variance term misses them by orders of magnitude
        # on the multi-block lattices.
        M, T = shape
        n = M**T
        rng = np.random.default_rng(seed)
        # Trends across the lattice give the blocks different maxima and means.
        lp_base = rng.normal(-2.0 * T, 1.5, n) + np.linspace(0.0, 2.0, n)
        lp_base[rng.random(n) < 0.2] = -np.inf
        if dead_block and n > 2**14:
            lp_base[2**14:2 * 2**14] = -np.inf  # a whole block without mass
        if f_is_log_b:
            fv = np.maximum(lp_base, math.log(P_MIN))
        else:
            fv = rng.normal(0.0, 5.0, n) + np.linspace(0.0, 3.0, n)
        mu, var, log_z = _GlobalTiltProblem(lp_base, fv, T).moments(alpha)
        ref_mu, ref_var, ref_log_z = _fsum_moments(lp_base, fv, alpha)
        s = np.abs(fv[np.isfinite(lp_base)]).max()
        sigma = math.sqrt(ref_var)
        assert abs(log_z - ref_log_z) <= 1e-14 * max(1.0, abs(ref_log_z))
        assert abs(mu - ref_mu) <= 1e-14 * s
        assert abs(var - ref_var) <= 1e-14 * sigma * (sigma + s)


def _lse_problem(f, w, mu):
    """Probes of obj(a) = log sum_i w_i exp(a f_i) - a mu, a tilt problem in miniature.

    The gradient is the tilted mean of f minus mu and the curvature is the
    tilted variance, both Python floats as a tilt problem returns them.
    """
    f, log_w, mu = np.asarray(f, dtype=float), np.log(w), float(mu)

    def evaluate(a):
        z = a * f + log_w
        p = np.exp(z - z.max())
        p /= p.sum()
        m = float(np.dot(p, f))
        return {"g": m - mu, "c": float(np.dot(p, (f - m) ** 2))}

    return evaluate


# Integer features from [-50, 50] (their smallest gap is 1, so a
# saturating tail is within tolerance by |a| of about 60) and weights
# 10**U(-12, 0), so the curvature at a = 0 can be tiny.
_families = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-50, 50), min_size=n, max_size=n),
    st.lists(st.floats(-12.0, 0.0).map(lambda u: 10.0**u), min_size=n, max_size=n),
))


class TestMinimizeConvex:
    """The optimizer alone, on weighted log-sum-exp families.

    The minimizer is finite when mu lies strictly inside the range of f,
    at +-inf (saturating) when mu is an end of the range, and does not
    exist when mu lies outside it.
    """

    @staticmethod
    def stop(info):
        return abs(info["g"]) <= 1e-10

    def minimize(self, f, w, mu):
        x, info, trace = _minimize_convex(_lse_problem(f, w, mu), self.stop)
        assert trace[0]["alpha"] == 0.0
        assert info is trace[-1] and x == info["alpha"] and self.stop(info)
        assert not any(self.stop(i) for i in trace[:-1])
        return x, trace

    @settings(max_examples=300)
    @given(_families, st.sampled_from(["inside", "max", "min"]),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_finite_or_saturating_optimum_within_24_probes(self, family, where, share):
        f, w = family
        assume(min(f) < max(f))
        mu = {"inside": min(f) + share * (max(f) - min(f)), "max": max(f), "min": min(f)}[where]
        x, trace = self.minimize(f, w, mu)
        assert len(trace) <= 24
        if where != "inside":
            # The gradient keeps one sign, so the fit moves toward mu's end.
            assert x * (1.0 if where == "max" else -1.0) >= 0.0

    @settings(max_examples=20)
    @given(_families)
    def test_flat_gradient_stops_at_the_first_probe(self, family):
        f, w = family
        x, trace = self.minimize([f[0]] * len(f), w, f[0])
        assert x == 0.0 and len(trace) == 1

    @settings(max_examples=60)
    @given(_families, st.booleans(), st.floats(1e-6, 50.0))
    def test_one_signed_gradient_diverges(self, family, above, gap):
        f, w = family
        mu = max(f) + gap if above else min(f) - gap
        toward = "alpha = +inf" if above else "alpha = -inf"
        with pytest.raises(sc.CalibrationDivergenceError, match=re.escape(toward)):
            _minimize_convex(_lse_problem(f, w, mu), self.stop)

    def test_open_bracket_moves_out_by_max_of_x_and_1(self):
        # With f in {0, 1} and mu = 0.8, Newton's step at 0 is 0.3 / 0.25
        # = 1.2, not under max(|0|, 1), so the first move is outward to 1;
        # Newton's step there, 0.35, is taken, and the fit ends at log 4.
        problem = _lse_problem([0, 1], [1, 1], 0.8)
        assert problem(0.0)["g"] / problem(0.0)["c"] == pytest.approx(-1.2, abs=1e-15)
        x, trace = self.minimize([0, 1], [1, 1], 0.8)
        assert [i["alpha"] for i in trace[:3]] == [0.0, 1.0, 1.0 - trace[1]["g"] / trace[1]["c"]]
        assert x == pytest.approx(math.log(4.0), abs=1e-12)

    def test_one_sided_newton_at_zero_tolerance_stops_at_the_resolution(self):
        # With f in {0, 50} and mu below the mean 25, the gradient is
        # convex on the way down, so Newton's iterates approach the root
        # from above and the bracket stays open.  A gradient of exactly 0
        # is rarely reached, so the fit must stop once Newton's step is
        # below what double precision resolves instead of re-probing the
        # same alpha.
        for mu in np.linspace(0.0, 25.0, 101)[1:-1]:
            problem = _lse_problem([0, 50], [1, 1], mu)
            x, info, trace = _minimize_convex(problem, lambda i: i["g"] == 0.0)
            assert info is trace[-1] and x == info["alpha"] < 0.0
            assert info["g"] == 0.0 or abs(info["g"] / info["c"]) <= 1e-15 * max(1.0, abs(x))
            assert len(trace) <= 16, mu


class TestEntropyRateCalibration:
    def test_heap_peaks_in_lattice_vectors(self):
        # Heap peaks of the fit and its phases, in lattice vectors, on
        # top of what each phase is given.  The walks grow their last
        # levels in blocks, the truth's log-probabilities are summed
        # block by block as its walk yields them, a probe and the tilted
        # entropy run over blocks, and the tilt model builds its tilted
        # vector and pyramid (over columns) only when its rows are read.
        # At T = 8 a block is a quarter of the lattice, so the blocks'
        # temporaries are most of each peak; whole-level walks (6.1
        # vectors), a kept log P_true (+1.0), a whole log P_true - log B
        # or an |f| copy in the bound check (+1.0 while log B is held),
        # a whole-vector probe (2.0) or a row-wise logsumexp pyramid
        # (3.0) each break a bound.
        truth = random_markov(np.random.default_rng(3), 4, 8, 2, concentration=0.8)
        base = sc.DriftModel(truth.perturbed(np.random.default_rng(4), 0.3), 0.1)
        mixture = sc.MixtureModel(base, 0.05)
        f = FunctionalF.log_prob(mixture)
        size = 8 * 4**8
        (model, result), peak = heap_peak(lambda: sc.calibrate_entropy_rate(truth, base, 0.05))
        assert peak < 2.9 * size
        problem, build = heap_peak(lambda: _GlobalTiltProblem.build(mixture, f, truth=truth))
        assert build < 2.9 * size
        assert problem.fv is problem.lp_base
        lp_true = sequence_log_probs(truth)
        _, init = heap_peak(lambda: _GlobalTiltProblem(problem.lp_base, problem.fv, 8, lp_true))
        assert init < 1.2 * size
        tilted, tilt = heap_peak(lambda: sc.GlobalTiltModel(mixture, f, 0.3, _problem=problem))
        assert tilt < 0.1 * size
        _, probe = heap_peak(lambda: problem.evaluate(0.3))
        assert probe < 0.1 * size
        # The fitted model holds no tilted vector until its rows are read;
        # then its levels are bitwise the problem's tilt and the pyramid
        # of row-wise logsumexps over it.
        assert "_levels" not in vars(model)
        model.rows(model.init_state(1))
        levels = [np.concatenate([log_p for _, log_p in model._problem.tilt(result.alpha_star)])]
        for _ in range(8):
            levels.insert(0, logsumexp(levels[0].reshape(-1, 4), axis=1))
        assert [lv.tobytes() for lv in model._levels] == [lv.tobytes() for lv in levels]
        _, pyramid = heap_peak(lambda: tilted._levels)
        assert pyramid < 2.2 * size

    def test_heap_peak_at_the_benchmark_size(self):
        # At M = 4, T = 10 a block is 1/64 of the lattice, and the fit
        # with its tilted entropy holds one lattice vector, log B, with
        # the base's walk peaking at 1.2; any second lattice vector
        # breaks the bound.
        truth = random_markov(np.random.default_rng(3), 4, 10, 2, concentration=0.8)
        base = sc.DriftModel(truth.perturbed(np.random.default_rng(4), 0.3), 0.1)

        def fit():
            model, _ = sc.calibrate_entropy_rate(truth, base, 0.05, budget=sc.EnumerationBudget(4**10))
            return _entropy_from_log_probs(model._problem.tilt(model.alpha))

        _, peak = heap_peak(fit)
        assert peak < 1.3 * 8 * 4**10

    @pytest.mark.parametrize("seed, probes", [(7, 4), (11, 5)])
    def test_probe_count_at_the_benchmark_config(self, tmp_path, seed, probes):
        # The benchmark's exact-global run: a 4**10 lattice, an order-2
        # truth and its drifted model.  Blocked probes round differently
        # from whole-vector ones, and must not cost the fit a probe.
        cfg = parse_config({
            "pipeline": "calibrate-global", "seed": seed, "out": str(tmp_path),
            "M": 4, "T": 10,
            "true_model": {"kind": "random_markov", "order": 2, "concentration": 0.8},
            "model": {"recipe": "drift", "p": 0.1}, "epsilon": 0.05, "budget": 2_000_000,
        })
        code, out = run(cfg)
        assert code == 0
        assert json.loads((out / "calibration_global.json").read_text())["n_iterations"] == probes

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
        # Every walk of sequence log-probabilities is one
        # `_log_prob_blocks` stream: `sequence_log_probs` collects one
        # into a vector, and the fit streams the truth's into its sums.
        # A model reads a token array only through `_score` or
        # `_state_at`, so the fit builds none if it calls neither.
        import seqcal.calibrate as cal
        import seqcal.exact as ex

        walked, collected, token_reads = [], [], []
        real_blocks, real_walk = ex._log_prob_blocks, ex.sequence_log_probs
        real_score, real_state_at = sc.ConditionalModel._score, sc.ConditionalModel._state_at

        def counting_blocks(model, budget=None, out=None):
            walked.append(model)
            return real_blocks(model, budget, out)

        def counting_walk(model, budget=None):
            collected.append(model)
            return real_walk(model, budget)

        def counting_score(model, columns, n):
            token_reads.append("_score")
            return real_score(model, columns, n)

        def counting_state_at(model, contexts):
            token_reads.append("_state_at")
            return real_state_at(model, contexts)

        for module in (cal, ex):
            monkeypatch.setattr(module, "_log_prob_blocks", counting_blocks)
            monkeypatch.setattr(module, "sequence_log_probs", counting_walk)
        monkeypatch.setattr(sc.ConditionalModel, "_score", counting_score)
        monkeypatch.setattr(sc.ConditionalModel, "_state_at", counting_state_at)
        truth, base = random_pair(rng, T=4, scale=0.3)
        tilted, _ = sc.calibrate_entropy_rate(truth, base, 0.05)
        mixture = tilted.base
        assert [m is truth for m in walked].count(True) == 1
        assert [m is mixture for m in walked].count(True) == 1
        assert len(walked) == 2
        assert not any(m is truth for m in collected)
        assert token_reads == []
        # The token-array oracles live in the tests only.
        assert not hasattr(ex, "enumerate_sequences") and not hasattr(ex.FunctionalF, "values")

    def test_rebuilt_model_has_bitwise_equal_levels(self, rng):
        truth, base = random_pair(rng, T=4, scale=0.3)
        tilted, _ = sc.calibrate_entropy_rate(truth, base, 0.05)
        rebuilt = sc.model_from_dict(sc.model_to_dict(tilted))
        assert len(rebuilt._levels) == len(tilted._levels)
        for ours, theirs in zip(tilted._levels, rebuilt._levels):
            assert ours.tobytes() == theirs.tobytes()


def lookahead_entropy_vector(base, context):
    """Entry j: the entropy of the base's next row after context + [j]; 0 at the final step."""
    tilt = sc.LocalTiltModel(base, 0.0)
    return tilt._step(tilt._state_at(base._check_context(context)[None, :]))[1][0]


class TestLookahead:
    def test_uniform_base(self):
        base = sc.MarkovModel.uniform(sc.make_spec(4, 3))
        np.testing.assert_allclose(
            lookahead_entropy_vector(base, [1]), np.full(4, math.log(4)), atol=1e-12
        )

    def test_deterministic_base(self):
        base = one_hot_model(sc.make_spec(3, 3))
        np.testing.assert_allclose(lookahead_entropy_vector(base, [0]), np.zeros(3))

    def test_binary_markov_rows(self):
        spec = sc.make_spec(2, 4)
        base = sc.MarkovModel(
            spec, 1, [np.array([[0.5, 0.5]]), np.array([[0.9, 0.1], [0.5, 0.5]])]
        )
        h09 = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        h05 = math.log(2)
        np.testing.assert_allclose(
            lookahead_entropy_vector(base, [0]), [h09, h05], atol=1e-12
        )

    def test_final_step_is_zero(self, rng):
        base = random_markov(rng, 3, 3, 1)
        np.testing.assert_array_equal(
            lookahead_entropy_vector(base, [0, 1]), np.zeros(3)
        )

    def test_local_rows_normalize(self, rng):
        base = random_markov(rng, 3, 4, 1)
        tilt = sc.LocalTiltModel(base, -1.7)
        for _ in range(50):
            L = int(rng.integers(0, 4))
            row = tilt.next_dist(rng.integers(0, 3, size=L))
            assert abs(row.sum() - 1.0) <= 1e-12
            assert np.all(row >= 0.0)


class TestFitPerStepTiltReturnsItsModel:
    """The tilt is the fit's only specification; the fit returns it at alpha*."""

    @pytest.mark.parametrize("kind", ["local", "memory"])
    @pytest.mark.parametrize("sample", [False, True])
    def test_returned_model_reproduces_the_report(self, rng, kind, sample):
        truth = random_markov(rng, 3, 5, 2)
        full = sc.DriftModel(truth, 0.2)
        if kind == "local":
            tilt, steps = sc.LocalTiltModel(full, 0.0), [1, 2, 3, 4, 5]
        else:
            comparator = sc.fit_limited_memory(truth, 1)
            tilt, steps = sc.MemoryTiltModel(full, comparator, 0.0, active_steps=(3, 4)), [3, 4]
        target = truth.sample_batch(2000, rng) if sample else truth
        model, result = fit_per_step_tilt(target, tilt)
        assert type(model) is type(tilt) and model.base is full
        assert model.alpha == result.alpha_star != 0.0
        assert model.active_steps == tilt.active_steps
        assert result.extras["active_steps"] == steps
        assert result.f_descriptor == tilt._descriptor()
        if sample:
            ce = -float(np.mean(model.seq_log_prob_batch(target))) / 5
        else:
            ce = sc.cross_entropy_exact(truth, model)
        assert abs(ce - result.objective) <= 1e-12

    @pytest.mark.parametrize("kind", ["local", "memory"])
    @pytest.mark.parametrize("token, sign", [(0, 1.0), (1, -1.0)])
    def test_optimum_at_infinity_saturates_within_tolerance(self, kind, token, sign):
        # The truth always emits the token of the largest (token 0) or
        # smallest (token 1) feature, so the exact optimum is at
        # alpha = sign * inf; the fit stops at its first probe whose
        # moment mismatch is within tolerance and still reports a valid
        # improvement.  The loose tolerance is met well before the tilted
        # rows saturate in floating point, where the gradient reads 0.
        spec = sc.make_spec(2, 2)
        truth = one_hot_model(spec, token)
        if kind == "local":
            # Token 0 leads to a uniform next row, token 1 to a peaked one.
            base = sc.MarkovModel(spec, 1, [np.array([[0.5, 0.5]]),
                                            np.array([[0.5, 0.5], [0.9, 0.1]])])
            tilt = sc.LocalTiltModel(base, 0.0)
        else:
            base = sc.MarkovModel.uniform(spec)
            comparator = sc.MarkovModel(spec, 0, [np.array([[0.8, 0.2]])])
            tilt = sc.MemoryTiltModel(base, comparator, 0.0)
        tolerance = 1e-6
        model, result = fit_per_step_tilt(truth, tilt, tolerance)
        assert abs(result.gradient) <= tolerance
        assert all(abs(g) > tolerance for _, g in result.trace[:-1])
        assert sign * result.alpha_star > 1.0
        assert model.alpha == result.alpha_star
        assert result.objective <= result.baseline_objective + 1e-12


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
        fv = functional_values(f, enumerate_sequences(3, 4))
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
    levels = {t: w for t, _lo, _states, w, _rows in prefix_expansion(truth, whole=True)}
    for t in range(1, T + 1):
        ctx, w = enumerate_sequences(M, t - 1), levels[t]
        rows = sampler.next_dist_batch(ctx)
        feats = np.vstack([lookahead_entropy_vector(feature_base, c) for c in ctx])
        total += float(np.dot(w, (rows * feats).sum(axis=1)))
    return total / T


def _inner(a, b):
    """The weighted sums' inner product, numpy's own loop rather than BLAS's."""
    return float(np.einsum("i,i", a, b))


def _row_layout_tilt(rows, feats, alpha, bound=2.0**9):
    """The tilt formula on (N, M) base rows, one context per row: (u, Z, log Z).

    s is each row's max of alpha f and u = rows * exp(alpha f - s); a row
    whose |alpha| * (max f - min f) exceeds `bound` takes instead
    u = exp(log rows + alpha f - s - k), k its max, and adds k to s.  Z is
    numpy's row sum of u, and log Z is log(Z) + s.
    """
    logits = alpha * feats
    s = logits.max(axis=1)
    logits -= s[:, None]
    u = rows * np.exp(logits)
    guard = abs(alpha) * (feats.max(axis=1) - feats.min(axis=1)) > bound
    with np.errstate(divide="ignore"):
        x = np.log(rows[guard]) + logits[guard]
    k = x.max(axis=1)
    u[guard] = np.exp(x - k[:, None])
    s[guard] += k
    z = u.sum(axis=1)
    return u, z, np.log(z) + s


def _log_space_rows(rows, feats, alpha):
    """The log-space tilt: (rows tilted by alpha, log Z) by the max-shifted logsumexp of the logits."""
    with np.errstate(divide="ignore"):
        logits = np.log(rows) + alpha * feats
    log_z = logsumexp(logits, axis=1)
    return np.exp(logits - log_z[:, None]), log_z


def _probe_sums(problem, alpha, m, var, log_z):
    """A probe's dict from each context's moments: each step's weighted sums, added in step order."""
    T, w = problem.T, problem.weights
    m_sum = var_sum = log_z_sum = 0.0
    for span in problem.spans.values():
        m_sum += _inner(w[span], m[span])
        var_sum += _inner(w[span], var[span])
        log_z_sum += _inner(w[span], log_z[span])
    c = var_sum / T
    out = {
        "g": (m_sum - problem.target_feat_sum) / T,
        "c": c,
        "obj": (problem.xent_sum - alpha * problem.target_feat_sum + log_z_sum) / T,
        "mu": m_sum / T,
        "var": c * T,
    }
    if problem.obs_feats is not None:
        per_seq = (m.reshape(T, problem.n_seqs) - problem.obs_feats).sum(axis=0) / T
        out["g_stderr"] = float(per_seq.std(ddof=1) / math.sqrt(problem.n_seqs))
    return out


def _row_layout_probe(problem, alpha, rows, feats):
    """A per-step probe computed on (N, M) rows, one context per row.

    `rows` and `feats` are the whole (M, N) base rows and features of
    :func:`_whole_level_problem`, not the problem's own storage.  Each
    context's mean m = sum(u f) / Z and variance sum(u (f - m)**2) / Z
    are read off :func:`_row_layout_tilt`'s u and Z.
    """
    rows, feats = np.ascontiguousarray(rows.T), np.ascontiguousarray(feats.T)
    u, z, log_z = _row_layout_tilt(rows, feats, alpha)
    m = (u * feats).sum(axis=1) / z
    var = (u * (feats - m[:, None]) * (feats - m[:, None])).sum(axis=1) / z
    return _probe_sums(problem, alpha, m, var, log_z)


def _log_space_probe(problem, alpha, rows, feats):
    """The same probe by the log-space formula: normalized rows, then centered moments."""
    rows, feats = np.ascontiguousarray(rows.T), np.ascontiguousarray(feats.T)
    tilted, log_z = _log_space_rows(rows, feats, alpha)
    m = (tilted * feats).sum(axis=1)
    var = (tilted * (feats - m[:, None]) ** 2).sum(axis=1)
    return _probe_sums(problem, alpha, m, var, log_z)


def _assert_near(probe, oracle):
    """Each entry within 1e-12 relative, or 1e-15 absolute where it is at most 1e-6."""
    assert probe.keys() == oracle.keys()
    for key, value in oracle.items():
        assert probe[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key


def _assert_expands_to(problem, rows, feats):
    """The problem's per-step storage expands to the whole (M, N) base rows and features.

    A folded step keeps neither and has zero features; a tilted step's
    table, read at column c mod its width, gives the step's features.
    """
    for t, span in problem.spans.items():
        if t in problem.log_z0:
            assert t not in problem.rows and t not in problem.feats
            assert not np.any(feats[:, span]), t
            continue
        table = problem.feats[t]
        assert problem.rows[t].flags.c_contiguous and table.flags.c_contiguous
        assert np.array_equal(problem.rows[t], rows[:, span]), t
        columns = np.arange(span.stop - span.start) % table.shape[1]
        assert np.array_equal(table[:, columns], feats[:, span]), t


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
        # A local tilt fits every step; the memory kind draws a partial
        # step set, whose inactive steps get zero features.
        active = {t for t in range(1, T + 1) if active_mask >> (t - 1) & 1} or {T}
        if kind == "local":
            tilt = sc.LocalTiltModel(base, 0.0)
        else:
            comparator = sc.MarkovModel(spec, 0, [comparator_row[None, :]])
            tilt = sc.MemoryTiltModel(base, comparator, 0.0, active_steps=active)
        target = truth.sample_batch(50, rng) if sample else truth
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sc.calibrate, "_MIN_SAMPLES", 1)
            problem = tilt._problem(target)
        whole_rows, whole_feats = _whole_level_problem(target, tilt)[:2]
        _assert_expands_to(problem, whole_rows, whole_feats)
        # Folded: a local tilt's step T and a memory tilt's inactive steps.
        # The order-0 comparator's lattice features are one column a step.
        folded = [T] if kind == "local" else sorted(set(range(1, T + 1)) - active)
        assert sorted(problem.log_z0) == folded
        for t, table in problem.feats.items():
            span = problem.spans[t]
            assert table.shape[1] == (1 if kind == "memory" and not sample else span.stop - span.start)
        for alpha in (0.0, 0.6, -0.6, 8.0, -8.0):
            probe = problem.evaluate(alpha)
            assert probe == _row_layout_probe(problem, alpha, whole_rows, whole_feats)
            _assert_near(probe, _log_space_probe(problem, alpha, whole_rows, whole_feats))
            if alpha != 0.0:
                # The model's own rows on every level it tilts are the
                # row formula's u / Z, and within 1e-12 of the log-space rows.
                model = (sc.LocalTiltModel(base, alpha) if kind == "local" else
                         sc.MemoryTiltModel(base, comparator, alpha, active_steps=active))
                for t, _, states, _, _ in prefix_expansion(truth, None, model, whole=True):
                    if (t < T) if kind == "local" else (t in active):
                        base_rows, feats = model._step(states[-1])
                        u, z, _ = _row_layout_tilt(base_rows, feats, alpha)
                        rows = model.rows(states[-1])
                        assert np.array_equal(rows, u / z[:, None])
                        assert rows == pytest.approx(_log_space_rows(base_rows, feats, alpha)[0],
                                                     rel=1e-12, abs=1e-15)

    @staticmethod
    def _heap_case(kind):
        M, T = 4, 8
        truth = random_markov(np.random.default_rng(3), M, T, 2, concentration=0.8)
        base = sc.DriftModel(truth.perturbed(np.random.default_rng(4), 0.3), 0.1)
        if kind == "local":
            tilt = sc.LocalTiltModel(base, 0.0)
        else:
            tilt = sc.MemoryTiltModel(base, sc.fit_limited_memory(truth, 1), 0.0)
        return truth, tilt, 8 * M**T

    @pytest.mark.parametrize("kind, bound", [("memory", 4.2), ("local", 3.65)])
    def test_build_heap_peak_in_last_level_arrays(self, kind, bound):
        # The build's heap peak, in arrays of the last level's
        # (M**(T-1), M) rows: 3.98 (memory) and 3.31 (local).  During the
        # build the walk holds its (N,) weights and cross-entropy terms,
        # 0.67, the local tilt also its (N,) feature means, 0.33, and the
        # per-step storage: every step's base rows, 1.33, beside the
        # memory tilt's window-mass tables, or the local tilt's base rows
        # and features of steps 1..7, 0.67, and the folded step 8's log Z,
        # 0.25; one block of the walk takes the rest.  A memory build that
        # also kept per-context feature means took 4.07, (M, N) log rows
        # and features 5.39 and 5.19, and a whole-level walk with parts
        # copied into columns 9.27 and 9.02.
        truth, tilt, size = self._heap_case(kind)
        _, peak = heap_peak(lambda: tilt._problem(truth))
        assert peak < bound * size

    def test_probe_heap_peak_in_last_level_arrays(self):
        # One probe: one block of columns at a time, its exponentials
        # becoming the block's weights u, and u times the features, 0.76
        # in all; the build allocates the moment buffer every probe
        # writes.  A probe that allocated its three (N,) results took
        # 1.69, and a probe over all columns at once 3.67.
        truth, tilt, size = self._heap_case("local")
        problem = tilt._problem(truth)
        _, peak = heap_peak(lambda: problem.evaluate(0.3))
        assert peak < 1.75 * size

    def test_tiled_table_probe_heap_peak_in_last_level_arrays(self):
        # A memory tilt's probe also holds its comparator table and the
        # table's exponentials tiled once into one block each: 1.27
        # (1.94 when every probe allocated its (N,) results).  Tiling a
        # table to its whole level would add that level's (M, n_t)
        # array, 1.0 for step 8.
        truth, tilt, size = self._heap_case("memory")
        problem = tilt._problem(truth)
        _, peak = heap_peak(lambda: problem.evaluate(0.3))
        assert peak < 2.0 * size

    @pytest.mark.parametrize("kind, bound", [("memory", 1.3), ("local", 0.8)])
    def test_second_probe_reuses_the_moment_buffer(self, kind, bound):
        # A probe writes each context's moments into the problem's one
        # (3, n_max) buffer, so a second probe allocates only its blocks:
        # 1.27 (memory) and 0.76 (local) arrays of the last level.  Probes
        # that allocated three (N,) arrays each took 1.94 and 1.69.
        truth, tilt, size = self._heap_case(kind)
        problem = tilt._problem(truth)
        problem.evaluate(0.3)
        _, peak = heap_peak(lambda: problem.evaluate(-0.3))
        assert peak < bound * size


class TestTiltFormula:
    """The probability-form tilt, its log-space range guard and its centered variance."""

    @staticmethod
    def _floored_case():
        # Token 2 is a zero of the comparator, floored to log(1e-300), and
        # of the full model after token 0: there alpha < 0 puts the tilt's
        # peak where the base row has no mass.  The comparator's feature
        # range is log(0.6) - log(1e-300) = 690.27, so the guard's bound
        # 2**9 lies at |alpha| = 0.7417.
        spec = sc.make_spec(3, 3)
        rng = np.random.default_rng(11)
        tables = [rng.dirichlet(np.ones(3))[None, :], rng.dirichlet(np.ones(3), size=3)]
        tables[1][0] = [0.6, 0.4, 0.0]
        full = sc.MarkovModel(spec, 1, tables)
        comparator = sc.MarkovModel(spec, 0, [np.array([[0.6, 0.4, 0.0]])])
        return full, comparator

    @pytest.mark.parametrize("alpha", [-0.74, -2.0])
    def test_floored_zero_on_both_sides_of_the_range_guard(self, alpha):
        full, comparator = self._floored_case()
        steps = (2, 3)
        problem = sc.MemoryTiltModel(full, comparator, 0.0, active_steps=steps)._problem(full)
        model = sc.MemoryTiltModel(full, comparator, alpha, active_steps=steps)
        guarded = False
        for t, _, states, _, _ in prefix_expansion(full, None, model, whole=True):
            if t not in steps:
                continue
            rows = model.rows(states[-1])
            assert np.all(np.isfinite(rows))
            assert rows.sum(axis=1) == pytest.approx(1.0, abs=1e-15)
            blocks = [tilted for _, tilted in problem.tilted_rows(alpha, t, 1)]
            assert np.array_equal(np.concatenate(blocks, axis=1).T, rows)
            base_rows, feats = model._step(states[-1])
            guarded |= bool(np.any(abs(alpha) * np.ptp(feats, axis=1) > 2**9))
            u, z, _ = _row_layout_tilt(base_rows, feats, alpha)
            assert np.array_equal(rows, u / z[:, None])
            if alpha == -0.74:
                # Just inside the bound: the probability form, within
                # 1e-12 of the log-space branch of the same formula.
                u, z, _ = _row_layout_tilt(base_rows, feats, alpha, bound=-1.0)
                assert rows == pytest.approx(u / z[:, None], rel=1e-12, abs=0.0)
        assert guarded == (alpha == -2.0)
        probe = problem.evaluate(alpha)
        assert all(math.isfinite(value) for value in probe.values())

    def test_curvature_is_centered_for_features_far_from_zero(self):
        # Features at 1e3 +- 1e-3: the variance about each context's mean
        # keeps its digits, where E[f**2] - m**2 would lose about twelve.
        truth = random_markov(np.random.default_rng(8), 3, 4, 2, concentration=0.8)
        base = sc.DriftModel(truth.perturbed(np.random.default_rng(9), 0.3), 0.1)
        walk = sc.LocalTiltModel(base, 0.0)._problem(truth)
        rng = np.random.default_rng(10)
        feats = {t: 1e3 + rng.uniform(-1e-3, 1e-3, size=table.shape) for t, table in walk.feats.items()}
        problem = walk.tilted_by(walk.tilt, feats, 0.0)
        for alpha in (0.0, 300.0, -300.0):
            # The oracle: centered two-pass moments of the exact offsets
            # f - 1e3, which tilt the rows as f does.
            var_sum = 0.0
            for t, table in feats.items():
                offsets = np.ascontiguousarray(table.T) - 1e3
                tilted = _log_space_rows(np.ascontiguousarray(problem.rows[t].T), offsets, alpha)[0]
                m = (tilted * offsets).sum(axis=1)
                var = (tilted * (offsets - m[:, None]) ** 2).sum(axis=1)
                var_sum += _inner(problem.weights[problem.spans[t]], var)
            assert problem.evaluate(alpha)["c"] == pytest.approx(var_sum / problem.T, rel=1e-9)


def _whole_level_problem(target, tilt):
    """The per-step problem's arrays and sums from whole levels, by numpy's row sums.

    (base rows, feats, weights, spans, xent_sum, target_feat_sum, and
    each level's per-context feature means): the formula a blocked build
    must match bit for bit.
    """
    T = tilt.spec.T
    active = range(1, T + 1) if tilt.active_steps is None else tilt.active_steps
    if isinstance(target, sc.ConditionalModel):
        walk = prefix_expansion(target, None, tilt, whole=True)
    else:
        walk = sample_expansion(target, tilt)
    rows, feats, weights, obs, spans = [], [], [], [], {}
    xent_sum = target_sum = 0.0
    start = 0
    for t, _, states, w, true_rows in walk:
        base_rows, f = tilt._step(states[-1])
        with np.errstate(divide="ignore"):
            lr = np.log(base_rows)
        if t not in active:
            f = np.zeros_like(base_rows)
        with np.errstate(invalid="ignore"):
            xent = np.where(w[:, None] * true_rows > 0.0, true_rows * lr, 0.0).sum(axis=1)
        xent_sum += -_inner(w, xent)
        tf = (true_rows * f).sum(axis=1)
        target_sum += _inner(w, tf)
        rows.append(base_rows.T)
        feats.append(f.T)
        weights.append(w)
        obs.append(tf)
        spans[t] = slice(start, start + w.shape[0])
        start += w.shape[0]
    return (np.hstack(rows), np.hstack(feats), np.concatenate(weights), spans,
            xent_sum, target_sum, obs)


def _table_target_sum(target, tilt):
    """A memory tilt's target feature sum by its definition, from whole levels.

    Each tilted step's window-mass table, every context's weight times
    its true row added to its comparator window's row one context at a
    time, times the step's log-floored comparator table, by math.fsum;
    the steps' sums are added in step order.
    """
    if isinstance(target, sc.ConditionalModel):
        walk = prefix_expansion(target, None, tilt, whole=True)
    else:
        walk = sample_expansion(target, tilt)
    M, order, total = tilt.spec.M, tilt.comparator.order, 0.0
    for t, _, states, w, true_rows in walk:
        if t not in tilt.active_steps:
            continue
        table = np.zeros((M ** min(order, t - 1), M))
        for code, wi, row in zip(states[-1][2][1].tolist(), w, true_rows):
            table[code] += wi * row
        log_table = np.log(np.maximum(tilt.comparator.tables[min(order, t - 1)], 1e-300))
        total += math.fsum((table * log_table).ravel().tolist())
    return total


class TestBlockedStepProblem:
    """The per-step problem is built from a blocked walk and probed by blocks.

    Whatever the block size, including blocks that do not divide a level
    and blocks of one parent or one column, its arrays, sums and probes
    are bitwise those of whole levels.  A memory tilt's target feature
    sum is its window-mass tables' (:func:`_table_target_sum`), within
    1e-12 of the per-context formula.
    """

    @pytest.mark.parametrize("M, T", [(2, 1), (2, 5), (3, 4), (3, 5), (4, 5), (9, 4)])
    @pytest.mark.parametrize("kind", ["local", "memory"])
    @pytest.mark.parametrize("sample", [False, True])
    def test_bitwise_the_whole_level_problem(self, monkeypatch, few_samples, M, T, kind, sample):
        rng = np.random.default_rng(1000 * M + 10 * T + (kind == "memory"))
        truth = random_markov(rng, M, T, 2, concentration=0.5)
        base = sc.DriftModel(truth.perturbed(rng, 0.4), 0.1)
        if kind == "local":
            tilt = sc.LocalTiltModel(base, 0.0)
        else:
            # A partial step set: step 1 and the second to last stay untilted.
            active = set(range(2, T + 1)) - {T - 1} or {T}
            tilt = sc.MemoryTiltModel(base, sc.fit_limited_memory(truth, 1), 0.0,
                                      active_steps=active)
        target = truth.sample_batch(50, rng) if sample else truth
        rows, feats, weights, spans, xent_sum, target_sum, obs = _whole_level_problem(target, tilt)
        if kind == "memory":
            table_sum = _table_target_sum(target, tilt)
            assert table_sum == pytest.approx(target_sum, rel=1e-12, abs=1e-15)
            target_sum = table_sum
        monkeypatch.setattr(sc.exact, "_TAIL_BLOCK", 2**40)
        whole = tilt._problem(target)
        for block in (1, 5, 2 * M**2 + 1, 7 * M**2, 2**14):
            monkeypatch.setattr(sc.exact, "_TAIL_BLOCK", block)
            problem = tilt._problem(target)
            _assert_expands_to(problem, rows, feats)
            assert np.array_equal(problem.weights, weights), block
            assert problem.spans == spans
            assert (problem.xent_sum, problem.target_feat_sum) == (xent_sum, target_sum), block
            if sample:
                assert np.array_equal(problem.obs_feats, np.array(obs))
            for alpha in (0.0, 0.6, -0.6, 8.0, -8.0):
                probe = problem.evaluate(alpha)
                assert probe == whole.evaluate(alpha), (block, alpha)
                assert probe == _row_layout_probe(problem, alpha, rows, feats), (block, alpha)
                _assert_near(probe, _log_space_probe(problem, alpha, rows, feats))

    def test_features_are_the_comparators_log_floored_tables(self):
        # A memory tilt's features at step t are its window-w comparator's
        # table for contexts of length min(w, t-1), floored at P_MIN and
        # logged: an (M, M**min(w, t-1)) table on the lattice, whose
        # column c mod its width every context c reads.
        rng = np.random.default_rng(5)
        truth = random_markov(rng, 3, 4, 2, concentration=0.5)
        tables = [np.array([[0.5, 0.5, 0.0]]), rng.dirichlet(np.ones(3), size=3)]
        comparator = sc.LimitedMemoryModel(truth.spec, 1, tables)
        tilt = sc.MemoryTiltModel(truth.perturbed(rng, 0.4), comparator, 0.0)
        feats = tilt._problem(truth).feats
        assert {t: f.shape[1] for t, f in feats.items()} == {1: 1, 2: 3, 3: 3, 4: 3}
        for t, f in feats.items():
            expected = np.log(np.maximum(tables[min(1, t - 1)], 1e-300)).T
            assert f.flags.c_contiguous and np.array_equal(f, expected), t


class TestShortAxisSums:
    """`_sum_columns` is numpy's sum of each context's M-entry row, bitwise.

    For the transpose of (n, M) rows and for a C-contiguous (M, n) array
    alike: column by column below M = 8, in the row layout from M = 8.
    Zero signs, infinities and nans included.
    """

    @pytest.mark.parametrize("M", [2, 3, 4, 8, 9])
    def test_matches_numpys_row_and_column_sums(self, M):
        rng = np.random.default_rng(M)
        rows = rng.standard_normal((4000, M)) * 10.0 ** rng.integers(-8, 8, (4000, M))
        rows[:10] = -0.0
        rows[10:20, 0] = -0.0
        rows[20:30] = rng.choice([0.0, -0.0], (10, M))
        rows[30, 1] = np.inf
        rows[31, [0, 1]] = np.inf, -np.inf
        rows[32, 0] = np.nan
        with np.errstate(invalid="ignore"):  # inf - inf
            expected = rows.sum(axis=1)
            totals = [_sum_columns(rows.T), _sum_columns(np.ascontiguousarray(rows.T))]
        for total in totals:
            assert np.array_equal(total, expected, equal_nan=True)
            assert np.array_equal(np.signbit(total), np.signbit(expected))


    @pytest.mark.parametrize("M", [2, 3, 4, 8, 9, 17])
    @pytest.mark.parametrize("n", [1, 2, 3, 4096])
    def test_column_dot_is_the_sum_of_products(self, M, n):
        # np.einsum adds a column's products in `_sum_columns`' order only
        # below M = 8, from n = 2 and along rows; a helper that calls it at
        # n = 1 (a vector as an (M, 1) column, say), from M = 8 or on a
        # column-major layout fails here.
        rng = np.random.default_rng(100 * M + n)
        for draw in range(64 if n < 4096 else 4):
            a, b = (rng.standard_normal((M, 2 * n)) * 10.0 ** rng.integers(-8, 8, (M, 2 * n)) ** (draw % 2)
                    for _ in "ab")
            layouts = {
                "contiguous": (a[:, :n].copy(), b[:, :n].copy()),
                "column_slice": (a[:, :n], b[:, :n]),
                "strided": (a[:, ::2], b[:, ::2]),
                "column_major": (np.asfortranarray(a[:, :n]), np.asfortranarray(b[:, :n])),
            }
            if n == 1:
                layouts["vector_column"] = (a[:, 0].copy()[:, None], b[:, 0].copy()[:, None])
            for name, (x, y) in layouts.items():
                assert np.array_equal(_dot_columns(x, y), _sum_columns(x * y)), name


_PER_STEP = {"M": 4, "T": 9, "true_model": {"kind": "random_markov", "order": 2, "concentration": 0.8},
             "model": {"recipe": "drift", "p": 0.1}, "tau": [1, 2, 3], "prefix_len": 1}


def _pipeline_models(config):
    cfg = parse_config(config)
    truth = cli._described(cli.build_true_model, "true_model", cfg)
    return cfg, truth, cli._described(cli.build_learned_model, "model", cfg, truth)


class TestLocalCurvesOffTheFit:
    """`calibrate-local` steps its base's lattice once, and reads both drift curves off the fit's problem.

    The curves are bitwise ``drift_curve_exact``'s seeded walks of the
    base and of the tilt, at every block size and alpha.
    """

    def test_pipeline_steps_each_level_of_the_lattice_once(self):
        # The benchmark's exact-perstep config: the learned drift model's
        # lattice steps, counted by their prefixes, are levels 1..T-1 of
        # its lattice, (4**8 - 1) / 3 prefixes.  Before, the fit's build
        # stepped it twice per level and each curve walked it again.
        cfg, truth, model = _pipeline_models({**_PER_STEP, "pipeline": "calibrate-local", "seed": 7})
        prefixes, step = [0], model.step

        def counted(state, tokens):
            prefixes[0] += state[1].shape[0]
            return step(state, tokens)

        model.step = counted
        cli._pipeline_calibrate_local(cfg, truth, model, cfg.enumeration_budget())
        assert prefixes[0] == 21_845

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("M, T", [(2, 5), (3, 4)])
    def test_curves_are_bitwise_the_seeded_walks(self, monkeypatch, kind, M, T):
        rng = np.random.default_rng(10 * M + T)
        truth = random_markov(rng, M, T, 1, concentration=0.5)
        base = model_of_kind(kind, rng, M, T)
        problem = sc.LocalTiltModel(base, 0.0)._problem(truth)
        # A tilt past 2**9 / (max f - min f) takes the log-space branch.
        for alpha in (0.0, 0.6, -1.3, 3000.0):
            tilt = base if alpha == 0.0 else sc.LocalTiltModel(base, alpha)
            for prefix_len in range(T - 1):
                expected = sc.drift_curve_exact(tilt, seed_model=truth, prefix_len=prefix_len, t_max=T - 1)
                for block in (1, 5, 2**14):
                    monkeypatch.setattr(sc.exact, "_TAIL_BLOCK", block)
                    levels = problem.forward(alpha, prefix_len + 1, T - 1)
                    got = _exact_drift_curve(tilt, levels, prefix_len, T - 1)
                    assert got.to_dict() == expected.to_dict(), (alpha, prefix_len, block)

    @pytest.mark.parametrize("prefix_len", [0, 1, 2, 3])
    def test_pipeline_curves_at_every_prefix_length(self, prefix_len):
        # At prefix_len = T - 1 the curves reach the folded step T, whose
        # rows the problem does not keep, so they walk the lattice.
        config = {**_PER_STEP, "M": 3, "T": 4, "prefix_len": prefix_len, "pipeline": "calibrate-local", "seed": 3}
        cfg, truth, model = _pipeline_models(config)
        _, docs, _ = cli._pipeline_calibrate_local(cfg, truth, model, cfg.enumeration_budget())
        doc = json.loads(cli._json_bytes(docs["calibration_local"]))
        tilted = sc.LocalTiltModel(model, doc["alpha_star"])
        t_max = max(3, prefix_len + 1)
        for key, curve_model in (("drift_before", model), ("drift_after", tilted)):
            expected = sc.drift_curve_exact(curve_model, seed_model=truth, prefix_len=prefix_len, t_max=t_max)
            assert doc[key] == json.loads(cli._json_bytes(expected.to_dict())), key


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

    def test_reloads_under_the_budget_it_was_fitted_under(self, rng, tmp_path):
        # 4**10 prefixes exceed the default budget of 10**6 states, so the
        # reload rebuilds the tilt's lattice under the fit's budget.
        truth = random_markov(rng, 4, 10, 2, concentration=0.8)
        base = sc.DriftModel(truth.perturbed(rng, 0.3), 0.1)
        budget = sc.EnumerationBudget(2_000_000)
        tilted, _ = sc.calibrate_entropy_rate(truth, base, 0.05, budget=budget)
        path = tmp_path / "model.json"
        sc.save_model(tilted, path)
        with pytest.raises(sc.BudgetExceededError, match="budget of 1000000"):
            sc.load_model(path)
        clone = sc.load_model(path, budget=budget)
        seqs = tilted.sample_batch(256, rng)
        state, clone_state = tilted.init_state(256), clone.init_state(256)
        for t in range(10):
            assert np.array_equal(clone.rows(clone_state), tilted.rows(state)), t
            state, clone_state = tilted.advance(state, seqs[:, t]), clone.advance(clone_state, seqs[:, t])


_THREADS_SCRIPT = """
import json
import numpy as np
import seqcal as sc
rng = np.random.default_rng(3)
truth = sc.MarkovModel.random(sc.make_spec(4, 8), 2, rng, concentration=0.8)
full = sc.DriftModel(truth.perturbed(rng, 0.3), 0.1)
docs = [
    sc.memory_bound(truth, full, sc.fit_limited_memory(truth, 1)).to_dict(),
    sc.fit_alpha_local(truth, full)[1].to_dict(),
    sc.fit_alpha_global(truth, full, sc.FunctionalF.log_prob(full)).to_dict(),
]
print(json.dumps(docs, sort_keys=True, default=repr))
"""


class TestBlasThreads:
    def test_fits_do_not_depend_on_the_blas_thread_count(self):
        # BLAS may split a long dot product across its threads, which
        # changes its rounding; every weighted sum of a fit is numpy's own
        # loop, so one and two threads give the same bytes at M = 4, T = 8.
        src = str(Path(sc.__file__).resolve().parent.parent)
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1]
