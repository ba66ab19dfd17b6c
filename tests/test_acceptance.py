"""Acceptance gate: one test per criterion, at the stated tolerances.

Random suites are drawn from fixed named streams, so every run checks
the same instances.  Each test prints a single PASS line once all of its
assertions hold (visible with pytest -s or in captured output).
"""

import json
import math

import numpy as np
import pytest

import seqcal as sc
from seqcal.calibrate import tilted_variance_max
from seqcal.cli import main as cli_main
from seqcal.exact import FunctionalF, sequence_log_probs

from conftest import (
    enumerate_sequences,
    functional_values,
    random_markov,
    random_pair,
    stationary_sharp_truth,
)
from test_calibrate import grid_argmin_alpha


def _stream(name):
    return sc.named_stream(20250801, name)


def test_criterion_1_oracle_identities():
    rng = _stream("acceptance-oracle")
    for i in range(200):
        truth, other = random_pair(rng)
        T = truth.spec.T
        ce = sc.cross_entropy_exact(truth, other)
        ent = sc.entropy_rate_exact(truth)
        kl = sc.kl_exact(truth, other)
        assert abs(ce - (ent + kl / T)) <= 1e-9, f"instance {i}"
        assert kl >= 0.0, f"instance {i}"
        assert abs(sc.cross_entropy_exact(truth, truth) - ent) <= 1e-9, f"instance {i}"
    print("[PASS] criterion 1: CE/EntRate/KL identities on 200 instances at 1e-9")


def test_criterion_2_pinsker_suite():
    rng = _stream("acceptance-pinsker")
    violations = 0
    for _ in range(200):
        p, q = random_pair(rng)
        spec = p.spec
        bound_b = float(rng.uniform(0.3, 3.0))
        f = FunctionalF.from_table(
            rng.uniform(-bound_b, bound_b, size=spec.M**spec.T), spec, bound=bound_b
        )
        mu_p, _ = sc.mean_var_exact(p, f)
        mu_q, _ = sc.mean_var_exact(q, f)
        kl = sc.kl_exact(p, q)
        if abs(mu_p - mu_q) > bound_b * math.sqrt(2.0 * kl):
            violations += 1
    assert violations == 0
    print("[PASS] criterion 2: bounded-mean gap <= B*sqrt(2 KL) on 200 instances, 0 violations")


def test_criterion_3_amplification_bounds():
    rng = _stream("acceptance-amplification")
    checked = 0
    while checked < 50:
        truth, base = random_pair(rng, scale=float(rng.uniform(0.1, 0.3)))
        T, M = truth.spec.T, truth.spec.M
        eps = sc.kl_exact(truth, base) / T
        if not 1e-6 < eps < 0.5:
            continue
        mixture = sc.MixtureModel(base, eps)
        bound = sc.amplification_bound(eps, T, M)
        assert sc.kl_exact(truth, mixture) / T <= bound.mixture_kl_bound
        gap = abs(sc.cross_entropy_exact(truth, mixture) - sc.entropy_rate_exact(mixture))
        assert gap <= bound.generation_gap_bound
        checked += 1

    # Sharpness probe: a low-entropy truth whose model may permanently
    # switch into uniform emission with probability 2/T per step keeps a
    # per-token regret of order 1/T yet generates near-maximal entropy.
    spec = sc.make_spec(3, 8)
    prng = _stream("acceptance-sharpness")
    rows = np.full((3, 3), 0.05)
    np.fill_diagonal(rows, 0.9)
    truth = sc.MarkovModel(spec, 1, [prng.dirichlet(np.full(3, 5.0))[None, :], rows])
    p = 2.0 / spec.T
    drift = sc.DriftModel(truth, p)
    late = sc.drift_curve_exact(drift).means[-1]
    assert late >= 0.9 * math.log(3)
    eps_measured = sc.kl_exact(truth, drift) / spec.T
    assert eps_measured <= 2.0 / spec.T  # same order as 1/T
    print("[PASS] criterion 3: amplification bounds on 50 instances + sharpness probe "
          f"(late entropy {late:.3f} >= {0.9 * math.log(3):.3f})")


def _variance_capped_floor(mixture, f, res, T):
    """Quadratic improvement floor with a grid-certified variance cap."""
    dmu = res.mu_target - res.extras["mu_base"]
    lo = min(0.0, res.alpha_star) - 1.0
    hi = max(0.0, res.alpha_star) + 1.0
    sigma2 = tilted_variance_max(mixture, f, np.linspace(lo, hi, 41))
    for _ in range(6):
        if sigma2 == 0.0:
            return 0.0
        abar = dmu / sigma2
        if lo <= abar <= hi:
            break
        lo, hi = min(lo, abar - 0.5), max(hi, abar + 0.5)
        sigma2 = tilted_variance_max(mixture, f, np.linspace(lo, hi, 81))
    return dmu**2 / (2.0 * sigma2 * T)


def test_criterion_4_global_calibration():
    rng = _stream("acceptance-global")
    for i in range(50):
        M = int(rng.integers(2, 5))
        T = int(rng.integers(2, 5))
        truth = random_markov(rng, M, T, int(rng.integers(0, 2)), concentration=1.2)
        base = truth.perturbed(rng, 0.3)
        eps = max(sc.kl_exact(truth, base) / T, 1e-5)
        tilted, res = sc.calibrate_entropy_rate(truth, base, eps)
        mixture = tilted.base

        assert abs(res.mu_target - res.mu_tilted) <= 1e-8, f"instance {i}"
        ce = sc.cross_entropy_exact(truth, tilted)
        er = sc.entropy_rate_exact(tilted)
        assert abs(ce - er) <= 1e-8, f"instance {i}"

        variance_floor = _variance_capped_floor(mixture, tilted.f, res, T)
        assert res.improvement >= variance_floor - 1e-12, f"instance {i}"
        denom = math.log(M) + math.log(1.0 / eps) / T
        surprisal_floor = 0.5 * (
            (res.baseline_objective - sc.entropy_rate_exact(mixture)) / denom
        ) ** 2
        assert res.improvement >= surprisal_floor - 1e-12, f"instance {i}"

        oracle = grid_argmin_alpha(truth, mixture, tilted.f)
        assert abs(res.alpha_star) < 3.8, f"instance {i}"
        assert abs(res.alpha_star - oracle) <= 2e-4, f"instance {i}"
    print("[PASS] criterion 4: global calibration identities, improvement floors and "
          "grid-oracle match on 50 instances")


def test_criterion_5_local_calibration():
    rng = _stream("acceptance-local")
    for i in range(20):
        spec = sc.make_spec(3, 5)
        truth = stationary_sharp_truth(spec, rng)
        base = sc.DriftModel(truth, 1.0 / spec.T)
        tilted, res = sc.fit_alpha_local(truth, base)

        assert abs(res.mu_target - res.mu_tilted) <= 1e-8, f"instance {i}"
        assert sc.cross_entropy_exact(truth, tilted) <= sc.cross_entropy_exact(truth, base) + 1e-12

        # Upward drift must be present for the flattening comparison.
        assert res.extras["mu_base"] - res.mu_target >= 0.01, f"instance {i}"
        t_max = spec.T - 1  # final step is untilted by construction

        def amp_gap(model):
            late = sc.drift_curve_exact(
                model, seed_model=truth, prefix_len=1, t_max=t_max
            ).at_step(t_max)
            return late - sc.cross_entropy_exact(truth, model)

        assert amp_gap(tilted) < amp_gap(base), f"instance {i}"
    print("[PASS] criterion 5: local calibration matches lookahead means and strictly "
          "shrinks the generation-entropy gap on 20 drift instances")


def test_criterion_6_gradient_curvature_checks():
    rng = _stream("acceptance-derivatives")
    h1, h2 = 1e-4, 1e-3
    for i in range(10):
        truth, base = random_pair(rng, M=3, T=4, order=1, scale=0.3)
        mixture = sc.MixtureModel(base, 0.05)
        f = FunctionalF.log_prob(mixture)
        res = sc.fit_alpha_global(truth, mixture, f)

        lp_base = sequence_log_probs(mixture)
        fv = functional_values(f, enumerate_sequences(3, 4))
        pw = np.exp(sequence_log_probs(truth))
        mu_true = float(np.dot(pw, fv))
        ce_term = -float(np.dot(pw, lp_base))

        def ce(a):
            w = a * fv + lp_base
            m = w.max()
            return (ce_term - a * mu_true + math.log(np.exp(w - m).sum()) + m) / 4

        for off in (-1.6, -1.2, -0.8, -0.5, -0.2, 0.2, 0.5, 0.8, 1.2, 1.6):
            a = res.alpha_star + off
            w = a * fv + lp_base
            pt = np.exp(w - (w.max() + math.log(np.exp(w - w.max()).sum())))
            mu = float(np.dot(pt, fv))
            var = float(np.dot(pt, (fv - mu) ** 2))
            grad = (mu - mu_true) / 4
            fd1 = (ce(a + h1) - ce(a - h1)) / (2 * h1)
            fd2 = (ce(a + h2) - 2 * ce(a) + ce(a - h2)) / h2**2
            assert abs(fd1 - grad) / abs(grad) <= 1e-5, f"instance {i}, alpha {a}"
            assert abs(fd2 - var / 4) / (var / 4) <= 1e-4, f"instance {i}, alpha {a}"
    print("[PASS] criterion 6: finite differences match analytic gradient (1e-5 rel) and "
          "curvature (1e-4 rel) at 10 alphas x 10 instances")


def test_criterion_7_memory_bound():
    rng = _stream("acceptance-memory")
    # 70 perturbed full-context models plus 30 window-limited ones.
    for i in range(70):
        truth = random_markov(rng, 2, int(rng.integers(4, 7)), 2)
        full = truth.perturbed(rng, 0.35)
        tau = int(rng.integers(1, 3))
        comparator = sc.fit_limited_memory(truth, tau)
        est = sc.memory_bound(truth, full, comparator)
        assert est.exact_mi is not None
        assert est.bound >= est.exact_mi - 1e-9, f"instance {i}"
    for i in range(30):
        truth = random_markov(rng, 2, 5, 2)
        tau = int(rng.integers(1, 3))
        full = sc.fit_limited_memory(truth, tau)
        comparator = sc.fit_limited_memory(truth, tau)
        est = sc.memory_bound(truth, full, comparator)
        assert abs(est.exact_mi) <= 1e-10, f"windowed instance {i}"
        assert est.bound >= est.exact_mi - 1e-9, f"windowed instance {i}"

    taus = (1, 2, 3)
    bounds = np.zeros((30, len(taus)))
    for i in range(30):
        truth = random_markov(rng, 2, 6, 3)
        full = truth.perturbed(rng, 0.3)
        for j, tau in enumerate(taus):
            comparator = sc.fit_limited_memory(truth, tau)
            bounds[i, j] = sc.memory_bound(
                truth, full, comparator, attach_exact_mi=False
            ).bound
    means = bounds.mean(axis=0)
    assert np.all(np.diff(means) <= 1e-9), means
    print("[PASS] criterion 7: bound >= exact memory on 100 instances; windowed models "
          f"have zero memory; mean bound decays over gaps {means.round(4).tolist()}")


def test_criterion_8_estimator_consistency():
    # False-positive budget: 50 instances x (1 CE + T curve points + 1
    # gap) four-sigma z-tests, about 350 comparisons, so the expected
    # number of first-seed statistical failures is ~0.02; any failure is
    # retried once on an independent second seed.
    rng = _stream("acceptance-estimators")
    n = 10**5
    first_seed_failures = 0

    def build_instance(i):
        kind = i % 4
        truth = random_markov(rng, 3, 4, 1, concentration=0.8)
        if kind == 0:
            return truth, truth.perturbed(rng, 0.3)
        if kind == 1:
            return truth, sc.MixtureModel(truth.perturbed(rng, 0.3), 0.05)
        if kind == 2:
            return truth, sc.DriftModel(truth, 0.25)
        return truth, sc.PerTokenMixture(truth.perturbed(rng, 0.3), 0.1)

    def run_checks(truth, model, seed_name):
        ok = True
        ce_exact = sc.cross_entropy_exact(truth, model)
        est = sc.cross_entropy_mc(truth, model, n, sc.named_stream(7, seed_name + "-ce"))
        ok &= abs(est.value - ce_exact) <= 4 * max(est.stderr, 1e-12)

        exact_curve = sc.drift_curve_exact(model)
        curve = sc.drift_curve(model, n, sc.named_stream(7, seed_name + "-drift"))
        ok &= bool(
            np.all(
                np.abs(curve.means - exact_curve.means)
                <= 4 * np.maximum(curve.stderrs, 1e-12)
            )
        )

        g = sc.named_stream(7, seed_name + "-gap")
        gap = sc.ent_rate_gap(sc.drift_curve(model, n, g), sc.cross_entropy_mc(truth, model, n, g))
        exact_gap = exact_curve.means[-1] - ce_exact
        ok &= abs(gap.gap - exact_gap) <= 4 * max(gap.gap_stderr, 1e-12)
        return ok

    for i in range(50):
        truth, model = build_instance(i)
        if not run_checks(truth, model, f"acc8-{i}"):
            first_seed_failures += 1
            assert run_checks(truth, model, f"acc8-{i}-retry"), f"instance {i}"
    assert first_seed_failures <= 1
    print(f"[PASS] criterion 8: MC estimators within 4 stderr of exact on 50 instances at "
          f"n=1e5 ({first_seed_failures} retried)")


def test_criterion_9_reproducibility(tmp_path):
    config = {
        "M": 3, "T": 5, "seed": 23,
        "true_model": {"kind": "random_markov", "order": 1, "concentration": 0.8},
        "model": {"recipe": "drift", "p": 0.2},
        "n_gen": 128, "epsilon": 0.05, "tau": [1, 2], "prefix_len": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    for pipeline, files in (
        ("drift", ("drift_curve.csv", "drift_curve.json", "ent_rate_gap.json", "manifest.json")),
        ("memory", ("memory.csv", "memory.json", "manifest.json")),
        ("calibrate-local", ("calibration_local.json", "calibrated_model.json", "manifest.json")),
    ):
        a, b = tmp_path / f"{pipeline}-a", tmp_path / f"{pipeline}-b"
        assert cli_main([pipeline, "--config", str(cfg_path), "--out", str(a)]) == 0
        assert cli_main([pipeline, "--config", str(cfg_path), "--out", str(b)]) == 0
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (pipeline, name)

    rng = _stream("acceptance-roundtrip")
    base = random_markov(rng, 3, 4, 1)
    mixture = sc.MixtureModel(base, 0.1)
    models = [
        base,
        mixture,
        sc.DriftModel(base, 0.25),
        sc.PerTokenMixture(base, 0.2),
        sc.fit_limited_memory(base, 1),
        sc.GlobalTiltModel(mixture, FunctionalF.log_prob(mixture), 0.3),
        sc.LocalTiltModel(base, -0.7),
        sc.MemoryTiltModel(base, sc.fit_limited_memory(base, 1), 0.2, (2, 3, 4)),
    ]
    probes = base.sample_batch(64, _stream("acceptance-probes"))
    for model in models:
        clone = sc.model_from_dict(sc.model_to_dict(model))
        for w in probes:
            assert abs(clone.seq_log_prob(w) - model.seq_log_prob(w)) <= 1e-12
    print("[PASS] criterion 9: bit-exact pipeline replay and 1e-12 serialization round-trips")
