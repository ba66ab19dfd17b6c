import copy
import math
import weakref

import numpy as np
import pytest

import seqcal as sc
import seqcal.estimate
from seqcal.models import _sample_rows

from conftest import (
    MODEL_KINDS,
    all_seqs,
    count_calls,
    heap_peak,
    model_of_kind,
    one_hot_model,
    random_markov,
    random_pair,
    stationary_sharp_truth,
)


def seeded_curve_oracle(model, seeder, prefix_len):
    """E[H(model(.|w_{<t}))] for t > prefix_len, from next_dist products.

    The first `prefix_len` tokens are drawn from `seeder` and the rest
    from `model`.
    """
    M, T = model.spec.M, model.spec.T
    means = []
    for t in range(prefix_len + 1, T + 1):
        terms = []
        for w in all_seqs(M, t - 1):
            p = 1.0
            for s in range(t - 1):
                p *= float((seeder if s < prefix_len else model).next_dist(w[:s])[w[s]])
            row = model.next_dist(w)
            terms.append(-p * math.fsum(x * math.log(x) for x in row if x > 0.0))
        means.append(math.fsum(terms))
    return np.array(means)


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

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_streamed_score_is_the_materialized_formula(self, kind):
        # Scoring each step as it is drawn gives, bit for bit, the value,
        # stderr and generator state of sampling the whole array first;
        # each model of the kind scores the other's draws.
        M, T, n = 3, 5, 64
        rng = np.random.default_rng(MODEL_KINDS.index(kind))
        model = model_of_kind(kind, rng, M, T)
        other = sc.DriftModel(random_markov(rng, M, T, 1), 0.2)
        for p, q in ((other, model), (model, other)):
            stream = sc.named_stream(4, "mc")
            materialized = copy.deepcopy(stream)
            est = sc.cross_entropy_mc(p, q, n, stream)
            vals = -q.seq_log_prob_batch(p.sample_batch(n, materialized)) / T
            assert np.all(np.isfinite(vals))
            assert est.value == float(vals.mean())
            assert est.stderr == float((vals - vals[0]).std(ddof=1) / math.sqrt(n))
            assert stream.random() == materialized.random()

    def test_offending_sequence_is_replayed_from_the_first_draw(self):
        spec = sc.make_spec(2, 6)
        p = sc.DriftModel(sc.MarkovModel.uniform(spec, 1), 0.2)
        q = one_hot_model(spec)
        stream = sc.named_stream(2, "mc")
        materialized = copy.deepcopy(stream)
        est = sc.cross_entropy_mc(p, q, 64, stream)
        seqs = p.sample_batch(64, materialized)
        bad = int(np.flatnonzero(np.isinf(q.seq_log_prob_batch(seqs)))[0])
        assert est.infinite
        assert est.offending == tuple(int(x) for x in seqs[bad])
        # The caller's generator ends where the materialized draw left it.
        assert stream.random() == materialized.random()

    def test_offending_replay_keeps_no_sample(self, rng):
        # The infinite path replays the draw keeping one token per step; an
        # (n, T) int64 sample here is 4 MB.
        spec = sc.make_spec(4, 128)
        p = sc.MarkovModel.random(spec, 2, rng, concentration=0.8)
        est, peak = heap_peak(
            lambda: sc.cross_entropy_mc(p, one_hot_model(spec), 4096, sc.named_stream(1, "mc"))
        )
        assert est.infinite and len(est.offending) == spec.T
        assert peak < 2**20

    def test_sampled_rows_are_dead_when_the_scorer_steps(self, rng, monkeypatch):
        # Only the tokens of a step are passed on, so neither the sampler's
        # suspended frame nor the token stream keeps that step's rows.
        p = random_markov(rng, 3, 6, 2)
        q = sc.DriftModel(random_markov(rng, 3, 6, 1), 0.2)
        refs, scored = [], []

        def rows(state, _rows=p.rows):
            out = _rows(state)
            refs.append(weakref.ref(out))
            return out

        def step(state, tokens, _step=q.step):
            scored.append([ref() is None for ref in refs])
            return _step(state, tokens)

        monkeypatch.setattr(p, "rows", rows)
        monkeypatch.setattr(q, "step", step)
        sc.cross_entropy_mc(p, q, 64, sc.named_stream(3, "mc"))
        assert scored == [[True] * t for t in range(1, 7)]

    def test_memory_does_not_grow_with_n_times_T(self, rng):
        # An (n, T) int64 sample here is 4 MB; the streamed estimate keeps
        # only a few length-n arrays per step.
        spec = sc.make_spec(4, 128)
        p = sc.MarkovModel.random(spec, 2, rng, concentration=0.8)
        q = sc.DriftModel(p.perturbed(rng, 0.25))
        _, peak = heap_peak(lambda: sc.cross_entropy_mc(p, q, 4096, sc.named_stream(1, "mc")))
        assert peak < 2**20


class TestDriftCurve:
    @pytest.mark.parametrize("pool", [None, [[1, 2], [0, 1], [2, 2]]])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_means_are_the_materialized_formula(self, kind, pool):
        # The streamed curve equals entropies read off a whole sample drawn
        # step by step from the cyclic seeds, bit for bit, and leaves the
        # generator where that sample does.
        M, T, n = 3, 5, 64
        model = model_of_kind(kind, np.random.default_rng(MODEL_KINDS.index(kind)), M, T)
        stream = sc.named_stream(6, "drift")
        materialized = copy.deepcopy(stream)
        curve = sc.drift_curve(model, n, stream, prefixes=pool)
        start = 0 if pool is None else len(pool[0])
        seqs = np.empty((n, T), dtype=np.int64)
        if pool is not None:
            seqs[:, :start] = np.array(pool)[np.arange(n) % len(pool)]
        for t in range(start, T):
            seqs[:, t] = _sample_rows(model.next_dist_batch(seqs[:, :t]), materialized)
        ent = np.column_stack(
            [sc.row_entropies(model.next_dist_batch(seqs[:, :t])) for t in range(start, T)]
        )
        assert np.array_equal(curve.means, ent.mean(axis=0))
        assert np.array_equal(curve.stderrs, ent.std(axis=0, ddof=1) / math.sqrt(n))
        assert stream.random() == materialized.random()

    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("n_gen", [2, 7, 33, 512])
    @pytest.mark.parametrize("kind", ["drift-0.2", "mixture-0.3", "one_hot"])
    def test_streamed_moments_are_bitwise_the_matrix_formula(self, kind, n_gen, seeded):
        # The oracle replays the draw and stacks the (n_gen, steps) entropy
        # matrix.  Bytes are compared, so the sign of a zero counts: a
        # one-hot row's entropy is -0.0, and numpy sums those to +0.0.
        M, T = 3, 6
        rng = np.random.default_rng(n_gen)
        spec = sc.make_spec(M, T)
        model = one_hot_model(spec) if kind == "one_hot" else model_of_kind(kind, rng, M, T)
        pool = rng.integers(0, M, size=(5, 2)) if seeded else np.empty((1, 0), dtype=np.int64)
        stream = sc.named_stream(8, "drift")
        replay = copy.deepcopy(stream)
        curve = sc.drift_curve(model, n_gen, stream, prefixes=pool if seeded else None)
        seeds = pool[np.arange(n_gen) % len(pool)]
        steps = model._generate(model._state_at(seeds), seeds.shape[1], replay)
        ent = np.stack([sc.row_entropies(rows) for _, rows, _ in steps], axis=1)
        assert ent.shape == (n_gen, T - seeds.shape[1])
        assert curve.means.tobytes() == ent.mean(axis=0).tobytes()
        assert curve.stderrs.tobytes() == (ent.std(axis=0, ddof=1) / math.sqrt(n_gen)).tobytes()
        assert stream.random() == replay.random()

    def test_heap_does_not_grow_with_T(self, rng):
        # The (n_gen, T) entropy matrix here is 4 MB; the streamed curve
        # keeps two length-T vectors and one step's length-n_gen arrays.
        spec = sc.make_spec(4, 512)
        model = sc.DriftModel(sc.MarkovModel.random(spec, 2, rng, concentration=0.8), 0.01)
        curve, peak = heap_peak(lambda: sc.drift_curve(model, 1024, sc.named_stream(2, "drift")))
        assert curve.means.shape == (512,)
        assert peak < 2**19

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

    def test_empty_prefix_pool_rejected(self, rng):
        model, _ = random_pair(rng, M=3, T=4, order=1)
        with pytest.raises(ValueError, match="prefix pool is empty"):
            sc.drift_curve(model, 8, sc.named_stream(1, "drift"), prefixes=np.empty((0, 2), int))

    def test_csv_round_trip_values(self, rng):
        model, _ = random_pair(rng, M=2, T=3, order=0)
        curve = sc.drift_curve(model, 32, sc.named_stream(10, "drift"))
        lines = curve.to_csv_text().strip().split("\n")
        assert lines[0] == "t,mean,stderr,n"
        first = lines[1].split(",")
        assert float(first[1]) == curve.means[0]  # repr round-trips exactly


class TestDriftCurveExact:
    @pytest.mark.parametrize("M, T, wrap", [
        (2, 5, lambda base: sc.DriftModel(base, 0.3)),
        (3, 4, lambda base: sc.MixtureModel(base, 0.1)),
        (2, 3, lambda base: base),
    ], ids=["drift", "mixture", "markov"])
    def test_seeded_curve_matches_enumeration_oracle(self, rng, M, T, wrap):
        seeder = random_markov(rng, M, T, 1, concentration=0.8)
        model = wrap(random_markov(rng, M, T, 2))
        for prefix_len in range(T):
            curve = sc.drift_curve_exact(model, seed_model=seeder, prefix_len=prefix_len)
            assert curve.steps.tolist() == list(range(prefix_len + 1, T + 1))
            np.testing.assert_allclose(
                curve.means, seeded_curve_oracle(model, seeder, prefix_len), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("prefix_len", [0, 1, 3])
    def test_one_walk_and_the_seeder_dropped_after_the_seed(self, rng, monkeypatch, prefix_len):
        # One blocked walk, in one block at this size; the model moves once
        # per level and the seeder only while the next prefix is still
        # shorter than the seed.  A move is a step or an advance; the
        # Drift's both make one step of its base.
        seeder = random_markov(rng, 2, 5, 1)
        model = sc.DriftModel(random_markov(rng, 2, 5, 1), 0.3)
        calls = []
        walk = seqcal.estimate.prefix_expansion

        def counted(*args, **kwargs):
            calls.append(args)
            return walk(*args, **kwargs)

        monkeypatch.setattr(seqcal.estimate, "prefix_expansion", counted)
        model_steps = count_calls(model.base, "step", "advance")
        seeder_steps = count_calls(seeder, "step", "advance")
        sc.drift_curve_exact(model, seed_model=seeder, prefix_len=prefix_len)
        assert len(calls) == 1
        assert model_steps[0] == 4
        assert seeder_steps[0] == max(prefix_len - 1, 0)

    @pytest.mark.parametrize("wrap", [
        lambda base: sc.DriftModel(base, 0.1),
        lambda base: sc.MixtureModel(sc.DriftModel(base, 0.1), 0.05),
    ], ids=["drift", "mixture-drift"])
    def test_seeded_walk_reads_each_level_once(self, rng, wrap):
        # As calibrate-local runs it: M = 4, T = 9, seeded for one token,
        # walked to t_max = 8.  Levels 1..5 come whole and levels 6..8 in
        # 4 blocks of 256 level-6 parents.  Levels 1..7 each make one
        # lattice step of the innermost model per piece, 5 + 4 * 2, and
        # only level 8's 4 pieces read its rows; a seeded walk that reads
        # each piece's rows and then advances makes 13 (rows, step) pairs.
        seeder = random_markov(rng, 4, 9, 2)
        inner = random_markov(rng, 4, 9, 2)
        calls = [count_calls(inner, name) for name in ("rows", "step", "advance")]
        sc.drift_curve_exact(wrap(inner), seed_model=seeder, prefix_len=1, t_max=8)
        assert [c[0] for c in calls] == [4, 13, 0]

    def test_local_tilt_steps_its_base_once_per_level(self, rng):
        # The same walk of a LocalTilt(Drift), as calibrate-local runs it on
        # its fitted tilt, in the pieces above.  Levels 1..7 each make one
        # lattice step of the innermost model per piece, whose children are
        # the next level and whose rows the tilt's lookahead reads (the
        # seeded level 1 reads none); level 8's 4 reads make one lookahead
        # step more each: 1 + 4 + 4 * 3 steps.  A tilt whose next state
        # repeats the base's lattice step makes 30; each lookahead reads its
        # children's rows.
        seeder = random_markov(rng, 4, 9, 2)
        inner = random_markov(rng, 4, 9, 2)
        calls = [count_calls(inner, name) for name in ("rows", "step", "advance")]
        model = sc.LocalTiltModel(sc.DriftModel(inner, 0.1), 0.6)
        sc.drift_curve_exact(model, seed_model=seeder, prefix_len=1, t_max=8)
        assert [c[0] for c in calls] == [16, 17, 0]

    @pytest.mark.parametrize("M, T, prefix_len, t_max", [(2, 1, 0, 1), (2, 6, 0, 6), (3, 5, 1, 4),
                                                         (4, 5, 2, 5), (9, 3, 1, 3)])
    @pytest.mark.parametrize("tilt", [False, True])
    def test_blocked_means_are_bitwise_the_whole_levels(self, rng, monkeypatch, M, T, prefix_len,
                                                        t_max, tilt):
        # Whatever the block size, down to one parent, each mean is the
        # correctly rounded sum of a whole level's weighted entropies.
        seeder = random_markov(rng, M, T, 1, concentration=0.5)
        model = sc.DriftModel(random_markov(rng, M, T, 2, concentration=0.5), 0.2)
        if tilt:
            model = sc.LocalTiltModel(model, -0.7)
        walk = model if prefix_len == 0 else seqcal.estimate._SeededWalk(model, seeder, prefix_len)
        expected = [math.fsum((weights * sc.row_entropies(rows)).tolist())
                    for t, _, _, weights, rows in sc.exact.prefix_expansion(walk, None, last=t_max,
                                                                            whole=True)
                    if t > prefix_len]
        for block in (1, 5, 2 * M**2 + 1, 2**14):
            monkeypatch.setattr(sc.exact, "_TAIL_BLOCK", block)
            curve = sc.drift_curve_exact(model, seed_model=seeder, prefix_len=prefix_len, t_max=t_max)
            assert curve.means.tolist() == expected, block

    def test_tilted_curve_heap_peak_in_last_level_arrays(self):
        # A seeded LocalTilt(Drift) curve at M = 4, T = 8 peaks at 1.19
        # arrays of the last level's (M**(T-1), M) rows: one block of
        # level-8 prefixes at a time, its lookahead included.  A walk that
        # holds each level whole, as the curve's did, peaked at 4.18.
        M, T = 4, 8
        truth = random_markov(np.random.default_rng(3), M, T, 2, concentration=0.8)
        base = sc.DriftModel(truth.perturbed(np.random.default_rng(4), 0.3), 0.1)
        tilted = sc.LocalTiltModel(base, 0.3)
        curve, peak = heap_peak(lambda: sc.drift_curve_exact(tilted, seed_model=truth, prefix_len=1))
        assert curve.steps.tolist() == list(range(2, T + 1))
        assert peak < 1.3 * 8 * M**T

    @pytest.mark.parametrize("prefix_len, t_max", [(0, 3), (1, 4), (2, 5)])
    def test_walk_stops_at_t_max(self, rng, prefix_len, t_max):
        # The curve ends at t_max and the walk's budget is M**t_max.
        M, T = 2, 5
        seeder = random_markov(rng, M, T, 1)
        model = sc.DriftModel(random_markov(rng, M, T, 1), 0.3)
        full = sc.drift_curve_exact(model, seed_model=seeder, prefix_len=prefix_len)
        curve = sc.drift_curve_exact(
            model, sc.EnumerationBudget(M**t_max), seed_model=seeder,
            prefix_len=prefix_len, t_max=t_max,
        )
        assert curve.steps.tolist() == list(range(prefix_len + 1, t_max + 1))
        assert len(curve.means) == len(curve.stderrs) == t_max - prefix_len
        assert np.array_equal(curve.means, full.means[: t_max - prefix_len])
        assert curve.t_max == t_max
        with pytest.raises(sc.BudgetExceededError):
            sc.drift_curve_exact(
                model, sc.EnumerationBudget(M**t_max - 1), seed_model=seeder,
                prefix_len=prefix_len, t_max=t_max,
            )

    @pytest.mark.parametrize("t_max", [2.5, 0, 6])
    def test_t_max_must_be_an_integer_step(self, rng, t_max):
        model, _ = random_pair(rng, M=2, T=5, order=1)
        with pytest.raises(ValueError, match="t_max"):
            sc.drift_curve_exact(model, t_max=t_max)


class TestEntRateGap:
    def test_reads_the_given_curve_and_estimate(self, rng):
        truth, model = random_pair(rng, M=3, T=4, order=1)
        curve = sc.drift_curve(model, 64, sc.named_stream(14, "drift"))
        ce = sc.cross_entropy_mc(truth, model, 64, sc.named_stream(14, "ce"))
        gap = sc.ent_rate_gap(curve, ce)
        assert gap.curve is curve
        assert (gap.start, gap.start_stderr) == (ce.value, ce.stderr)
        assert (gap.end, gap.end_stderr) == (curve.means[-1], curve.stderrs[-1])
        assert gap.start_source == "cross_entropy_mc"

    def test_truth_model_has_no_gap(self, rng):
        # A step-homogeneous truth: every conditional equals its entropy
        # rate, so the CE endpoint and the late generation entropy agree.
        truth = random_markov(rng, 3, 6, 0, concentration=0.8)
        g = sc.named_stream(11, "gap")
        gap = sc.ent_rate_gap(sc.drift_curve(truth, 8192, g), sc.cross_entropy_mc(truth, truth, 8192, g))
        assert abs(gap.gap) <= 3 * max(gap.gap_stderr, 1e-12)

    def test_drift_model_positive_gap(self, rng):
        # Exact endpoints certify the gap; the MC version must agree.
        truth = stationary_sharp_truth(sc.make_spec(3, 6), rng)
        drift = sc.DriftModel(truth)
        exact_end = sc.drift_curve_exact(drift).means[-1]
        exact_start = sc.cross_entropy_exact(truth, drift)
        assert exact_end - exact_start > 0
        g = sc.named_stream(12, "gap")
        gap = sc.ent_rate_gap(sc.drift_curve(drift, 8192, g), sc.cross_entropy_mc(truth, drift, 8192, g))
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
        gap = sc.ent_rate_gap(sc.drift_curve(model, 128, sc.named_stream(13, "gap")))
        assert gap.start_source == "curve_start"
        assert gap.gap == pytest.approx(gap.end - gap.start, abs=1e-15)
