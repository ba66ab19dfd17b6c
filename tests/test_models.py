import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqcal as sc
from seqcal.exact import (
    prefix_expansion,
    sample_expansion,
    sequence_log_probs,
)
from seqcal.models import _sample_rows, model_dumps, model_loads, pick, row_entropies

from conftest import (
    MODEL_KINDS,
    all_seqs,
    assert_states_equal,
    count_calls,
    enumerate_sequences,
    model_of_kind,
    model_probs,
    one_hot_model,
    random_markov,
)


class TestSpecTypes:
    def test_vocab_requires_two_tokens(self):
        with pytest.raises(ValueError):
            sc.make_spec(1, 3)
        assert sc.make_spec(2, 3).M == 2

    def test_length_positive(self):
        with pytest.raises(ValueError):
            sc.make_spec(3, 0)

    @pytest.mark.parametrize("M, T, message", [
        (2.0, 3, "vocabulary size must be an integer"),
        (True, 3, "vocabulary size must be an integer"),
        (1, 3, "vocabulary size must be >= 2, got 1"),
        (2, 3.0, "sequence length must be an integer"),
        (2, False, "sequence length must be an integer"),
        (2, 0, "sequence length must be >= 1, got 0"),
    ])
    def test_spec_checks_name_the_bad_field(self, M, T, message):
        with pytest.raises(ValueError, match=message):
            sc.make_spec(M, T)

    def test_spec_is_its_two_sizes(self):
        spec = sc.make_spec(3, 4)
        assert (spec.M, spec.T) == (3, 4)
        assert spec == sc.SequenceSpec(3, 4) and hash(spec) == hash(sc.SequenceSpec(3, 4))
        assert spec != sc.make_spec(4, 3)

    def test_row_validation(self):
        spec = sc.make_spec(2, 3)
        with pytest.raises(ValueError):
            sc.MarkovModel(spec, 0, [np.array([[0.7, 0.2]])])
        with pytest.raises(ValueError):
            sc.MarkovModel(spec, 0, [np.array([[1.2, -0.2]])])


class TestNextDist:
    def test_uniform_any_context(self, rng):
        model = sc.MarkovModel.uniform(sc.make_spec(5, 4))
        for ctx in ([], [0], [4, 2, 1]):
            np.testing.assert_allclose(model.next_dist(ctx), np.full(5, 0.2))

    def test_mixture_gamma_zero_is_base(self, rng):
        base = random_markov(rng, 3, 4, 1)
        mix = sc.MixtureModel(base, 0.0)
        for ctx in ([], [1], [2, 0, 1]):
            np.testing.assert_array_equal(mix.next_dist(ctx), base.next_dist(ctx))

    def test_mixture_conditional_matches_enumeration(self):
        # M=2, T=2, gamma=0.5, base puts all mass on (0, 0).  The four
        # sequence probabilities are (0.625, 0.125, 0.125, 0.125);
        # conditioning on first token 0 gives (0.625, 0.125)/0.75.
        spec = sc.make_spec(2, 2)
        mix = sc.MixtureModel(one_hot_model(spec), 0.5)
        probs = model_probs(mix)
        assert probs[(0, 0)] == pytest.approx(0.625, abs=1e-15)
        row = mix.next_dist([0])
        np.testing.assert_allclose(row, [5.0 / 6.0, 1.0 / 6.0], atol=1e-12)
        # cross-check against conditioning the enumerated distribution
        denom = probs[(0, 0)] + probs[(0, 1)]
        np.testing.assert_allclose(row, [probs[(0, 0)] / denom, probs[(0, 1)] / denom],
                                   atol=1e-12)

    def test_context_length_error(self, rng):
        model = random_markov(rng, 3, 3, 1)
        with pytest.raises(ValueError, match="length"):
            model.next_dist([0, 1, 2])
        with pytest.raises(ValueError, match="length"):
            model.next_dist_batch(np.zeros((2, 3), dtype=int))

    def test_token_domain_error(self, rng):
        # Every public entry point rejects a token outside {0, ..., M-1}.
        model = random_markov(rng, 3, 4, 1)
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="vocabulary"):
                model.next_dist([bad])
            with pytest.raises(ValueError, match="vocabulary"):
                model.next_dist_batch([[bad]])
            with pytest.raises(ValueError, match="vocabulary"):
                model.seq_log_prob_batch([[0, 1, 2, bad]])
            with pytest.raises(ValueError, match="vocabulary"):
                model.sample_batch(2, rng, prefix=[bad])


class TestSeqLogProb:
    def test_uniform(self):
        model = sc.MarkovModel.uniform(sc.make_spec(4, 3))
        assert model.seq_log_prob([0, 3, 1]) == pytest.approx(-3 * math.log(4), abs=1e-12)

    def test_drift_p_zero_equals_base(self, rng):
        base = random_markov(rng, 3, 4, 1)
        drift = sc.DriftModel(base, 0.0)
        for w in ([0, 1, 2, 0], [2, 2, 2, 2]):
            assert drift.seq_log_prob(w) == base.seq_log_prob(w)

    def _switch_time_oracle(self, base, p, w):
        # Mode enters uniform before emitting step s (s = T+1: never).
        T, M = len(w), base.spec.M
        total = 0.0
        for s in range(1, T + 2):
            prob_s = (1 - p) ** (s - 1) * p if s <= T else (1 - p) ** T
            seq_p = 1.0
            for t in range(T):
                seq_p *= float(base.next_dist(w[:t])[w[t]]) if t + 1 < s else 1.0 / M
            total += prob_s * seq_p
        return math.log(total)

    def test_drift_p_one_marginalization(self, rng):
        base = random_markov(rng, 3, 3, 1)
        drift = sc.DriftModel(base, 1.0)
        w = [0, 1, 2]
        assert drift.seq_log_prob(w) == pytest.approx(self._switch_time_oracle(base, 1.0, w), abs=1e-12)
        assert drift.seq_log_prob(w) == pytest.approx(-3 * math.log(3), abs=1e-12)

    def test_drift_forward_recursion_vs_switch_times(self, rng):
        base = random_markov(rng, 2, 5, 2)
        drift = sc.DriftModel(base, 0.3)
        for w in all_seqs(2, 5):
            assert drift.seq_log_prob(w) == pytest.approx(
                self._switch_time_oracle(base, 0.3, w), abs=1e-10
            )

    def test_wrong_length(self, rng):
        model = random_markov(rng, 2, 4, 0)
        with pytest.raises(ValueError, match="length"):
            model.seq_log_prob([0, 1])

    def test_zero_probability_is_neg_inf(self):
        spec = sc.make_spec(2, 2)
        model = one_hot_model(spec)
        assert model.seq_log_prob([0, 1]) == -math.inf


class TestSampling:
    def test_deterministic_model(self, rng):
        model = one_hot_model(sc.make_spec(3, 6))
        np.testing.assert_array_equal(model.sample_sequence(rng), np.zeros(6, dtype=int))

    def test_prefix_preserved(self, rng):
        model = random_markov(rng, 3, 5, 1)
        prefix = [2, 0, 1, 2]
        out = model.sample_sequence(rng, prefix=prefix)
        np.testing.assert_array_equal(out[:4], prefix)

    def test_prefix_too_long(self, rng):
        model = random_markov(rng, 3, 3, 1)
        with pytest.raises(ValueError, match="exceeds"):
            model.sample_batch(2, rng, prefix=[0, 1, 2])

    def test_uniform_unigram_frequencies(self):
        # Binomial stderr oracle: sqrt(p(1-p)/n) per token.
        model = sc.MarkovModel.uniform(sc.make_spec(4, 2))
        rng = sc.named_stream(5, "unigram-test")
        n = 10**5
        seqs = model.sample_batch(n, rng)
        stderr = math.sqrt(0.25 * 0.75 / (2 * n))
        for token in range(4):
            freq = float(np.mean(seqs == token))
            assert abs(freq - 0.25) <= 3 * stderr

    def test_sampling_deterministic_given_stream(self, rng):
        model = random_markov(rng, 3, 4, 1)
        a = model.sample_batch(16, sc.named_stream(9, "gen"))
        b = model.sample_batch(16, sc.named_stream(9, "gen"))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("prefix", [None, [2, 0]])
    def test_sample_batch_is_column_major(self, rng, prefix):
        # A step's column is contiguous, so the drivers read it as a view;
        # the values and their row serialization are the layout's own.
        model = random_markov(rng, 3, 6, 2)
        seqs = model.sample_batch(16, sc.named_stream(9, "gen"), prefix=prefix)
        assert seqs.flags.f_contiguous
        column = np.ascontiguousarray(seqs[:, 3])
        assert np.shares_memory(column, seqs)
        rows = np.ascontiguousarray(seqs)
        assert rows.flags.c_contiguous and np.array_equal(seqs, rows)
        assert seqs.tolist() == rows.tolist()


class _TopOfUnitInterval:
    """Generator stub whose every uniform draw is the largest double below 1."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


class _Draws:
    """Generator stub that returns the given uniform draws (a scalar repeats)."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.broadcast_to(np.asarray(self.u, dtype=float), (n,)).copy()


def _rounded_short_model():
    # The row [0.1]*10 + [0] sums to 0.9999999999999999 in a cumsum, so a
    # draw just below 1 lands past the last positive-mass token.  Token
    # 10 is never emitted; if it were, the next row would be one-hot.
    row = [0.1] * 10 + [0.0]
    transition = [row] * 10 + [[0.0] * 10 + [1.0]]
    return sc.MarkovModel(sc.make_spec(11, 2), 1, [[row], transition])


class TestZeroMassDraws:
    def test_sample_batch_never_emits_zero_mass_token(self):
        model = _rounded_short_model()
        seqs = model.sample_batch(4, _TopOfUnitInterval())
        np.testing.assert_array_equal(seqs, np.full((4, 2), 9))
        assert np.all(np.isfinite(model.seq_log_prob_batch(seqs)))

    def test_drift_curve_never_emits_zero_mass_token(self):
        curve = sc.drift_curve(_rounded_short_model(), 4, _TopOfUnitInterval())
        np.testing.assert_allclose(curve.means, [math.log(10)] * 2, rtol=1e-12)


def _cumsum_tokens(rows, u):
    """The inverse-CDF draw by one ``np.cumsum`` pass, zero-mass fix-up included."""
    M = rows.shape[1]
    idx = (np.cumsum(rows, axis=1) <= u[:, None]).sum(axis=1)
    over = np.flatnonzero(idx == M)
    idx[over] = M - 1 - np.argmax(rows[over, ::-1] > 0.0, axis=1)
    return idx


def _probability_rows(rng, M, n, zero_frac):
    """n probability rows with about `zero_frac` zero entries, a quarter of them one-hot."""
    rows = rng.dirichlet(np.ones(M), size=n)
    rows[rng.random((n, M)) < zero_frac] = 0.0
    hot = (rng.random(n) < 0.25) | (rows.sum(axis=1) == 0.0)
    rows[hot] = np.eye(M)[rng.integers(0, M, size=int(hot.sum()))]
    return rows / rows.sum(axis=1, keepdims=True)


class TestShortAxisKernels:
    """The column sampler, the gathers and the entropy sum are bitwise their row formulas."""

    @settings(max_examples=80, deadline=None)
    @given(
        M=st.sampled_from([2, 3, 4, 8, 15, 16, 17, 64, 255, 256, 300]),
        n=st.integers(1, 40),
        seed=st.integers(0, 10**6),
        zero_frac=st.sampled_from([0.0, 0.3, 0.8]),
        draws=st.sampled_from(["uniform", "cdf", "top"]),
    )
    # Draws past the rounded row total count M, which a count of the wrong
    # width wraps.
    @example(M=256, n=40, seed=0, zero_frac=0.0, draws="top")
    @example(M=300, n=40, seed=1, zero_frac=0.3, draws="top")
    def test_column_sampler_is_the_cumsum_formula(self, M, n, seed, zero_frac, draws):
        rng = np.random.default_rng(seed)
        rows = _probability_rows(rng, M, n, zero_frac)
        cdf = np.cumsum(rows, axis=1)
        if draws == "top":
            gen = _TopOfUnitInterval()
        elif draws == "cdf":
            # Draws on a CDF entry, the rounded row total (last column) included.
            gen = _Draws(cdf[np.arange(n), rng.integers(0, M, size=n)])
        else:
            gen = _Draws(rng.random(n))
        tokens = _sample_rows(rows, gen)
        assert tokens.dtype == np.int64
        np.testing.assert_array_equal(tokens, _cumsum_tokens(rows, gen.random(n)))
        assert np.all(rows[np.arange(n), tokens] > 0.0)

    @pytest.mark.parametrize("layout", ["contiguous", "column_slice", "row_step"])
    def test_pick_is_the_fancy_gather(self, rng, layout):
        n, M = 37, 4
        wide = rng.random((2 * n, M + 3))
        rows = {
            "contiguous": np.ascontiguousarray(wide[:n, :M]),
            "column_slice": wide[:n, 2 : 2 + M],
            "row_step": wide[::2, 1 : 1 + M],
        }[layout]
        tokens = rng.integers(0, M, size=n)
        np.testing.assert_array_equal(pick(rows, tokens), rows[np.arange(n), tokens])

    def test_markov_rows_are_the_table_gather(self, rng):
        model = random_markov(rng, 3, 6, 2)
        for t in range(5):
            table = model.tables[min(model.order, t)]
            code = rng.integers(0, table.shape[0], size=50)
            np.testing.assert_array_equal(model.rows((t, code)), table[code])

    @pytest.mark.parametrize("lattice", [False, True])
    @pytest.mark.parametrize("M", [2, 3, 4, 9])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_markov_codes_are_the_modulus_formula(self, order, M, lattice):
        # The code after step t holds the last min(order, t + 1) tokens.
        rng = np.random.default_rng(100 * order + 10 * M + lattice)
        model = sc.MarkovModel.uniform(sc.make_spec(M, 6), order)
        state = model.init_state(40)
        code = state[1]
        for t in range(5):
            if lattice:
                tokens, child = None, (code[:, None] * M + np.arange(M)).reshape(-1)
            else:
                tokens = rng.integers(0, M, size=code.shape[0])
                child = code * M + tokens
            code = child % M ** min(order, t + 1)
            state = model.advance(state, tokens)
            assert state[0] == t + 1
            assert state[1].dtype == np.int64 and np.array_equal(state[1], code)

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.sampled_from([2, 3, 4, 8, 9]),
        n=st.integers(1, 40),
        seed=st.integers(0, 10**6),
        zero_frac=st.sampled_from([0.0, 0.3, 0.8]),
    )
    def test_row_entropies_are_the_row_sum(self, M, n, seed, zero_frac):
        # A single row, a batch of rows and a 3-d stack of them alike.
        rows = _probability_rows(np.random.default_rng(seed), M, 2 * n, zero_frac)
        for batch in (rows[0], rows, rows.reshape(2, n, M), rows.reshape(n, 2, M)):
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(batch > 0.0, batch * np.log(batch), 0.0)
            expected = -terms.sum(axis=-1)
            got = row_entropies(batch)
            assert np.shape(got) == np.shape(expected)
            assert np.array_equal(got, expected)


class TestTokenProbs:
    """``step(state, tokens)`` reads the picked row entry and advances, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(MODEL_KINDS),
        M=st.sampled_from([2, 3, 4, 8, 9]),
        T=st.sampled_from([1, 2, 5]),
        seed=st.integers(0, 10**6),
        zero_frac=st.sampled_from([0.0, 0.5]),
    )
    def test_step_is_the_picked_rows_and_advance(self, kind, M, T, seed, zero_frac):
        rng = np.random.default_rng(seed)
        model = model_of_kind(kind, rng, M, T, zero_frac)
        n = 12
        state = model.init_state(n)
        for t in range(T):
            rows = model.rows(state)
            # The lattice step reads the whole rows.
            read, children = model.step(state, None)
            assert np.array_equal(read, rows)
            assert_states_equal(children, model.advance(state, None))
            # Every token, those of zero probability included.
            for j in range(M):
                tokens = np.full(n, j, dtype=np.int64)
                read, after = model.step(state, tokens)
                assert np.array_equal(read, pick(rows, tokens))
                assert_states_equal(after, model.advance(state, tokens))
            # Sampled prefixes, and every other one continued at random so
            # that prefixes of zero probability are walked too.  The last
            # step leaves states of length T.
            tokens = _sample_rows(rows, rng)
            tokens[::2] = rng.integers(0, M, size=tokens[::2].shape[0])
            read, after = model.step(state, tokens)
            assert np.array_equal(read, pick(rows, tokens))
            state = model.advance(state, tokens)
            assert_states_equal(after, state)

    @pytest.mark.parametrize("kind", [k for k in MODEL_KINDS if not k.endswith("tilt")])
    def test_scoring_builds_no_rows(self, kind):
        # Table and floored models score a token without their (n, M) rows.
        rng = np.random.default_rng(MODEL_KINDS.index(kind))
        model = model_of_kind(kind, rng, 3, 6)
        seqs = np.concatenate([model.sample_batch(8, rng), rng.integers(0, 3, size=(8, 6))])
        calls = count_calls(model, "rows")
        # Nor does a floored model build its base's rows.
        inner = count_calls(model.base, "rows") if hasattr(model, "base") else [0]
        model.seq_log_prob_batch(seqs)
        assert calls[0] == 0 and inner[0] == 0


class TestExactMarginal:
    def test_order1_window1_recovers_transitions(self, rng):
        truth = random_markov(rng, 3, 5, 1)
        limited = sc.fit_limited_memory(truth, 1)
        np.testing.assert_allclose(limited.tables[1], truth.tables[1], atol=1e-12)
        np.testing.assert_allclose(limited.tables[0], truth.tables[0], atol=1e-12)

    def test_iid_any_window(self, rng):
        truth = random_markov(rng, 3, 4, 0)
        limited = sc.fit_limited_memory(truth, 2)
        for table in limited.tables:
            np.testing.assert_allclose(table, np.broadcast_to(truth.tables[0], table.shape),
                                       atol=1e-12)

    def test_order2_window1_matches_enumeration(self, rng):
        # Pool joint counts of (previous token, next token) over positions
        # t >= 2 from the 16 enumerated sequences.
        truth = random_markov(rng, 2, 4, 2)
        probs = model_probs(truth)
        joint = np.zeros((2, 2))
        for w, p in probs.items():
            for t in range(1, 4):
                joint[w[t - 1], w[t]] += p
        expected = joint / joint.sum(axis=1, keepdims=True)
        limited = sc.fit_limited_memory(truth, 1)
        np.testing.assert_allclose(limited.tables[1], expected, atol=1e-10)
        np.testing.assert_allclose(limited.tables[0][0], truth.tables[0][0], atol=1e-12)

    def test_budget_error(self, rng):
        truth = random_markov(rng, 3, 6, 1)
        with pytest.raises(sc.BudgetExceededError):
            sc.fit_limited_memory(truth, 2, budget=sc.EnumerationBudget(10))


def _zoo(rng, M=3, T=4, gamma=0.3, switch_prob=0.25, alpha=-0.8, steps=(2, 3)):
    """One model of every kind on a random order-1 base, tilts included."""
    base = random_markov(rng, M, T, 1)
    mixture = sc.MixtureModel(base, gamma)
    drift = sc.DriftModel(base, switch_prob)
    return [
        base,
        sc.fit_limited_memory(random_markov(rng, M, T, 2), 1),
        mixture,
        sc.PerTokenMixture(base, gamma),
        drift,
        sc.GlobalTiltModel(mixture, sc.FunctionalF.log_prob(mixture), alpha),
        sc.LocalTiltModel(drift, alpha),
        sc.MemoryTiltModel(drift, sc.fit_limited_memory(base, 1), alpha, active_steps=steps),
    ]


class TestInvariants:
    def test_rows_are_distributions_on_random_contexts(self, rng):
        models = _zoo(rng)
        for _ in range(1000 // len(models)):
            for model in models:
                L = int(rng.integers(0, model.spec.T))
                ctx = rng.integers(0, model.spec.M, size=L)
                row = model.next_dist(ctx)
                assert np.all(row >= 0.0)
                assert abs(row.sum() - 1.0) <= 1e-12

    def test_chain_rule_sums_to_one(self, rng):
        for model in _zoo(rng):
            total = math.fsum(np.exp(sequence_log_probs(model)).tolist())
            assert abs(total - 1.0) <= 1e-9

    def test_seq_log_prob_matches_chain_of_conditionals(self, rng):
        # Scoring a whole sequence and reading one row at a time are two
        # drivers of the same step; the mixture's product must telescope.
        for model in _zoo(rng):
            for w in ([0, 1, 2, 0], [2, 2, 0, 1], [1, 0, 0, 0]):
                chained = sum(
                    math.log(model.next_dist(w[:t])[w[t]]) for t in range(4)
                )
                assert model.seq_log_prob(w) == pytest.approx(chained, abs=1e-10)

    def test_batch_matches_single(self, rng):
        for model in _zoo(rng):
            ctxs = rng.integers(0, 3, size=(20, 2))
            rows = model.next_dist_batch(ctxs)
            for i in range(20):
                np.testing.assert_allclose(rows[i], model.next_dist(ctxs[i]), atol=1e-12)
            seqs = model.sample_batch(10, np.random.default_rng(3))
            lps = model.seq_log_prob_batch(seqs)
            for i in range(10):
                assert lps[i] == pytest.approx(model.seq_log_prob(seqs[i]), abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(gamma=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    @example(gamma=0.0, seed=0)
    @example(gamma=1.0, seed=0)
    @example(gamma=5e-324, seed=0)
    def test_mixture_sequence_identity(self, gamma, seed):
        rng = np.random.default_rng(seed)
        base = random_markov(rng, 2, 3, 1)
        mix = sc.MixtureModel(base, gamma)
        uni = 2.0 ** -3
        for w in all_seqs(2, 3):
            direct = (1 - gamma) * math.exp(base.seq_log_prob(w)) + gamma * uni
            assert math.exp(mix.seq_log_prob(w)) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1e-9, 0.05, 0.5, 0.999])
    def test_mixture_lattice_matches_definition(self, gamma):
        # Every sequence of a peaked base: (1-g) B(w) + g M^-T, to 1e-13
        # relative.  The log-odds must gain log M per token to get there.
        M, T = 3, 7
        base = random_markov(np.random.default_rng(17), M, T, 1, concentration=0.3)
        mixed = np.exp(sequence_log_probs(sc.MixtureModel(base, gamma)))
        direct = (1 - gamma) * np.exp(base.seq_log_prob_batch(enumerate_sequences(M, T)))
        direct += gamma * float(M) ** -T
        assert np.max(np.abs(mixed - direct) / direct) <= 1e-13

    def test_mixture_floor_survives_a_long_certain_prefix(self):
        # A base sure of every drawn token drives the uniform posterior
        # towards 0, yet it stays positive for hundreds of steps: at
        # gamma = 0.05 and M = 4 a posterior kept as a probability rounds
        # to 1 after 25 steps and floors the zero entries at 0.
        spec = sc.make_spec(4, 256)
        mix = sc.MixtureModel(one_hot_model(spec), 0.05)
        state = mix.init_state(1)
        for t in range(spec.T):
            if t:
                state = mix.advance(state, np.zeros(1, dtype=np.int64))
            assert np.all(mix.rows(state) > 0.0)

    def test_mixture_of_a_vanishing_base_is_uniform(self):
        # Base entries of 1e-200 send the log-odds below -900 after two
        # tokens, where exp(-l) overflows: rows must come out uniform
        # without a RuntimeWarning.
        M = 4
        row = np.array([[1e-200, 1e-200, 1e-200, 1.0]])
        base = sc.MarkovModel(sc.make_spec(M, 6), 0, [row])
        mix = sc.MixtureModel(base, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = mix.next_dist_batch(np.zeros((1, 5), dtype=np.int64))
        np.testing.assert_array_equal(rows, np.full((1, M), 1.0 / M))

    def test_per_token_mixture_differs_from_sequence_mixture(self, rng):
        base = random_markov(rng, 2, 3, 1)
        seq_mix = sc.MixtureModel(base, 0.4)
        tok_mix = sc.PerTokenMixture(base, 0.4)
        diffs = [
            abs(seq_mix.seq_log_prob(w) - tok_mix.seq_log_prob(w)) for w in all_seqs(2, 3)
        ]
        assert max(diffs) > 1e-3

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        M=st.integers(2, 3),
        T=st.integers(1, 4),
        gamma=st.sampled_from([0.0, 0.3, 1.0]),
        switch_prob=st.sampled_from([0.0, 0.25, 1.0]),
        alpha=st.sampled_from([0.0, 0.6, -0.8]),
    )
    def test_stepping_matches_next_dist(self, seed, M, T, gamma, switch_prob, alpha):
        # A batch state advanced token by token gives, at every step, the
        # rows that next_dist computes from the explicit context.
        rng = np.random.default_rng(seed)
        seqs = rng.integers(0, M, size=(5, T))
        for model in _zoo(rng, M, T, gamma, switch_prob, alpha):
            state = model.init_state(5)
            for t in range(T):
                rows = model.rows(state)
                for w, row in zip(seqs, rows):
                    np.testing.assert_allclose(row, model.next_dist(w[:t]), rtol=0, atol=1e-13)
                if t + 1 < T:
                    state = model.advance(state, seqs[:, t])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), window=st.integers(1, 3))
    def test_limited_memory_truncation_invariance(self, seed, window):
        rng = np.random.default_rng(seed)
        truth = random_markov(rng, 2, 5, 2)
        limited = sc.fit_limited_memory(truth, window)
        suffix = rng.integers(0, 2, size=window)
        a = np.concatenate([rng.integers(0, 2, size=4 - window), suffix])
        b = np.concatenate([rng.integers(0, 2, size=4 - window), suffix])
        np.testing.assert_array_equal(limited.next_dist(a), limited.next_dist(b))


class TestLinearCost:
    """Sampling and scoring cost one step per token, counted without timings.

    Every composite model reads its innermost table model through
    ``rows``, n rows of M entries, and ``step``, n entries on a token
    step or n rows on a lattice step; counting both kinds of batch, with
    the table model's own ``advance``, counts the steps.
    """

    @pytest.mark.parametrize("kind", ["drift", "mixture", "local_tilt", "memory_tilt"])
    def test_rows_batches_grow_linearly_in_T(self, kind):
        M = 3
        for T in (16, 64):
            rng = np.random.default_rng(T)
            inner = random_markov(rng, M, T, 2)
            drift = sc.DriftModel(inner, 0.1)
            # The innermost (rows, step, advance) batches of sampling, then
            # of scoring.  A Drift or Mixture reads rows for each sampled
            # step and advances by its own step, which reads the base's;
            # it scores by one step per token, which reads and advances.
            sampling, scoring = (T, T - 1, 0), (0, T, 0)
            if kind == "drift":
                model = drift
            elif kind == "mixture":
                model = sc.MixtureModel(inner, 0.1)
            elif kind == "local_tilt":
                # Each tilted step (all but the last) takes the rows and the
                # children from one lattice step of the Drift and reads the
                # children's rows; every advance is one token step.  Scoring
                # advances past the last token too.
                model = sc.LocalTiltModel(drift, 0.5)
                sampling, scoring = (T, 2 * T - 2, 0), (T, 2 * T - 1, 0)
            else:
                tables = random_markov(rng, M, T, 1).tables
                comparator = sc.LimitedMemoryModel(inner.spec, 1, tables)
                model = sc.MemoryTiltModel(drift, comparator, 0.5)
                sampling, scoring = (T, T - 1, 0), (T, T, 0)
            counts = [count_calls(inner, name) for name in ("rows", "step", "advance")]
            seqs = model.sample_batch(8, rng)
            assert tuple(c[0] for c in counts) == sampling
            for c in counts:
                c[0] = 0
            assert np.all(np.isfinite(model.seq_log_prob_batch(seqs)))
            assert tuple(c[0] for c in counts) == scoring

    @pytest.mark.parametrize("T", [1, 2, 6])
    def test_lattice_walk_reads_the_innermost_rows_once_per_level(self, T):
        # One block of a Mixture(Drift(Markov)) walk: each level reads the
        # Markov rows once, by a lattice step below the last level and by
        # ``rows`` there.
        M = 3
        inner = random_markov(np.random.default_rng(T), M, T, 2)
        model = sc.MixtureModel(sc.DriftModel(inner, 0.1), 0.2)
        assert M**T <= sc.exact._TAIL_BLOCK
        reads, advances = count_calls(inner, "rows", "step"), count_calls(inner, "advance")
        log_probs = sequence_log_probs(model)
        assert (reads[0], advances[0]) == (T, 0)
        oracle = model_probs(model)
        np.testing.assert_allclose(np.exp(log_probs), [oracle[w] for w in all_seqs(M, T)], rtol=1e-12)


def _take_state(state, idx):
    """The batch state of the prefixes `idx` of `state`: arrays indexed, the rest kept."""
    if isinstance(state, tuple):
        return tuple(_take_state(part, idx) for part in state)
    if isinstance(state, np.ndarray):
        return state[idx]
    return state


class TestLatticeStep:
    """``advance(state, None)`` is the repeat-and-tile step, bit for bit.

    Child i*M + j of a lattice level is prefix i followed by token j; the
    reference selects each prefix M times and appends the tiled tokens.
    """

    @pytest.mark.parametrize("M", [2, 3, 4])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_matches_repeat_and_tile(self, kind, M):
        rng = np.random.default_rng(10 * M + MODEL_KINDS.index(kind))
        model = model_of_kind(kind, rng, M, 4)
        lattice = reference = model.init_state(1)
        for level in range(1, 3):
            n = M ** (level - 1)
            idx = np.repeat(np.arange(n), M)
            tokens = np.tile(np.arange(M, dtype=np.int64), n)
            reference = model.advance(_take_state(reference, idx), tokens)
            lattice = model.advance(lattice, None)
            assert_states_equal(lattice, reference)
            assert np.array_equal(model.rows(lattice), model.rows(reference))


class TestBatchMatchesSingle:
    """Batch drivers equal stacked single-context calls, bit for bit."""

    M, T, N = 3, 5, 12

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_next_dist_batch_stacks_next_dist(self, kind):
        rng = np.random.default_rng(MODEL_KINDS.index(kind))
        model = model_of_kind(kind, rng, self.M, self.T)
        for L in range(self.T):
            ctxs = rng.integers(0, self.M, size=(self.N, L))
            stacked = np.stack([model.next_dist(ctx) for ctx in ctxs])
            np.testing.assert_array_equal(model.next_dist_batch(ctxs), stacked)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_seq_log_prob_batch_stacks_seq_log_prob(self, kind):
        rng = np.random.default_rng(100 + MODEL_KINDS.index(kind))
        model = model_of_kind(kind, rng, self.M, self.T)
        seqs = np.concatenate(
            [model.sample_batch(self.N, rng), rng.integers(0, self.M, size=(self.N, self.T))]
        )
        n = seqs.shape[0]
        scores = model.seq_log_prob_batch(seqs)
        np.testing.assert_array_equal(scores, [model.seq_log_prob(w) for w in seqs])
        # The chain rule over next_dist_batch rows, gathered by fancy index.
        chain = np.zeros(n)
        for t in range(self.T):
            chain += np.log(model.next_dist_batch(seqs[:, :t])[np.arange(n), seqs[:, t]])
        np.testing.assert_array_equal(scores, chain)
        # Scoring reads one column per step from any memory layout.
        wide = np.zeros((n, 2 * self.T + 1), dtype=np.int64)
        wide[:, 1::2] = seqs
        for layout in (np.asfortranarray(seqs), wide[:, 1::2], np.repeat(seqs, 2, axis=0)[::2]):
            assert not layout.flags.c_contiguous
            np.testing.assert_array_equal(model.seq_log_prob_batch(layout), scores)


class TestDeterministicBinary:
    """M = 2 with one-hot rows: the sampler and both walks see one sequence."""

    SUPPORT = (1, 1, 0, 1, 1, 0, 1)

    @staticmethod
    def _model(kind):
        # Order 2: the first two tokens are 1, then (1, 1) -> 0 and
        # (1, 0), (0, 1) -> 1, so the one sequence is 1 1 0 1 1 0 1.
        e0, e1 = [1.0, 0.0], [0.0, 1.0]
        base = sc.MarkovModel(sc.make_spec(2, 7), 2, [[e1], [e0, e1], [e1, e1, e1, e0]])
        if kind == "markov":
            return base
        if kind == "drift":
            return sc.DriftModel(base, 0.0)
        return sc.LocalTiltModel(base, 0.7)

    @pytest.mark.parametrize("kind", ["markov", "drift", "local_tilt"])
    def test_both_walks_follow_the_support(self, kind):
        model = self._model(kind)
        n = 8
        support = np.tile(self.SUPPORT, (n, 1))
        for gen in (np.random.default_rng(0), _TopOfUnitInterval(), _Draws(0.0)):
            samples = model.sample_batch(n, gen)
            np.testing.assert_array_equal(samples, support)
        exact_means, sample_means = [], []
        walks = zip(prefix_expansion(model, whole=True), sample_expansion(samples, model))
        for (t, _, _, weights, rows), (_, _, states, s_weights, s_rows) in walks:
            positive = np.flatnonzero(weights > 0.0)
            code = int("0" + "".join(map(str, self.SUPPORT[: t - 1])), 2)
            np.testing.assert_array_equal(positive, [code])
            assert weights[code] == 1.0
            np.testing.assert_array_equal(s_rows, np.tile(rows[code], (n, 1)))
            np.testing.assert_array_equal(model.rows(states[0]), s_rows)
            exact_means.append(math.fsum(weights * row_entropies(rows)))
            sample_means.append(math.fsum(s_weights * row_entropies(model.rows(states[0]))))
        curve = sc.drift_curve_exact(model)
        np.testing.assert_array_equal(curve.means, exact_means)
        np.testing.assert_array_equal(curve.means, sample_means)
        mc = sc.drift_curve(model, n, np.random.default_rng(1))
        np.testing.assert_array_equal(mc.means, curve.means)


class TestStationary:
    def test_stationary_distribution(self, rng):
        transition = rng.dirichlet(np.ones(4), size=4)
        pi = sc.stationary_distribution(transition)
        np.testing.assert_allclose(pi @ transition, pi, atol=1e-10)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


class TestRandomMarkov:
    @pytest.mark.parametrize("concentration", [0.0, -0.5, math.inf, math.nan])
    def test_non_positive_concentration_is_named(self, rng, concentration):
        with pytest.raises(ValueError, match="concentration must be a positive finite number"):
            sc.MarkovModel.random(sc.make_spec(3, 4), 1, rng, concentration=concentration)


class TestSerialization:
    def test_round_trip_preserves_scores(self, rng):
        probe_rng = np.random.default_rng(0)
        for model in _zoo(rng, gamma=0.2, switch_prob=0.3, alpha=0.37):
            doc = sc.model_to_dict(model)
            clone = sc.model_from_dict(doc)
            probes = model.sample_batch(32, probe_rng)
            for w in probes:
                a, b = model.seq_log_prob(w), clone.seq_log_prob(w)
                assert a == pytest.approx(b, abs=1e-12)
            assert sc.model_hash(model) == sc.model_hash(clone)
            assert doc["format_version"] == 1
            assert set(doc) == {"format_version", "kind", "M", "T", "parameters"}

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        M=st.integers(2, 3),
        T=st.integers(1, 4),
        gamma=st.sampled_from([0.0, 0.3, 1.0]),
        switch_prob=st.sampled_from([0.0, 0.3, 1.0]),
        alpha=st.sampled_from([0.0, 0.8, -0.8]),
        steps=st.one_of(st.none(), st.sets(st.integers(1, 6), min_size=1)),
    )
    def test_round_trip_is_exact(self, seed, M, T, gamma, switch_prob, alpha, steps):
        # Steps beyond T are kept, and never reached.
        rng = np.random.default_rng(seed)
        seqs = np.array(all_seqs(M, T))
        for model in _zoo(rng, M, T, gamma, switch_prob, alpha, steps):
            doc = model_dumps(model)
            clone = model_loads(doc)
            assert model_dumps(clone) == doc
            assert np.array_equal(clone.seq_log_prob_batch(seqs), model.seq_log_prob_batch(seqs))

    def test_file_round_trip(self, rng, tmp_path):
        model = sc.MixtureModel(random_markov(rng, 2, 3, 1), 0.1)
        path = tmp_path / "model.json"
        sc.save_model(model, path)
        clone = sc.load_model(path)
        for w in all_seqs(2, 3):
            assert clone.seq_log_prob(w) == pytest.approx(model.seq_log_prob(w), abs=1e-12)

    def test_declared_spec_must_be_the_models(self, rng):
        # A wrapper's spec is its base's, so a document declaring another
        # M or T than its parameters build is rejected, not loaded at the
        # base's spec.  A table model is built at the declared spec.
        doc = sc.model_to_dict(sc.MixtureModel(random_markov(rng, 2, 3, 1), 0.1))
        doc["M"], doc["T"] = 3, 5
        with pytest.raises(ValueError, match="declared M/T"):
            sc.model_from_dict(doc)
        for model in _zoo(rng):
            if model.kind in ("markov", "limited_memory"):
                continue
            for key in ("M", "T"):
                doc = sc.model_to_dict(model)
                doc[key] += 1
                with pytest.raises(ValueError, match="declared M/T"):
                    sc.model_from_dict(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            sc.model_from_dict({"format_version": 1, "kind": "nope", "M": 2, "T": 2,
                                "parameters": {}})
