import math
import random
import warnings

import numpy as np
import pytest

from cutsparse import sampling
from cutsparse.sampling import RngStream, _binomial, binom_sample, compress

from reference import oracle_binomial_draws


def chi_square_p(counts: dict[int, int], pmf, support) -> float:
    """Chi-square p-value of observed counts against `draws * pmf(k)` over
    `support` (ascending), folding sparse bins into their neighbour."""
    from scipy.stats import chi2

    draws = sum(counts.values())
    assert set(counts) <= set(support), "a draw fell outside the support"
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for k in support:
        acc_o += counts.get(k, 0)
        acc_e += draws * pmf(k)
        if acc_e >= 5.0:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    obs[-1] += acc_o
    exp[-1] += acc_e
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    return float(chi2.sf(stat, df=len(obs) - 1))


def tally(draws: np.ndarray) -> dict[int, int]:
    values, counts = np.unique(draws, return_counts=True)
    return dict(zip((int(v) for v in values), counts.tolist()))


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(42)
        b = RngStream(42)
        assert [a.uniform_open() for _ in range(20)] == [b.uniform_open() for _ in range(20)]
        assert a.coin_flips(128).tolist() == b.coin_flips(128).tolist()

    def test_child_streams_are_stable_and_distinct(self):
        root = RngStream(7)
        c1 = root.child("phase-a")
        c2 = root.child("phase-a")
        c3 = root.child("phase-b")
        assert c1.seed == c2.seed
        assert c1.seed != c3.seed
        assert RngStream(7).child("phase-a").seed == c1.seed

    def test_coin_flips_deterministic(self):
        flips1 = RngStream(9).coin_flips(1000)
        flips2 = RngStream(9).coin_flips(1000)
        assert (flips1 == flips2).all()
        assert set(flips1.tolist()) <= {0, 1}


class TestBinomSample:
    def test_p_one_returns_n(self):
        trials = np.array([0.0, 1.0, 5.0, 1000.0, 2.0**63 + 2.0**11, 3.0 * 2.0**64, 2.0**70])
        draws = _binomial(trials, np.ones(len(trials)), RngStream(1))
        assert draws.tolist() == trials.tolist()
        assert binom_sample(1 << 70, 1.0, RngStream(1)) == 1 << 70

    def test_zero_trials(self):
        assert _binomial([0, 0], [0.5, 0.0], RngStream(1)).tolist() == [0.0, 0.0]

    def test_p_zero(self):
        assert _binomial([100, 1 << 70], [0.0, 0.0], RngStream(1)).tolist() == [0.0, 0.0]

    def test_rejects_bad_arguments(self):
        for trials, probs in [([-1], [0.5]), ([1], [1.5]), ([1], [-0.1]), ([1], [math.nan])]:
            with pytest.raises(ValueError):
                _binomial(trials, probs, RngStream(1))

    def test_one_uniform_per_edge_in_order(self):
        # exact inversion of the stream's i-th word, entry by entry, also
        # past entries that need no draw; seed 0 spans three of the
        # sampler's blocks, over few distinct (n, p) to keep the oracle fast
        for seed in range(3):
            rng = random.Random(seed)
            count = 70_000 if seed == 0 else 3_000
            trials = [rng.choice([0, 1, 2, 5, 17, 64, rng.randrange(1, 65)]) for _ in range(count)]
            p_choices = [0.0, 1.0, 0.5, 0.05, 0.9] + ([] if seed == 0 else [rng.random()])
            probs = [rng.choice(p_choices) for _ in range(count)]
            stream = RngStream(1000 + seed)
            draws = _binomial(trials, probs, stream)
            assert draws.tolist() == oracle_binomial_draws(trials, probs, stream.seed), seed

    def test_exact_past_the_single_steps(self):
        # standard deviation 35: some uniforms are still unspent after the
        # 64 single step pairs, on both sides, and end in the first chunk
        t, count = 5000, 300
        stream = RngStream(5000)
        draws = _binomial(np.full(count, float(t)), np.full(count, 0.5), stream)
        assert draws.tolist() == oracle_binomial_draws([t] * count, [0.5] * count, stream.seed)
        assert (draws > t // 2 + 64).sum() >= 3 and (draws < t // 2 - 64).sum() >= 3

    def test_chunks_repeat_the_single_steps(self, monkeypatch):
        # standard deviation 1,000: each entry walks many chunks, which the
        # 2^18-pmf cap holds at 65 step pairs while 2,000 entries are live
        t = np.array([4e6] * 1000 + [1e12] * 1000)
        p = np.array([0.5] * 1000 + [1e-6] * 1000)
        chunked = _binomial(t, p, RngStream(77))
        monkeypatch.setattr(sampling, "_SINGLE_PAIRS", 1 << 40)
        stepwise = _binomial(t, p, RngStream(77))
        assert chunked.tolist() == stepwise.tolist()
        assert np.abs(chunked - np.floor((t + 1) * p)).max() > 2000

    def test_unreachable_uniform_keeps_the_mode(self, monkeypatch):
        # at the largest uniform the rounded pmf sum often stops short of
        # it: the walk runs past 0 (small means) or past t (means near t)
        # into pmf 0, where the chunks must stay finite, and keeps the mode
        # as the single steps do
        small = np.geomspace(0.5, 60, 50)
        t = np.repeat([2.0**62, 1e6, 1000.0, 1000.0], 50)
        p = np.concatenate([small / 2.0**62, small / 1e6, small / 1000, 1 - small / 1000])
        u = np.full(len(t), 1.0 - 2.0**-53)
        chunked, stepwise = np.zeros(len(t)), np.zeros(len(t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sampling._draw_block(t, p, u.copy(), chunked)
        monkeypatch.setattr(sampling, "_SINGLE_PAIRS", 1 << 40)
        sampling._draw_block(t, p, u.copy(), stepwise)
        assert chunked.tolist() == stepwise.tolist()
        assert (chunked == np.floor((t + 1) * p)).sum() >= 10

    def test_binom_sample_is_one_edge_of_the_sampler(self):
        for n, p in [(10, 0.3), (64, 0.5), (1 << 80, 1e-24)]:
            stream = RngStream(n % 97)
            assert binom_sample(n, p, stream) == int(_binomial([n], [p], stream)[0])

    def test_huge_trial_counts_supported(self):
        # numpy's Generator.binomial takes int64 trials; the level trial
        # counts 2^j * w pass 2^63.  Mean 1.1 at each count.
        for t in (3 << 64, (1 << 63) + (1 << 20), 1 << 100):
            p = 1.1 / t

            def pmf(k: int) -> float:
                log_choose = sum(math.log((t - i) * p / (i + 1)) for i in range(k))
                return math.exp(log_choose + (t - k) * math.log1p(-p))

            draws = _binomial(np.full(100_000, float(t)), np.full(100_000, p), RngStream(t % 1009))
            assert abs(draws.mean() - 1.1) <= 3 * math.sqrt(1.1 / 100_000), t
            p_value = chi_square_p(tally(draws), pmf, range(int(draws.max()) + 1))
            assert p_value > 1e-3, f"chi-square p={p_value:.2e} for t={t}"

    def test_mean_whose_exp_underflows(self):
        # exp(-2000) underflows, so an inverse CDF walked up from 0 would
        # never start; the mode's log-pmf does not
        t, p = 4000, 0.5
        assert math.exp(-t * p) == 0.0
        draws = _binomial(np.full(100_000, float(t)), np.full(100_000, p), RngStream(4000))
        p_value = chi_square_p(tally(draws), lambda k: math.comb(t, k) / 2**t, range(t + 1))
        assert p_value > 1e-3, f"chi-square p={p_value:.2e}"


class TestCompressEdge:
    def test_p_one_is_identity(self):
        trials = np.array([1.0, 7.0, 2.0**40, 3.0 * 2.0**64])
        kept, weights = compress(trials, np.ones(4), RngStream(2))
        assert kept.tolist() == [0, 1, 2, 3]
        assert weights.tolist() == trials.tolist()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            compress(np.array([-1.0]), np.array([0.5]), RngStream(1))
        with pytest.raises(ValueError):
            compress(np.array([3.0]), np.array([1.5]), RngStream(1))

    def test_matches_one_draw_per_edge_in_order(self):
        trials = np.array([1, 12, 2.0**40, 3, 0, 7])
        probs = np.array([0.25, 0.2, 1e-11, 1.0, 0.5, 0.0])
        draws = _binomial(trials, probs, RngStream(13))
        kept, weights = compress(trials, probs, RngStream(13))
        assert kept.tolist() == np.flatnonzero(draws).tolist()
        assert weights.tolist() == (draws[kept] / probs[kept]).tolist()

    def test_unbiased_mean(self):
        # E[returned weight, absent = 0] = w within 3 standard errors
        w, p, trials = 12, 0.2, 100_000
        kept, weights = compress(np.full(trials, float(w)), np.full(trials, p), RngStream(99))
        values = np.zeros(trials)
        values[kept] = weights
        se = values.std(ddof=1) / math.sqrt(trials)
        assert abs(values.mean() - w) <= 3 * se

    def test_bernoulli_special_case(self):
        # w=1, p=0.25: present with probability 1/4 and weight 4
        trials = 100_000
        kept, weights = compress(np.ones(trials), np.full(trials, 0.25), RngStream(55))
        assert set(weights.tolist()) == {4.0}
        rate = len(kept) / trials
        se = math.sqrt(0.25 * 0.75 / trials)
        assert abs(rate - 0.25) <= 3 * se
