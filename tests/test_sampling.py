import math

import pytest

from cutsparse.sampling import RngStream, binom_sample, compress

from reference import binomial_pmf


class CountingStream:
    """RngStream stand-in that counts uniform draws (= loop iterations)."""

    def __init__(self, seed: int):
        self._inner = RngStream(seed)
        self.draws = 0

    def uniform_open(self) -> float:
        self.draws += 1
        return self._inner.uniform_open()


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
        rng = RngStream(1)
        for n in (0, 1, 5, 1000, 1 << 70):
            assert binom_sample(n, 1.0, rng) == n

    def test_zero_trials(self):
        rng = RngStream(1)
        assert binom_sample(0, 0.5, rng) == 0
        assert binom_sample(0, 0.0, rng) == 0

    def test_p_zero(self):
        assert binom_sample(100, 0.0, RngStream(1)) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binom_sample(-1, 0.5, RngStream(1))
        with pytest.raises(ValueError):
            binom_sample(1, 1.5, RngStream(1))

    def test_huge_trial_counts_supported(self):
        # the skip chain never materializes n items
        n = (1 << 80) + 3
        k = binom_sample(n, 1e-20, RngStream(3))
        assert 0 <= k <= n

    def test_loop_iterations_equal_k_plus_one(self):
        rng = CountingStream(17)
        for n, p in [(10, 0.3), (50, 0.07), (5, 0.9), (64, 0.5)]:
            for _ in range(200):
                rng.draws = 0
                k = binom_sample(n, p, rng)
                assert rng.draws == k + 1

    @pytest.mark.parametrize("n,p", [(10, 0.3), (50, 0.07), (5, 0.9)])
    def test_empirical_pmf_matches_exact(self, n, p):
        from scipy.stats import chi2

        draws = 100_000
        rng = RngStream(1000 + n)
        counts = [0] * (n + 1)
        for _ in range(draws):
            counts[binom_sample(n, p, rng)] += 1
        expected = [draws * binomial_pmf(n, p, k) for k in range(n + 1)]
        # fold the sparse tail into the last meaningful bin
        obs, exp = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(counts, expected):
            acc_o += o
            acc_e += e
            if acc_e >= 5.0:
                obs.append(acc_o)
                exp.append(acc_e)
                acc_o = acc_e = 0.0
        obs[-1] += acc_o
        exp[-1] += acc_e
        stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
        p_value = chi2.sf(stat, df=len(obs) - 1)
        assert p_value > 1e-3, f"chi-square p={p_value:.2e} for n={n}, p={p}"


class TestCompressEdge:
    def test_p_one_is_identity(self):
        rng = RngStream(2)
        for w in (1, 7, 1 << 40):
            assert compress([5], [w], [1.0], rng) == ([5], [w])

    def test_rejects_bad_arguments(self):
        # the per-edge draw's own checks: trials >= 0 and p in [0, 1]
        with pytest.raises(ValueError):
            compress([0], [-1], [0.5], RngStream(1))
        with pytest.raises(ValueError):
            compress([0], [3], [1.5], RngStream(1))

    def test_matches_one_draw_per_edge_in_order(self):
        trials = [1, 12, 1 << 40, 3, 0, 7]
        probs = [0.25, 0.2, 1e-11, 1.0, 0.5, 0.0]
        rng = RngStream(13)
        expected = [(e, r / p) for e, (t, p) in enumerate(zip(trials, probs))
                    if (r := binom_sample(t, p, rng)) > 0]
        kept, weights = compress(range(6), trials, probs, RngStream(13))
        assert list(zip(kept, weights)) == expected

    def test_unbiased_mean(self):
        # E[returned weight, absent = 0] = w within 3 standard errors
        w, p, trials = 12, 0.2, 100_000
        kept, weights = compress(range(trials), [w] * trials, [p] * trials, RngStream(99))
        values = [0.0] * trials
        for e, x in zip(kept, weights):
            values[e] = x
        mean = sum(values) / trials
        var = sum((x - mean) ** 2 for x in values) / (trials - 1)
        se = math.sqrt(var / trials)
        assert abs(mean - w) <= 3 * se

    def test_bernoulli_special_case(self):
        # w=1, p=0.25: present with probability 1/4 and weight 4
        trials = 100_000
        kept, weights = compress(range(trials), [1] * trials, [0.25] * trials, RngStream(55))
        assert set(weights) == {4.0}
        rate = len(kept) / trials
        se = math.sqrt(0.25 * 0.75 / trials)
        assert abs(rate - 0.25) <= 3 * se
