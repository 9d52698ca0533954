import math

import numpy as np
import pytest

from spindeph import closedforms as cf
from spindeph import thermal
from spindeph.engine import WitnessEvaluator
from spindeph.model import (
    InfiniteRange,
    NearestNeighborRing1D,
    PowerLawRing1D,
    config_matrix,
    ensemble_from_model,
)


def test_multiplicity_examples():
    # p-spin configurations with k down spins (sum s_i = (p - 2k)/2): the
    # multiplicities behind the closed forms are binomial coefficients
    assert math.comb(2, 1) == 2
    assert math.comb(4, 2) == 6
    for p in range(1, 13):
        down = np.count_nonzero(config_matrix(p, 1) < 0, axis=1)
        assert np.bincount(down, minlength=p + 1).tolist() == [math.comb(p, k) for k in range(p + 1)]
    for p in range(1, 31):
        assert sum(math.comb(p, k) for k in range(p + 1)) == 2**p


def test_chu_vandermonde_identity_exact():
    assert cf.chu_vandermonde_exponent(2, 1) == 4
    assert cf.chu_vandermonde_exponent(3, 0) == 20
    for r_n in range(1, 31):
        for q in range(r_n + 1):
            brute = sum(math.comb(r_n, k) * math.comb(r_n, k - q) for k in range(q, r_n + 1))
            assert cf.chu_vandermonde_exponent(r_n, q) == brute


def test_nn_1d_values():
    assert cf.log_det_nn_1d(1, 1.0, np.pi / 3) == pytest.approx(math.log(1 / 16), abs=1e-14)
    assert cf.log_det_nn_1d(2, 1.0, 0.0) == 0.0
    # the divergence at odd multiples of pi/(2J) shows up as a deep dip at
    # the nearest representable float (cos(float(pi/2)) ~ 6e-17, not 0)
    assert cf.log_det_nn_1d(1, 1.0, np.pi / 2) < -140.0


def test_nn_1d_matches_engine_p2():
    spec = ensemble_from_model(NearestNeighborRing1D(j=1.0), 6, 2)
    env = thermal.maximally_mixed(4, 1)
    ts = np.linspace(0, 2 * np.pi, 500)
    ld, _ = WitnessEvaluator(spec, env).series(ts)
    assert np.max(np.abs(ld - cf.log_det_nn_1d(2, 1.0, ts))) < 1e-12


def test_nn_1d_independent_of_ring_size():
    ts = np.linspace(0.05, 6.0, 80)
    ref = cf.log_det_nn_1d(2, 1.0, ts)
    for n_total in (4, 5, 6, 7, 8):
        spec = ensemble_from_model(NearestNeighborRing1D(j=1.0), n_total, 2)
        env = thermal.maximally_mixed(n_total - 2, 1)
        ld, _ = WitnessEvaluator(spec, env).series(ts)
        assert np.max(np.abs(ld - ref)) < 1e-12


def test_sign_independence():
    ts = np.linspace(0, 5, 60)
    assert np.array_equal(cf.log_det_nn_1d(2, -1.3, ts), cf.log_det_nn_1d(2, 1.3, ts))
    assert np.array_equal(
        cf.log_det_infinite_range(8, 2, -0.9, ts), cf.log_det_infinite_range(8, 2, 0.9, ts)
    )
    assert np.array_equal(cf.log_det_2d_nn(2, -1.0, ts), cf.log_det_2d_nn(2, 1.0, ts))


def test_infinite_range_small_cases():
    ts = np.linspace(0, 4, 50)
    # N=2, p=1: two cross pairs with unit exponent
    assert np.allclose(
        cf.log_det_infinite_range(2, 1, 1.0, ts),
        2 * np.log(np.abs(np.cos(ts / 2))),
        atol=1e-14,
    )
    assert cf.log_det_infinite_range(5, 2, 1.0, 0.0) == 0.0


def test_infinite_range_double_product_reference():
    # grouped-by-difference evaluation must equal the literal double product
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        p = int(rng.integers(1, n))
        j = float(rng.uniform(0.2, 2.0))
        t = float(rng.uniform(0.0, 3.0))
        brute = 0.0
        for jj in range(p + 1):
            for kk in range(p + 1):
                mult = (n - p) * math.comb(p, kk) * math.comb(p, jj)
                brute += mult * np.log(np.abs(np.cos(j * t * (jj - kk) / n)))
        assert cf.log_det_infinite_range(n, p, j, t) == pytest.approx(brute, rel=1e-13, abs=1e-13)


def test_infinite_range_exponent_beyond_double_range():
    # at N = 1020, p = 510 the exponents 2(N-p) C(2p, p-q) exceed 2^1024 while
    # log det (about -7e305) is finite; reference: each term in the log domain
    n, p = 1020, 510
    assert (2 * (n - p) * math.comb(2 * p, p - 1)).bit_length() > 1024
    for jt in (0.5, 1.0, 1.4):
        terms = []
        for q in range(1, p + 1):
            log_cos = math.log1p(-2.0 * math.sin(0.5 * jt * q / n) ** 2)
            mult = 2 * (n - p) * math.comb(2 * p, p - q)
            terms.append(-math.exp(math.log(mult) + math.log(-log_cos)))
        value = cf.log_det_infinite_range(n, p, 1.0, jt)
        assert np.isfinite(value)
        assert value == pytest.approx(math.fsum(terms), rel=1e-12)


def test_infinite_range_equals_the_termwise_sum_bitwise():
    # one exponent C(2p, p-q) and one log|cos| per q, summed left to right:
    # the thermo-limit CSVs do not change with how the terms are computed
    def termwise(n, p, j, t):
        out = np.zeros(np.shape(t))
        for q in range(1, p + 1):
            mult = 2 * (n - p) * math.comb(2 * p, p - q)
            out = out + cf._int_times_log(mult, cf._logabs_cos(j * np.asarray(t) * q / n))
        return out

    for n, p, j, ts in ((2, 1, 1.0, np.linspace(0.0, 40.0, 33)), (8, 3, -0.7, np.linspace(0.0, 40.0, 33)),
                        (20, 10, 1.3, np.linspace(0.0, 40.0, 33)), (1020, 510, 1.0, np.linspace(0.0, 1.4, 8))):
        assert np.asarray(cf.log_det_infinite_range(n, p, j, ts)).tobytes() == termwise(n, p, j, ts).tobytes()
        assert cf.log_det_infinite_range(n, p, j, 1.0) == float(termwise(n, p, j, 1.0))


def test_infinite_range_matches_engine():
    ts = np.linspace(0.02, 1.25, 40)
    for n, p in ((4, 1), (6, 2), (8, 2), (8, 3)):
        spec = ensemble_from_model(InfiniteRange(j=1.0), n, p)
        env = thermal.maximally_mixed(n - p, 1)
        ld, _ = WitnessEvaluator(spec, env).series(ts)
        assert np.max(np.abs(ld - cf.log_det_infinite_range(n, p, 1.0, ts))) < 1e-12


def test_infinite_range_periodicity():
    # period 2 pi N / J
    n, p, j = 6, 3, 1.0
    for t in (0.3, 1.1, 2.9):
        a = cf.log_det_infinite_range(n, p, j, t)
        b = cf.log_det_infinite_range(n, p, j, t + 2 * np.pi * n / j)
        assert a == pytest.approx(b, abs=1e-9)


def test_fraction_asymptotic_hand_value():
    # r=1/2, N=4: sum = C(4,1) + 4 C(4,0) = 8, so log det ~ -(J t)^2
    t = 0.37
    assert cf.log_det_infinite_fraction_asymptotic(4, 0.5, 1.0, t) == pytest.approx(-(t**2), abs=1e-15)
    assert cf.log_det_infinite_fraction_asymptotic(8, 0.5, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        cf.log_det_infinite_fraction_asymptotic(5, 0.5, 1.0, 0.1)


def test_fraction_asymptotic_close_to_exact():
    exact = cf.log_det_infinite_range(20, 10, 1.0, 0.1)
    asym = cf.log_det_infinite_fraction_asymptotic(20, 0.5, 1.0, 0.1)
    assert abs(asym - exact) / abs(exact) < 0.10


def test_2d_values_and_exponents():
    ts = np.linspace(0.05, 1.4, 30)
    assert np.allclose(cf.log_det_2d_nn(1, 1.0, ts), 8 * np.log(np.abs(np.cos(ts))), atol=0)
    assert cf.log_det_2d_nn(2, 1.0, 0.0) == 0.0
    # q=2 exponent is 2^10
    assert cf.log_det_2d_nn(2, 1.0, 0.3) == pytest.approx(1024 * np.log(np.cos(0.3)), abs=1e-9)


def power_law_log_det(n, p, alpha, j, ts, kac_normalization=False):
    """The engine's log det for a block of p spins on a power-law ring, mixed environment."""
    spec = ensemble_from_model(PowerLawRing1D(j=j, alpha=alpha, kac_normalization=kac_normalization),
                               n, p)
    return WitnessEvaluator(spec, thermal.maximally_mixed(n - p, 1)).series(ts)[0]


def test_power_law_large_alpha_approaches_nn():
    ts = np.linspace(0.05, 2.8, 40)
    pl = power_law_log_det(6, 1, 50.0, 1.0, ts)
    nn = cf.log_det_nn_1d(1, 1.0, ts)
    assert np.max(np.abs(pl - nn)) < 1e-10


def test_power_law_alpha_zero_kac_is_infinite_range():
    # alpha=0 with unit-mean-field normalization gives uniform entries
    # J/(N-1), i.e. the all-to-all structure with J' = J N/(N-1)
    n, p = 6, 2
    ts = np.linspace(0.05, 1.2, 25)
    pl = power_law_log_det(n, p, 0.0, 1.0, ts, kac_normalization=True)
    ref = cf.log_det_infinite_range(n, p, n / (n - 1), ts)
    assert np.max(np.abs(pl - ref)) < 1e-11


def test_power_law_matches_engine():
    # the engine against a 50-digit sum over unordered configuration pairs
    # and environment sites of 2 log|cos(nu_j t)|, nu = (s - s') J_cross / 2,
    # from the same float couplings and times
    import mpmath

    ts = np.array([0.05, 0.4, 0.9, 1.6])
    spec = ensemble_from_model(PowerLawRing1D(j=0.8, alpha=3.0), 7, 2)
    j_cross = spec.cross_couplings
    v = config_matrix(2, 1)
    with mpmath.workdps(50):
        nus = [[sum(mpmath.mpf(int(v[a, i] - v[b, i])) / 2 * mpmath.mpf(j_cross[i, k])
                    for i in range(2)) for k in range(j_cross.shape[1])]
               for a in range(len(v)) for b in range(a + 1, len(v))]
        ref = np.array([float(sum(2 * mpmath.log(abs(mpmath.cos(nu * mpmath.mpf(t))))
                                  for row in nus for nu in row)) for t in ts])
    ld = power_law_log_det(7, 2, 3.0, 0.8, ts)
    assert np.max(np.abs(ld - ref) / np.abs(ref)) < 4 * np.finfo(float).eps  # measured 0.85 eps


def test_fixed_p_limit_decay():
    # |log det| <= C/N and decreasing toward zero with N at fixed p, Jt=1
    vals = [abs(cf.log_det_infinite_range(n, 1, 1.0, 1.0)) for n in (100, 1000, 10000)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-4


def test_fraction_limit_divergence():
    vals = [cf.log_det_infinite_range(n, n // 2, 1.0, 1.0) for n in (8, 12, 16, 20)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
