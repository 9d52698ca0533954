"""Witness accuracy against mpmath references.

The references are built from the same float inputs as the engine (the
pair frequencies nu and the environment's block populations), so they
measure the engine's evaluation alone, not the rounding of its inputs.
log det is held to ulps of itself; the derivative, a sum of terms of both
signs, to eps times the sum of its terms' magnitudes. Every row is
evaluated in double: the pairwise form for rows of at most
engine.PAIRWISE_MAX frequencies (nearest-neighbour Gibbs blocks, spin-1
rings) and the wide form beyond (flat Gibbs blocks on random couplings),
whose log det is held to an absolute bound, since next to zeros of A its
ulps are out of reach in double. No source file mentions longdouble, so
the bounds hold on every platform.
"""

import json
from importlib import resources
from pathlib import Path

import mpmath
import numpy as np
import pytest

from spindeph import engine, model, thermal
from spindeph.engine import EnvPopulations, WitnessEvaluator
from spindeph.model import EnsembleSpec, SpinConfig, config_matrix

EPS = np.finfo(float).eps


def seed5_spec():
    """Random symmetric normal couplings, N = 11, p = 3: no closed form, 56 zeros of A in (0, 3]."""
    rng = np.random.default_rng(5)
    j = rng.normal(size=(11, 11))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return EnsembleSpec(n_total=11, n_system=3, twice_spin=1, couplings=j, fields=np.zeros(11))


def pair_frequencies(spec):
    """nu = (s_a - s_b) J_cross / 2 of every pair a < b, rounded as the engine rounds it."""
    cfg = config_matrix(spec.n_system, spec.twice_spin).astype(float)
    a, b = np.triu_indices(len(cfg), k=1)
    return 0.5 * ((cfg[a] - cfg[b]) @ spec.cross_couplings)


def mixed_reference(spec, times):
    """(log det, derivative, sum of |derivative terms|) of the mixed spin-1/2 environment.

    Each pair contributes |prod_j cos(nu_j t)|^2; equal |nu| are counted once.
    """
    nu = np.abs(pair_frequencies(spec))
    values, counts = np.unique(nu[nu > 0.0], return_counts=True)
    out = []
    with mpmath.workdps(40):
        terms = [(mpmath.mpf(float(v)), int(k)) for v, k in zip(values, counts)]
        for t in times:
            t = mpmath.mpf(float(t))
            prod, deriv, scale = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
            for v, k in terms:
                c, s = mpmath.cos_sin(v * t)
                prod *= c ** (2 * k)
                term = 2 * k * v * s / c
                deriv -= term
                scale += abs(term)
            out.append((mpmath.log(prod), deriv, scale))
    return out, values


def product_reference(spec, marginals, times):
    """The same for independent spin-1/2 sites of populations (w+, w-), A_j = w+ e^{ix} + w- e^{-ix}."""
    out = []
    with mpmath.workdps(60):  # |A|^2 - 1 ~ 1e-30 where sin x ~ 1e-15 still keeps 30 digits
        rows = [(mpmath.mpf(float(v)), mpmath.mpf(float(w[0])), mpmath.mpf(float(w[1])))
                for pair in pair_frequencies(spec) for v, w in zip(pair, marginals) if v != 0.0]
        for t in times:
            t = mpmath.mpf(float(t))
            log_det, deriv, log_scale, scale = (mpmath.mpf(0) for _ in range(4))
            for v, w_plus, w_minus in rows:
                e = mpmath.expj(v * t)
                a = w_plus * e + w_minus / e + (1 - w_plus - w_minus)
                da = 1j * v * (w_plus * e - w_minus / e)
                mod2 = abs(a) ** 2
                term = 2 * mpmath.re(mpmath.conj(a) * da) / mod2
                log_det += mpmath.log(mod2)
                log_scale += abs(mpmath.log(mod2))
                deriv += term
                scale += abs(term)
            out.append((log_det, deriv, log_scale, scale))
    return out


def ulps(value, exact):
    """|value - exact| in units of the double spacing at exact."""
    return float(abs(mpmath.mpf(float(value)) - exact) / mpmath.mpf(float(np.spacing(abs(float(exact))))))


def scaled_error(value, exact, scale):
    """|value - exact| / (eps scale): the error in eps of the terms' magnitudes."""
    return float(abs(mpmath.mpf(float(value)) - exact) / (scale * EPS))


@pytest.fixture(scope="module")
def seed5():
    spec = seed5_spec()
    return spec, WitnessEvaluator(spec, thermal.maximally_mixed(8, 1))


def test_seed5_grid_within_ulps(seed5):
    spec, ev = seed5
    times = np.linspace(0.0, 3.0, 801)[1:]
    log_det, dlog_det = ev.series(times)
    reference, _ = mixed_reference(spec, times)
    assert max(ulps(x, r[0]) for x, r in zip(log_det, reference)) <= 2.0
    assert max(scaled_error(d, r[1], r[2]) for d, r in zip(dlog_det, reference)) <= 3.0


def test_seed5_next_to_zeros_of_A(seed5):
    # 1e-9 to 1e-5 from a zero of A, log|A| is large and its derivative
    # huge; the phase t nu carried exactly keeps both to rounding
    spec, ev = seed5
    _, values = mixed_reference(spec, [])
    zeros = np.concatenate([(np.arange(8) + 0.5) * np.pi / v for v in values])
    zeros = np.unique(zeros[(zeros > 1e-3) & (zeros < 3.0)])
    assert zeros.size >= 50
    times = (zeros[:, None] + np.array([-1e-5, -1e-7, -1e-9, 1e-9, 1e-7, 1e-5])).ravel()
    log_det, dlog_det = ev.series(times)
    reference, _ = mixed_reference(spec, times)
    assert max(ulps(x, r[0]) for x, r in zip(log_det, reference)) <= 2.0
    assert max(scaled_error(d, r[1], r[2]) for d, r in zip(dlog_det, reference)) <= 3.0


def test_seed5_values_do_not_depend_on_the_batch(seed5):
    # 104 two-level rows: the row sum takes the same order for one time
    # as for a block of times
    _, ev = seed5
    times = np.linspace(0.0, 3.0, 97)
    log_det, dlog_det = ev.series(times)
    single = [ev.series([t]) for t in times]
    assert log_det.tobytes() == np.concatenate([s[0] for s in single]).tobytes()
    assert dlog_det.tobytes() == np.concatenate([s[1] for s in single]).tobytes()


def test_magnetized_sites_match_mpmath():
    # w+ != w-: A = cos x + i m sin x never vanishes and |A|^2 - 1 =
    # -4 w+ w- sin^2 x carries one more rounding than the mixed case
    rng = np.random.default_rng(11)
    j = rng.normal(size=(4, 4))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    spec = EnsembleSpec(n_total=4, n_system=2, twice_spin=1, couplings=j, fields=np.zeros(4))
    marginals = [np.array([0.8, 0.2]), np.array([0.35, 0.65])]
    ev = WitnessEvaluator(spec, EnvPopulations.product(1, marginals))
    times = np.linspace(0.0, 6.0, 241)
    log_det, dlog_det = ev.series(times)
    reference = product_reference(spec, marginals, times)
    assert log_det[0] == 0.0 and dlog_det[0] == 0.0
    assert max(scaled_error(x, r[0], r[2]) for x, r in zip(log_det[1:], reference[1:])) <= 3.0
    assert max(scaled_error(d, r[1], r[3]) for d, r in zip(dlog_det[1:], reference[1:])) <= 3.0


def test_thermal_single_coupled_site_is_magnetized():
    # a Gibbs block with one coupled site is a magnetized two-level row
    spec = model.ensemble_from_model(model.NearestNeighborRing1D(j=1.0), 3, 2, fields=0.7)
    gibbs = thermal.thermal_populations(spec, 1.3).populations
    (block,) = gibbs.blocks
    ev = WitnessEvaluator(spec, gibbs)
    times = np.linspace(0.0, 6.0, 121)[1:]
    log_det, dlog_det = ev.series(times)
    reference = product_reference(spec, [block.weights], times)
    assert max(scaled_error(x, r[0], r[2]) for x, r in zip(log_det, reference)) <= 3.0
    assert max(scaled_error(d, r[1], r[3]) for d, r in zip(dlog_det, reference)) <= 3.0


def test_basis_and_ground_state_environments_are_exactly_markovian():
    # a point mass is a pure phase: log det and its derivative are +0.0
    doc = json.loads(resources.files("spindeph").joinpath("presets", "thermal_ring10.json").read_text())
    ring10 = model.ensemble_from_dict(doc["ensemble"])
    ring6 = model.ensemble_from_model(model.NearestNeighborRing1D(j=1.0), 6, 2, fields=0.4)
    cases = [
        (ring6, thermal.basis_state(SpinConfig((1, -1, 1, -1)), 1)),
        (ring10, thermal.ground_state_populations(ring10)),
        (seed5_spec(), thermal.basis_state(SpinConfig((1, 1, -1, 1, -1, -1, 1, 1)), 1)),
    ]
    times = np.linspace(0.0, 9.0, 301)
    zeros = np.zeros(times.size).tobytes()
    for spec, env in cases:
        log_det, dlog_det = WitnessEvaluator(spec, env).series(times)
        assert log_det.tobytes() == zeros and dlog_det.tobytes() == zeros


def gibbs_reference(spec, env, times, dps=80):
    """(log det, derivative, sum of |derivative terms|) for any environment, in mpmath.

    Each block's populations are marginalized exactly onto its coupled
    sites; a row is A = sum_u w_u e^{i t u . nu} / sum_u w_u over the
    populated configurations u, with u . nu exact from the float nu, and
    pairs of equal nu are counted once. 80 digits keep 1 - |A|^2 ~ 1e-33
    to 40 digits.
    """
    coupled = set(np.flatnonzero(np.any(spec.cross_couplings != 0.0, axis=0)).tolist())
    classes = {}
    for nu in pair_frequencies(spec):
        key = tuple(float(x) for x in nu)
        classes[key] = classes.get(key, 0) + 1
    with mpmath.workdps(dps):
        blocks = []
        for block in env.blocks:
            keep = [k for k, site in enumerate(block.sites) if site in coupled]
            marginal = {}
            for cfg, w in zip(config_matrix(len(block.sites), spec.twice_spin), block.weights):
                key = tuple(int(cfg[k]) for k in keep)
                marginal[key] = marginal.get(key, 0) + mpmath.mpf(float(w))
            sites = [block.sites[k] for k in keep]
            blocks.append((sites, [(u, w) for u, w in marginal.items() if w != 0]))
        rows = []  # (multiplicity, [(omega, weight)], weight total) per class and block
        for key, mult in classes.items():
            nu = [mpmath.mpf(x) for x in key]
            for sites, entries in blocks:
                if len(entries) > 1:
                    spectrum = [(mpmath.fsum(k * nu[s] for k, s in zip(u, sites)), w) for u, w in entries]
                    rows.append((mult, spectrum, mpmath.fsum(w for _, w in entries)))
        out = []
        for t in times:
            t = mpmath.mpf(float(t))
            log_det, deriv, scale = mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)
            for mult, spectrum, total in rows:
                a, da = mpmath.mpc(0), mpmath.mpc(0)
                for omega, w in spectrum:
                    e = w * mpmath.expj(omega * t)
                    a += e
                    da += 1j * omega * e
                mod2 = abs(a / total) ** 2
                term = 2 * mult * mpmath.re(mpmath.conj(a) * da) / abs(a) ** 2
                log_det += mult * mpmath.log(mod2)
                deriv += term
                scale += abs(term)
            out.append((log_det, deriv, scale))
    return out


def ring14_spec():
    return model.ensemble_from_model(model.NearestNeighborRing1D(j=1.0), 14, 5, fields=1.0)


def ring10_spec():
    doc = json.loads(resources.files("spindeph").joinpath("presets", "thermal_ring10.json").read_text())
    return model.ensemble_from_dict(doc["ensemble"])


def spin1_spec():
    return model.ensemble_from_model(model.NearestNeighborRing1D(j=1.0), 6, 2, twice_spin=2, fields=0.5)


@pytest.mark.parametrize("make_spec, beta", [
    (ring14_spec, 1.0), (ring14_spec, 3.0),
    (ring10_spec, 0.3), (ring10_spec, 1.0), (ring10_spec, 3.0),
    (spin1_spec, 0.5), (spin1_spec, 1.0),
])
def test_nearest_neighbor_gibbs_rows_within_ulps(make_spec, beta):
    # Gibbs blocks of two coupled sites (3 merged frequencies at spin 1/2,
    # 5 at spin 1) take the pairwise form: log det to ulps also where it is
    # ~1e-30, at t = pi and 2 pi, where all phases realign
    spec = make_spec()
    env = thermal.thermal_populations(spec, beta).populations
    ev = WitnessEvaluator(spec, env)
    assert max(rows.rate.shape[0] for rows in ev._rows) > 1
    times = np.linspace(0.0, 2.0 * np.pi, 37)[1:]
    log_det, dlog_det = ev.series(times)
    reference = gibbs_reference(spec, env, times)
    assert max(ulps(x, r[0]) for x, r in zip(log_det, reference)) <= 16.0
    assert max(scaled_error(d, r[1], r[2]) for d, r in zip(dlog_det, reference)) <= 32.0


def test_seed5_gibbs_wide_rows_within_absolute_bound():
    # 13 rows of 256 frequencies take the wide form; next to the zeros of A
    # log|A| is large and only an absolute bound is in reach. Measured:
    # 9.1e-14 for log det and 1.9e-11 for the derivative
    spec = seed5_spec()
    env = thermal.thermal_populations(spec, 1.0).populations
    ev = WitnessEvaluator(spec, env)
    assert [rows.dc is not None for rows in ev._rows] == [True]
    times = np.linspace(0.0, 3.0, 41)[1:]
    log_det, dlog_det = ev.series(times)
    reference = gibbs_reference(spec, env, times, dps=40)
    assert max(float(abs(x - r[0])) for x, r in zip(log_det, reference)) <= 2e-13
    assert max(float(abs(d - r[1])) for d, r in zip(dlog_det, reference)) <= 4e-11


def test_gibbs_reference_matches_the_product_reference():
    # the two references agree where both apply: magnetized product sites
    rng = np.random.default_rng(11)
    j = rng.normal(size=(4, 4))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    spec = EnsembleSpec(n_total=4, n_system=2, twice_spin=1, couplings=j, fields=np.zeros(4))
    marginals = [np.array([0.75, 0.25]), np.array([0.375, 0.625])]  # sums exactly 1
    times = np.linspace(0.1, 6.0, 7)
    product = product_reference(spec, marginals, times)
    gibbs = gibbs_reference(spec, EnvPopulations.product(1, marginals), times)
    for p, g in zip(product, gibbs):
        assert abs(p[0] - g[0]) < 1e-50 and abs(p[1] - g[1]) < 1e-50


def test_no_source_file_mentions_longdouble():
    sources = sorted(Path(engine.__file__).parent.rglob("*.py"))
    assert len(sources) > 5
    assert [p.name for p in sources if "longdouble" in p.read_text()] == []
