"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Criterion 4's decay-ratio gate is known to fail by construction:
the fixed-size family decays like (N-1)/N^2, so the N=10^4 : N=10^2 ratio
is 1.0100e-2, just above the 1e-2 gate. The test asserts the gate as
stated; see the repository notes for the analysis.
"""

import math
import time

import numpy as np

from spindeph import closedforms as cf
from spindeph import entanglement as ent
from spindeph import oracle, qubit, thermal
from spindeph.engine import (
    EnvPopulations,
    WitnessEvaluator,
    detect_episodes,
)
from spindeph.linalg import hermitian_eigenvalues
from spindeph.model import (
    EnsembleSpec,
    InfiniteRange,
    NearestNeighborRing1D,
    ensemble_from_model,
    torus_block_ensemble,
)

TWO_PI = 2.0 * np.pi


def announce(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}]: {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def random_spec(rng, n_total, n_system):
    j = rng.uniform(-1, 1, size=(n_total, n_total))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return EnsembleSpec(n_total=n_total, n_system=n_system, twice_spin=1,
                        couplings=j, fields=rng.uniform(-1, 1, size=n_total))


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_criterion_1_nearest_neighbor_closed_form():
    started = time.perf_counter()
    ts = np.linspace(0.0, TWO_PI, 1000)
    worst = 0.0
    for n_total in range(4, 9):
        for p in (1, 2):
            spec = ensemble_from_model(NearestNeighborRing1D(j=1.0), n_total, p)
            env = thermal.maximally_mixed(n_total - p, 1)
            log_det, _ = WitnessEvaluator(spec, env).series(ts)
            ref = cf.log_det_nn_1d(p, 1.0, ts)
            worst = max(worst, float(np.max(np.abs(log_det - ref))))
    elapsed = time.perf_counter() - started
    announce(1, "nn closed form", worst < 1e-12 and elapsed < 5.0,
             f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_thermal_witness_family():
    started = time.perf_counter()
    spec = ensemble_from_model(NearestNeighborRing1D(j=1.0), 10, 2, fields=1.0)

    ts = np.linspace(0.0, TWO_PI, 1000)
    beta0 = thermal.thermal_populations(spec, 0.0)
    log_det, _ = WitnessEvaluator(spec, beta0).series(ts)
    dev0 = float(np.max(np.abs(log_det - 16.0 * np.log(np.abs(np.cos(ts))))))

    period_ok = True
    episodes_ok = True
    for beta in (1.0, 3.0):
        pops = thermal.thermal_populations(spec, beta)
        series = detect_episodes(spec, pops, 0.0, 2 * TWO_PI, 2001)
        det = series.det
        period_dev = float(np.max(np.abs(det[:1001] - det[1000:])))
        period_ok = period_ok and period_dev < 1e-10
        first = [e for e in series.episodes if e[1] <= TWO_PI + 1e-6]
        second = [e for e in series.episodes if e[0] >= TWO_PI - 1e-6]
        episodes_ok = episodes_ok and len(first) >= 1 and len(second) >= 1
    elapsed = time.perf_counter() - started
    announce(2, "thermal witness family",
             dev0 < 1e-12 and period_ok and episodes_ok and elapsed < 30.0,
             f"beta=0 dev {dev0:.2e}, periodic={period_ok}, episodes={episodes_ok}, {elapsed:.1f}s")


def test_criterion_3_infinite_range_combinatorial_form():
    # grid chosen clear of cosine zeros: |A| stays large enough that the
    # extended-precision sums hold 1e-12 absolute accuracy in log space
    ts = np.linspace(0.02, 1.25, 50)
    worst = 0.0
    for n_total in range(3, 9):
        for p in range(1, min(3, n_total - 1) + 1):
            spec = ensemble_from_model(InfiniteRange(j=1.0), n_total, p)
            env = thermal.maximally_mixed(n_total - p, 1)
            log_det, _ = WitnessEvaluator(spec, env).series(ts)
            ref = cf.log_det_infinite_range(n_total, p, 1.0, ts)
            worst = max(worst, float(np.max(np.abs(log_det - ref))))
    chu_ok = all(
        cf.chu_vandermonde_exponent(r_n, q)
        == sum(math.comb(r_n, k) * math.comb(r_n, k - q) for k in range(q, r_n + 1))
        for r_n in range(1, 31)
        for q in range(r_n + 1)
    )
    announce(3, "infinite-range combinatorial form", worst < 1e-12 and chu_ok,
             f"max dev {worst:.2e}, chu-vandermonde exact={chu_ok}")


def test_criterion_4_thermodynamic_limits():
    fixed = [abs(cf.log_det_infinite_range(n, 1, 1.0, 1.0)) for n in (100, 1000, 10000)]
    decreasing = fixed[0] > fixed[1] > fixed[2]
    ratio = fixed[2] / fixed[0]
    ratio_ok = ratio < 1e-2  # known red: the true ratio is 1.0100e-2

    frac = [cf.log_det_infinite_range(n, n // 2, 1.0, 1.0) for n in (8, 12, 16, 20)]
    frac_ok = all(b < a for a, b in zip(frac, frac[1:]))

    exact = cf.log_det_infinite_range(20, 10, 1.0, 0.1)
    asym = cf.log_det_infinite_fraction_asymptotic(20, 0.5, 1.0, 0.1)
    asym_ok = abs(asym - exact) / abs(exact) < 0.10

    announce(4, "thermodynamic limits", decreasing and ratio_ok and frac_ok and asym_ok,
             f"ratio {ratio:.6e} (gate < 1e-2), fraction decreasing={frac_ok}, "
             f"asymptotic rel dev {abs(asym - exact) / abs(exact):.2e}")


def test_criterion_5_square_lattice_closed_form():
    # grids keep |cos| away from zero; the q=2 exponent of 1024 amplifies
    # any relative amplitude error a thousandfold in log space
    worst1 = worst2 = 0.0
    ts = np.linspace(0.0, TWO_PI, 1000)
    safe1 = ts[np.abs(np.cos(ts)) > 0.02]
    spec1 = torus_block_ensemble(side=3, block_side=1, j=1.0)
    env1 = thermal.maximally_mixed(8, 1)
    ld1, _ = WitnessEvaluator(spec1, env1).series(safe1)
    worst1 = float(np.max(np.abs(ld1 - 8.0 * np.log(np.abs(np.cos(safe1))))))

    safe2 = ts[np.abs(np.cos(ts)) > 0.2]
    spec2 = torus_block_ensemble(side=4, block_side=2, j=1.0)
    env2 = thermal.maximally_mixed(12, 1)
    ld2, _ = WitnessEvaluator(spec2, env2).series(safe2)
    worst2 = float(np.max(np.abs(ld2 - 1024.0 * np.log(np.abs(np.cos(safe2))))))

    announce(5, "2d closed form", worst1 < 1e-10 and worst2 < 1e-10,
             f"q=1 dev {worst1:.2e} (exponent 8), q=2 dev {worst2:.2e} (exponent 1024)")


def test_criterion_6_oracle_equivalence():
    started = time.perf_counter()
    report = oracle.run_verification(seed=2024, n_specs=50, time_points=20)
    elapsed = time.perf_counter() - started
    checks = report["checks"]
    state_dev = checks["reduced_state_max_abs_dev"]["value"]
    det_dev = checks["superoperator_det_max_rel_dev"]["value"]
    announce(6, "oracle equivalence",
             state_dev < 1e-12 and det_dev < 1e-10 and elapsed < 60.0,
             f"state dev {state_dev:.2e}, det rel dev {det_dev:.2e}, {elapsed:.1f}s")


def test_criterion_7_independence_invariants():
    rng = np.random.default_rng(77)
    ts = np.linspace(0.0, 5.0, 300)
    ok = True
    for _ in range(20):
        n_total = int(rng.integers(4, 8))
        p = int(rng.integers(1, 3))
        base = random_spec(rng, n_total, p)
        w = rng.dirichlet(np.ones(base.dim_env))
        env = EnvPopulations(n_sites=base.n_env, twice_spin=1, weights=w)
        ld0, dld0 = WitnessEvaluator(base, env).series(ts)

        # (a) random field change
        spec_h = EnsembleSpec(n_total=n_total, n_system=p, twice_spin=1,
                              couplings=base.couplings,
                              fields=rng.uniform(-5, 5, size=n_total))
        ld_h, dld_h = WitnessEvaluator(spec_h, env).series(ts)
        ok = ok and ld0.tobytes() == ld_h.tobytes() and dld0.tobytes() == dld_h.tobytes()

        # (b) random intra-system and intra-environment couplings
        j = np.array(base.couplings)
        sysb = rng.uniform(-2, 2, size=(p, p))
        j[:p, :p] = np.triu(sysb, 1) + np.triu(sysb, 1).T
        envb = rng.uniform(-2, 2, size=(n_total - p, n_total - p))
        j[p:, p:] = np.triu(envb, 1) + np.triu(envb, 1).T
        spec_j = EnsembleSpec(n_total=n_total, n_system=p, twice_spin=1,
                              couplings=j, fields=base.fields)
        ld_j, _ = WitnessEvaluator(spec_j, env).series(ts)
        ok = ok and ld0.tobytes() == ld_j.tobytes()

        # (c) environment coherences at fixed populations
        g = rng.normal(size=(base.dim_env,) * 2) + 1j * rng.normal(size=(base.dim_env,) * 2)
        rho_env = np.diag(w) + 0.1 * (g + g.conj().T)
        np.fill_diagonal(rho_env, w)
        pops = EnvPopulations(base.n_env, 1, weights=np.diag(rho_env).real)
        ld_c, _ = WitnessEvaluator(base, pops).series(ts)
        ok = ok and ld0.tobytes() == ld_c.tobytes()
    announce(7, "independence invariants", ok, "field/intra-coupling/coherence, 20 instances each")


def test_criterion_8_single_spin_measure_agreement():
    rng = np.random.default_rng(88)
    ts = np.linspace(0.0, 7.0, 400)
    agree = True
    worst = 0.0
    for _ in range(100):
        n_env = int(rng.integers(1, 8))
        j_row = rng.uniform(-2.0, 2.0, size=n_env)
        j = np.zeros((n_env + 1, n_env + 1))
        j[0, 1:] = j[1:, 0] = j_row
        spec = EnsembleSpec(n_total=n_env + 1, n_system=1, twice_spin=1, couplings=j, fields=0.0)
        ev = WitnessEvaluator(spec, thermal.maximally_mixed(n_env, 1))
        report = qubit.measures_agreement_report(ev, ts)
        agree = agree and report.agreement()
        a_state = qubit.QubitState(rho11=0.5, rho12=0.5)
        b_state = qubit.QubitState(rho11=0.5, rho12=-0.5)
        d_opt = qubit.blp_trace_distance(a_state, b_state, report.amplitude)
        worst = max(worst, float(np.max(np.abs(d_opt - np.abs(report.amplitude)))))
    announce(8, "p=1 measure agreement", agree and worst < 1e-12,
             f"flags agree={agree}, max |D_opt - |A|| = {worst:.2e}")


def test_criterion_9_negativity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(99)

    # diagonal environments stay separable
    diag_ok = True
    for _ in range(4):
        n_total = int(rng.integers(5, 8))
        p = int(rng.integers(1, 4))
        spec = random_spec(rng, n_total, p)
        rho_s = random_density(rng, spec.dim_system)
        w = rng.dirichlet(np.ones(spec.dim_env))
        rho_e = np.diag(w).astype(complex)
        out = ent.global_negativity_series(spec, rho_s, rho_e, np.linspace(0.0, 6.0, 12))
        diag_ok = diag_ok and bool(np.all(out.negativity < 1e-10))

    # product pair: sudden death interval then revival, size independent
    plus = np.full(2, 2**-0.5)
    psi = np.kron(plus, plus)
    rho_pp = np.outer(psi, psi).astype(complex)
    ts = np.linspace(0.0, TWO_PI, 400)
    curves = {}
    for n_total in (4, 6):
        spec = ensemble_from_model(NearestNeighborRing1D(j=1.0), n_total, 2, fields=0.0)
        env = thermal.maximally_mixed(n_total - 2, 1)
        ev = WitnessEvaluator(spec, env)
        dims = (2, 2)
        curves[n_total] = np.array(
            [ent.negativity(ev.reduced_state(rho_pp, t), dims) for t in ts]
        )
    size_dev = float(np.max(np.abs(curves[4] - curves[6])))

    vals = curves[4]
    # death-interval values sit at solver precision (~1e-16); 1e-12 keeps
    # nine orders of margin below the 1e-3 revival gate
    zero = vals <= 1e-12
    # longest zero run strictly inside the period
    best_len = 0
    best_end = 0
    run = 0
    for k in range(1, ts.size):
        if zero[k]:
            run += 1
            if run > best_len:
                best_len = run
                best_end = k
        else:
            run = 0
    width = best_len * (ts[1] - ts[0])
    revived = bool(np.any(vals[best_end + 1 :] > 1e-3))

    # entangled start: Bell pair
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    spec6 = ensemble_from_model(NearestNeighborRing1D(j=1.0), 6, 2, fields=0.0)
    env6 = thermal.maximally_mixed(4, 1)
    bell_start = max(ent.system_negativity_series(spec6, bell, env6, [0.0]).negativity[0], 0.0)

    # large pure-environment run: 200 grid points under the budget
    spec10 = ensemble_from_model(NearestNeighborRing1D(j=1.0), 10, 3, fields=0.0)
    d_s, d_e = spec10.dim_system, spec10.dim_env
    psi_s = np.full(d_s, d_s**-0.5, dtype=complex)
    psi_e = np.full(d_e, d_e**-0.5, dtype=complex)
    rho_s10 = np.outer(psi_s, psi_s)
    rho_e10 = np.outer(psi_e, psi_e)
    big_started = time.perf_counter()
    big = ent.global_negativity_series(
        spec10, rho_s10, rho_e10, np.linspace(0.0, TWO_PI, 200)
    ).negativity
    big_elapsed = time.perf_counter() - big_started
    big_ok = big_elapsed < 600.0 and bool(np.all(big[1:-1] > 0.0))

    ok = (
        diag_ok
        and size_dev < 1e-12
        and width > 0.05
        and revived
        and abs(bell_start - 0.5) < 1e-10
        and big_ok
    )
    announce(9, "negativity suite", ok,
             f"diag separable={diag_ok}, size dev {size_dev:.1e}, death width {width:.3f}, "
             f"revival={revived}, bell(0)={bell_start:.3f}, "
             f"large run {big_elapsed:.1f}s (total {time.perf_counter() - started:.1f}s)")


def test_criterion_10_state_sanity_everywhere():
    rng = np.random.default_rng(123)
    min_eig = np.inf
    trace_err = 0.0
    herm_err = 0.0

    def scan(spec, env, rho0, times):
        nonlocal min_eig, trace_err, herm_err
        ev = WitnessEvaluator(spec, env)
        for t in times:
            rho_t = ev.reduced_state(rho0, t)
            herm_err = max(herm_err, float(np.max(np.abs(rho_t - rho_t.conj().T))))
            trace_err = max(trace_err, abs(float(np.trace(rho_t).real) - 1.0))
            min_eig = min(min_eig, float(hermitian_eigenvalues(rho_t)[0]))

    # random ensembles
    for _ in range(20):
        n_total = int(rng.integers(3, 8))
        p = int(rng.integers(1, min(n_total, 4)))
        spec = random_spec(rng, n_total, p)
        w = rng.dirichlet(np.ones(spec.dim_env))
        env = EnvPopulations(n_sites=spec.n_env, twice_spin=1, weights=w)
        scan(spec, env, random_density(rng, spec.dim_system), rng.uniform(0, 6, size=10))

    # thermal suite states
    spec10 = ensemble_from_model(NearestNeighborRing1D(j=1.0), 10, 2, fields=1.0)
    for beta in (0.0, 1.0, 3.0):
        env = thermal.thermal_populations(spec10, beta)
        scan(spec10, env, random_density(rng, 4), np.linspace(0, TWO_PI, 15))

    ok = min_eig >= -1e-10 and trace_err < 1e-12 and herm_err < 1e-12
    announce(10, "reduced-state sanity", ok,
             f"min eigenvalue {min_eig:.2e}, trace err {trace_err:.2e}, herm err {herm_err:.1e}")


def test_criterion_11_non_markovianity_without_entanglement_at_paper_size():
    # The paper's last claim at N = 1000, p = 3, system in the uniform
    # superposition: a superposition environment and the maximally mixed
    # one have the same populations, so the same witness and episodes, but
    # only the first entangles with the system; a basis environment
    # neither entangles nor moves det M off 1.
    started = time.perf_counter()
    n_total, p = 1000, 3
    up = np.diag([1.0, 0.0]).astype(complex)
    site_states = {"superposition": np.full((2, 2), 0.5, dtype=complex),
                   "mixed": np.eye(2, dtype=complex) / 2, "basis": up}
    rho_s = np.full((p, 2, 2), 0.5, dtype=complex)
    ok, details = True, []
    # the infinite-range couplings are J/N: its episodes start near t = 524
    for model, t_stop in ((NearestNeighborRing1D(j=1.0), TWO_PI), (InfiniteRange(j=1.0), 1000 * np.pi)):
        spec = ensemble_from_model(model, n_total, p, fields=0.0)
        ts = np.linspace(0.0, t_stop, 200)
        witness, neg = {}, {}
        for name, site in site_states.items():
            rho_e = np.broadcast_to(site, (spec.n_env, 2, 2))
            env = EnvPopulations.product(1, [np.diag(s).real for s in rho_e])
            witness[name] = detect_episodes(spec, env, ts[0], ts[-1], ts.size)
            neg[name] = ent.global_negativity_series(spec, rho_s, rho_e, ts)
        mixed = detect_episodes(spec, thermal.maximally_mixed(spec.n_env, 1), ts[0], ts[-1], ts.size)
        shared = all(witness[name].log_det.tobytes() == mixed.log_det.tobytes()
                     and witness[name].episodes == mixed.episodes for name in ("superposition", "mixed"))
        ok = ok and shared and len(mixed.episodes) > 0
        ok = ok and neg["superposition"].path == "schmidt" and neg["superposition"].negativity.max() > 1e-2
        for name in ("mixed", "basis"):
            ok = ok and neg[name].path == "factor_spectra" and bool(np.all(neg[name].negativity == 0.0))
        ok = ok and bool(np.all(witness["basis"].det == 1.0)) and witness["basis"].episodes == []
        details.append(f"{type(model).__name__}: {len(mixed.episodes)} episodes, "
                       f"max negativity {neg['superposition'].negativity.max():.3g} (superposition)")
    announce(11, "non-Markovianity without entanglement, N=1000", ok,
             "; ".join(details) + f" ({time.perf_counter() - started:.1f}s)")
