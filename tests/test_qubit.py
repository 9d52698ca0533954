import numpy as np
import pytest

from spindeph import qubit, thermal
from spindeph.engine import WitnessEvaluator
from spindeph.linalg import hermitian_eigenvalues
from spindeph.model import EnsembleSpec


def cross_row_spec(j_row, h1=0.0):
    """Single-spin system coupled to len(j_row) environment sites."""
    n = len(j_row) + 1
    j = np.zeros((n, n))
    j[0, 1:] = j_row
    j[1:, 0] = j_row
    fields = np.zeros(n)
    fields[0] = h1
    return EnsembleSpec(n_total=n, n_system=1, twice_spin=1, couplings=j, fields=fields)


def report_of(j_row, t):
    """The measures report of one spin-1/2 in a maximally mixed environment."""
    env = thermal.maximally_mixed(len(j_row), 1)
    return qubit.measures_agreement_report(WitnessEvaluator(cross_row_spec(j_row), env),
                                           np.atleast_1d(t))


def cosine_product(j_row, t):
    """A(t) = prod_j cos(J_j t), the mixed environment's amplitude, in plain double."""
    return np.cos(np.multiply.outer(t, j_row)).prod(axis=-1)


def test_amplitude_basics():
    assert report_of([0.7, 1.3], 0.0).amplitude[0] == 1.0
    t = 0.83
    assert report_of([0.9], t).amplitude[0] == pytest.approx(np.cos(0.9 * t), abs=0)
    ts = np.linspace(0, 9, 200)
    report = report_of([0.5, 1.1, 0.3], ts)
    assert not np.iscomplexobj(report.amplitude)
    assert np.all(np.abs(report.amplitude) <= 1.0)


def test_amplitude_matches_engine_factor():
    rng = np.random.default_rng(12)
    for n_env in (2, 4, 7):
        j_row = rng.uniform(-1.5, 1.5, size=n_env)
        for t in (0.4, 1.7, 3.9):
            assert report_of(j_row, t).amplitude[0] == pytest.approx(
                cosine_product(j_row, t), abs=1e-12
            )


def test_amplitude_derivative_exact():
    # A' = A d / 2, d = d/dt log|A|^2, against a central difference of A
    rng = np.random.default_rng(23)
    j_row = rng.uniform(-2, 2, size=5)
    h = 1e-5
    for t in (0.3, 1.1, 2.7):
        near = report_of(j_row, [t - h, t, t + h])
        fd = (near.amplitude[2] - near.amplitude[0]) / (2 * h)
        assert near.amplitude[1] * near.dlog_det[1] / 2 == pytest.approx(fd, abs=1e-9)


def evolved(state, h1, j_row, t):
    """The engine's reduced state of one spin-1/2 in a maximally mixed environment."""
    env = thermal.maximally_mixed(len(j_row), 1)
    return WitnessEvaluator(cross_row_spec(j_row, h1=h1), env).reduced_state(state.matrix, t)


def test_qubit_state_evolution():
    rho0 = qubit.QubitState(rho11=0.7, rho12=0.1 - 0.2j)
    out = evolved(rho0, 0.5, [1.0], 1.2)
    assert out[0, 0] == rho0.rho11 and out[1, 1] == pytest.approx(rho0.rho22, abs=1e-16)
    assert out[0, 1] == pytest.approx(rho0.rho12 * np.cos(1.2) * np.exp(-0.6j))
    assert out[1, 0] == np.conj(out[0, 1])
    # full dephasing instant for a single coupling
    gone = evolved(rho0, 0.0, [1.0], np.pi / 2)
    assert abs(gone[0, 1]) < 1e-16
    # no coherence: stationary forever
    diag = qubit.QubitState(rho11=0.3, rho12=0.0)
    assert evolved(diag, 1.0, [0.7, 0.2], 2.2) == pytest.approx(diag.matrix)


def test_qubit_state_matches_engine():
    # rho12 -> rho12 A(t) exp(-i h1 t), A the amplitude of the measures report
    rng = np.random.default_rng(31)
    j_row = rng.uniform(-1, 1, size=4)
    h1 = 0.9
    rho0 = qubit.QubitState(rho11=0.62, rho12=0.21 + 0.13j)
    for t in (0.5, 2.9):
        full = evolved(rho0, h1, j_row, t)
        coherence = rho0.rho12 * report_of(j_row, t).amplitude[0] * np.exp(-1j * h1 * t)
        fast = qubit.QubitState(rho11=rho0.rho11, rho12=coherence).matrix
        assert np.max(np.abs(full - fast)) < 1e-12


def test_dephasing_rate_single_coupling():
    j = 0.8
    for t in (0.2, 0.9, 1.5):
        assert report_of([j], t).gamma_z[0] == pytest.approx(0.5 * j * np.tan(j * t), abs=1e-12)
    # early-time limit: rate vanishes at t -> 0+
    assert abs(report_of([0.8, 0.5], 1e-9).gamma_z[0]) < 1e-8
    assert qubit.dephasing_rate(-2.0) == 0.5


def test_dephasing_rate_pole_is_inf():
    val = report_of([1.0], np.pi / 2).gamma_z[0]
    assert abs(val) > 1e10


def test_master_equation_integration_reproduces_coherence():
    # integrate c' = (-i h1 + A'/A) c with RK4, A'/A = d/2, and compare to A
    rng = np.random.default_rng(40)
    j_row = rng.uniform(-1, 1, size=5)
    h1 = 0.45
    t_end = 1.3  # stay clear of amplitude zeros
    steps = 4000
    dt = t_end / steps
    c = 0.2 + 0.05j
    # every RK4 stage falls on a multiple of dt/2: one report serves them all
    half_steps = report_of(j_row, np.arange(2 * steps + 1) * (dt / 2))

    def rhs(k, c_val):
        return (-1j * h1 + half_steps.dlog_det[k] / 2) * c_val

    for step in range(steps):
        k = 2 * step
        k1 = rhs(k, c)
        k2 = rhs(k + 1, c + dt / 2 * k1)
        k3 = rhs(k + 1, c + dt / 2 * k2)
        k4 = rhs(k + 2, c + dt * k3)
        c = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    closed = (0.2 + 0.05j) * half_steps.amplitude[-1] * np.exp(-1j * h1 * t_end)
    assert c == pytest.approx(closed, abs=1e-8)


def test_blp_distance_formula_and_oracle():
    rng = np.random.default_rng(50)
    j_row = rng.uniform(-1, 1, size=4)
    a_state = qubit.QubitState(rho11=0.62, rho12=0.2 + 0.1j)
    b_state = qubit.QubitState(rho11=0.45, rho12=-0.15 + 0.25j)
    h1 = 0.3
    for t in (0.0, 0.8, 2.2):
        d = qubit.blp_trace_distance(a_state, b_state, report_of(j_row, t).amplitude[0])
        ra = evolved(a_state, h1, j_row, t)
        rb = evolved(b_state, h1, j_row, t)
        assert d == pytest.approx(0.5 * np.abs(hermitian_eigenvalues(ra - rb)).sum(), abs=1e-12)
    assert qubit.blp_trace_distance(a_state, a_state, report_of(j_row, 1.0).amplitude[0]) == 0.0


def test_optimal_pair_distance_is_amplitude():
    j_row = [0.9, 0.4, 1.2]
    a_state = qubit.QubitState(rho11=0.5, rho12=0.5)
    b_state = qubit.QubitState(rho11=0.5, rho12=-0.5)
    ts = np.linspace(0, 6, 100)
    report = report_of(j_row, ts)
    d = qubit.blp_trace_distance(a_state, b_state, report.amplitude)
    assert np.max(np.abs(d - np.abs(report.amplitude))) < 1e-14
    assert np.array_equal(report.distance_optimal, np.abs(report.amplitude))


def test_flags_single_coupling():
    ts = np.linspace(0.01, np.pi - 0.01, 400)
    report = report_of([1.0], ts)
    inside = (ts > np.pi / 2) & (ts < np.pi)
    assert np.array_equal(report.flag_geometric, inside)
    assert report.agreement()
    # near zero all flags are off
    early = report_of([1.0, 0.7], np.linspace(0.001, 0.1, 20))
    assert not early.flag_geometric.any()
    assert early.agreement()


def test_flags_agree_random_rows():
    rng = np.random.default_rng(77)
    ts = np.linspace(0.0, 7.0, 301)
    for _ in range(30):
        j_row = rng.uniform(-2, 2, size=rng.integers(1, 8))
        report = report_of(j_row, ts)
        assert report.agreement()


def test_witness_is_amplitude_squared():
    rng = np.random.default_rng(81)
    j_row = rng.uniform(-1, 1, size=5)
    spec = cross_row_spec(j_row, h1=0.7)
    env = thermal.maximally_mixed(5, 1)
    ts = np.linspace(0.05, 3.0, 60)
    ld, _ = WitnessEvaluator(spec, env).series(ts)
    ref = 2 * np.log(np.abs(cosine_product(j_row, ts)))
    assert np.max(np.abs(ld - ref)) < 1e-12


def test_report_needs_one_spin_half():
    spec = EnsembleSpec(n_total=3, n_system=2, twice_spin=1, couplings=1 - np.eye(3), fields=0.0)
    with pytest.raises(ValueError):
        qubit.measures_agreement_report(WitnessEvaluator(spec, thermal.maximally_mixed(1, 1)), [1.0])


def test_qubit_state_validation():
    with pytest.raises(ValueError):
        qubit.QubitState(rho11=1.4, rho12=0.0)
    with pytest.raises(ValueError):
        qubit.QubitState(rho11=0.9, rho12=0.9)
