import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest

from spindeph import model


def config_index(s, twice_spin):
    """Lexicographic index of a configuration of twice-values: its row in config_matrix."""
    return int(np.ravel_multi_index(model.SpinConfig(s).validate(twice_spin), (twice_spin + 1,) * len(s)))


def test_ring_coupling_n4():
    mat = model.build_coupling(model.NearestNeighborRing1D(j=2.5), 4)
    expected = np.zeros((4, 4))
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        expected[a, b] = expected[b, a] = 2.5
    assert np.array_equal(mat, expected)


def test_infinite_range_n4():
    mat = model.build_coupling(model.InfiniteRange(j=1.0), 4)
    off = ~np.eye(4, dtype=bool)
    assert np.all(mat[off] == 0.25)
    assert np.all(np.diag(mat) == 0.0)


def test_power_law_distance():
    # N=5, alpha=2: sites 0 and 2 sit at chord distance 2
    mat = model.build_coupling(model.PowerLawRing1D(j=1.0, alpha=2.0), 5)
    assert mat[0, 2] == pytest.approx(0.25, abs=0)


def test_torus_adjacency():
    mat = model.build_coupling(model.NearestNeighborTorus2D(side=3, j=1.0), 9)
    assert np.array_equal(mat, mat.T)
    # every site has exactly four neighbors
    assert np.all(mat.sum(axis=1) == 4.0)
    with pytest.raises(ValueError):
        model.build_coupling(model.NearestNeighborTorus2D(side=3, j=1.0), 8)


def test_builders_bitwise_symmetric():
    rng = np.random.default_rng(0)
    for m in (
        model.NearestNeighborRing1D(j=rng.uniform()),
        model.InfiniteRange(j=rng.uniform()),
        model.PowerLawRing1D(j=rng.uniform(), alpha=1.7),
        model.PowerLawRing1D(j=rng.uniform(), alpha=2.2, kac_normalization=True),
    ):
        mat = model.build_coupling(m, 7)
        assert np.array_equal(mat, mat.T)


def reference_coupling(m, n):
    """The N x N coupling matrix of a model, entry by entry in plain loops."""
    mat = np.zeros((n, n))
    dist = lambda i, k, size=n: min(abs(i - k), size - abs(i - k))  # noqa: E731
    if isinstance(m, model.NearestNeighborRing1D):
        for i in range(n):
            mat[i, (i + 1) % n] = mat[(i + 1) % n, i] = m.j
    elif isinstance(m, model.InfiniteRange):
        for i in range(n):
            for k in range(n):
                mat[i, k] = m.j / n if i != k else 0.0
    elif isinstance(m, model.PowerLawRing1D):
        prefactor = m.j
        if m.kac_normalization:
            prefactor = m.j / math.fsum(dist(0, k) ** -m.alpha for k in range(1, n))
        for i in range(n):
            for k in range(n):
                mat[i, k] = prefactor / dist(i, k) ** m.alpha if i != k else 0.0
    else:
        side = m.side
        for x in range(side):
            for y in range(side):
                for b in (x * side + (y + 1) % side, ((x + 1) % side) * side + y):
                    mat[x * side + y, b] = mat[b, x * side + y] = m.j
    return mat


def assert_blocks(spec, ref, maxulp):
    """The spec's three blocks and its assembled matrix against a reference
    matrix: bitwise for maxulp 0, else within maxulp units in the last place."""
    p = spec.n_system
    pairs = [(spec.system_couplings, ref[:p, :p]), (spec.cross_couplings, ref[:p, p:]),
             (spec.env_couplings, ref[p:, p:]), (spec.couplings, ref)]
    for got, want in pairs:
        assert got.shape == want.shape and not got.flags.writeable
        if maxulp == 0:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_array_max_ulp(got, want, maxulp=maxulp)


@pytest.mark.parametrize("m, maxulp", [
    (model.NearestNeighborRing1D(j=0.7), 0),
    (model.InfiniteRange(j=1.3), 0),
    (model.PowerLawRing1D(j=0.9, alpha=3.0), 0),
    (model.PowerLawRing1D(j=0.9, alpha=2.0, kac_normalization=True), 0),
    # at a non-integer exponent numpy's power (SIMD) and the C library's pow
    # (the reference's) differ by up to an ulp, so an entry by up to 2 ulp,
    # and 3 with the Kac total of such terms (N <= 150, alpha 0.5 to 2.2)
    (model.PowerLawRing1D(j=0.9, alpha=1.5), 2),
    (model.PowerLawRing1D(j=0.9, alpha=0.9, kac_normalization=True), 3),
])
def test_ring_blocks_match_a_reference_loop(m, maxulp):
    for n in (3, 4, 7, 12, 31):
        ref = reference_coupling(m, n)
        for p in sorted({1, 2, n // 2, n - 1}):
            assert_blocks(model.ensemble_from_model(m, n, p), ref, maxulp)
        assert model.build_coupling(m, n).tobytes() == model.ensemble_from_model(m, n, 1).couplings.tobytes()


def test_torus_blocks_match_a_reference_loop():
    for side in (2, 3, 5):
        m = model.NearestNeighborTorus2D(side=side, j=1.1)
        ref = reference_coupling(m, side * side)
        for p in (1, 3, side * side - 1):
            assert_blocks(model.ensemble_from_model(m, side * side, p), ref, 0)
        assert model.build_coupling(m, side * side).tobytes() == ref.tobytes()
        # the corner block: its sites first, the others in their order
        for block_side in range(1, side):
            block = [x * side + y for x in range(block_side) for y in range(block_side)]
            order = block + [k for k in range(side * side) if k not in block]
            spec = model.torus_block_ensemble(side, block_side, j=1.1)
            assert_blocks(spec, ref[np.ix_(order, order)], 0)


def test_kac_prefactor_is_the_correctly_rounded_total():
    # math.fsum, so the same bytes on every Python version; site 1 is at
    # distance 1 from site 0, so its entry is the prefactor itself
    for alpha in (0.0, 0.5, 1.5, 2.2, 3.0):
        for n in range(3, 61):
            m = model.PowerLawRing1D(j=1.3, alpha=alpha, kac_normalization=True)
            terms = np.power(np.array([min(k, n - k) for k in range(1, n)], dtype=float), -alpha)
            prefactor = model.ensemble_from_model(m, n, 1).cross_couplings[0, 0]
            assert prefactor == 1.3 / math.fsum(terms) == 1.3 / math.fsum(terms[::-1])


def test_coupling_matrix_is_capped():
    # the N x N matrix and the environment block are read only under the
    # cap; the blocks of the dynamics never hold more than p x N entries
    spec = model.ensemble_from_model(model.PowerLawRing1D(alpha=1.5, kac_normalization=True), 2000, 2)
    assert spec.cross_couplings.shape == (2, 1998)
    for read in (lambda: spec.couplings, lambda: spec.env_couplings,
                 lambda: model.build_coupling(model.InfiniteRange(), 1025)):
        with pytest.raises(model.ResourceCapError, match="cap is 1048576"):
            read()
    assert model.ensemble_from_model(model.InfiniteRange(), 1024, 1).couplings.shape == (1024, 1024)


def test_ring_too_small():
    with pytest.raises(ValueError):
        model.build_coupling(model.NearestNeighborRing1D(), 2)


def test_enumeration_order_spin_half():
    assert model.config_matrix(2, 1).tolist() == [[1, 1], [1, -1], [-1, 1], [-1, -1]]


def test_enumeration_order_spin_one():
    assert model.config_matrix(1, 2).tolist() == [[2], [0], [-2]]


def test_enumeration_matches_matrix_and_index():
    # lexicographic: most significant site first, values descending
    for sites, tw in ((3, 1), (2, 2), (0, 1)):
        expected = list(itertools.product(range(tw, -tw - 1, -2), repeat=sites))
        mat = model.config_matrix(sites, tw)
        assert mat.shape == (len(expected), sites)
        for k, row in enumerate(expected):
            assert tuple(mat[k]) == row
            assert config_index(row, tw) == k


def test_enumeration_cap():
    # 2^21 configurations, refused before any is built; the message names
    # the environments that are never enumerated
    with pytest.raises(model.ResourceCapError, match="2097152") as err:
        model.config_matrix(21, 1)
    assert "product environment ('mixed', 'basis', or 'thermal' at beta = 0)" in str(err.value)


@pytest.mark.parametrize("twice_spin", [1, 2, 3])
def test_config_matrix_equals_product_enumeration(twice_spin):
    # shared tables and tables built per call (4^8 x 8 entries is past
    # the memo limit) against itertools, twice each
    for sites in range(9):
        expected = np.array(list(itertools.product(range(twice_spin, -twice_spin - 1, -2),
                                                   repeat=sites)), dtype=np.int64)
        for _ in range(2):
            mat = model.config_matrix(sites, twice_spin)
            assert mat.dtype == np.int64
            assert mat.shape == (len(expected), sites)
            assert np.array_equal(mat, expected)
            assert not mat.flags.writeable
            with pytest.raises(ValueError):
                mat[...] = 0


def test_config_matrix_memo_is_bounded():
    small = model.config_matrix(3, 1)
    assert model.config_matrix(3, 1) is small
    # past the limit a table is built per call and freed with its last reference
    sites = 12
    assert 2**sites * sites > model.CONFIG_MEMO_ENTRIES
    large = model.config_matrix(sites, 1)
    assert model.config_matrix(sites, 1) is not large
    ref = weakref.ref(large)
    del large
    gc.collect()
    assert ref() is None
    # the cap still refuses before anything is built, at spin 1 too
    with pytest.raises(model.ResourceCapError, match="1594323"):
        model.config_matrix(13, 2)


def _random_spec(rng, n_total, n_system, twice_spin=1):
    j = rng.uniform(-1, 1, size=(n_total, n_total))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return model.EnsembleSpec(
        n_total=n_total,
        n_system=n_system,
        twice_spin=twice_spin,
        couplings=j,
        fields=rng.uniform(-1, 1, size=n_total),
    )


def double_sum(j, h, twice_values):
    """-sum_ij J_ij s_i s_j + sum_i h_i s_i, written out term by term."""
    s = [v / 2 for v in twice_values]
    n = len(s)
    pair = sum(j[a][b] * s[a] * s[b] for a in range(n) for b in range(n))
    return -pair + sum(h[a] * s[a] for a in range(n))


def interaction(spec, s, sigma):
    """-2 sum_{i<=p} sum_{j>p} J_ij s_i sigma_j, written out term by term."""
    p = spec.n_system
    return -2.0 * sum(
        spec.couplings[i][p + k] * (s[i] / 2) * (sigma[k] / 2)
        for i in range(p)
        for k in range(spec.n_env)
    )


def interaction_table(spec):
    """Coupling part of total_energies: total minus system minus environment."""
    table = model.total_energies(spec).reshape(spec.dim_system, spec.dim_env)
    return table - model.system_energies(spec)[:, None] - model.env_energies(spec)[None, :]


def test_hamiltonian_single_site_field():
    spec = model.EnsembleSpec(
        n_total=2, n_system=1, twice_spin=1,
        couplings=np.zeros((2, 2)), fields=[0.7, 0.0],
    )
    assert model.system_energies(spec)[0] == pytest.approx(0.35)


def test_hamiltonian_double_sum_convention():
    # both ordered pairs count, so one bond at matrix entry J gives -J/2
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 1.0
    spec = model.EnsembleSpec(
        n_total=3, n_system=2, twice_spin=1, couplings=j, fields=np.zeros(3)
    )
    assert model.system_energies(spec)[0] == pytest.approx(-0.5)  # configuration (+, +)


def test_hamiltonian_env_open_subchain():
    # 10-site ring with physical bond energy J between neighbors, i.e.
    # matrix entries J/2 under the double-sum convention; the 8-site
    # environment subchain has 7 bonds and field h=J on every site
    j = model.build_coupling(model.NearestNeighborRing1D(j=0.5), 10)
    spec = model.EnsembleSpec(
        n_total=10, n_system=2, twice_spin=1, couplings=j, fields=np.full(10, 1.0)
    )
    # configuration 0 is all spins up
    assert model.env_energies(spec)[0] == pytest.approx(9.0 / 4.0, abs=1e-14)


def test_hamiltonian_env_single_site():
    # a one-site environment has no internal bond, only its field term
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 0.4
    spec = model.EnsembleSpec(
        n_total=3, n_system=2, twice_spin=1, couplings=j, fields=[0.0, 0.0, 1.2]
    )
    assert model.env_energies(spec) == pytest.approx([0.6, -0.6])


def test_hamiltonian_interaction_examples():
    j = np.zeros((2, 2))
    j[0, 1] = j[1, 0] = 1.3
    spec = model.EnsembleSpec(
        n_total=2, n_system=1, twice_spin=1, couplings=j, fields=np.zeros(2)
    )
    assert interaction_table(spec)[0, 0] == pytest.approx(-1.3 / 2.0)

    # spin-1 environment with all zero projections kills the coupling
    spec1 = model.EnsembleSpec(
        n_total=3, n_system=1, twice_spin=2,
        couplings=model.build_coupling(model.NearestNeighborRing1D(j=1.0), 3),
        fields=np.zeros(3),
    )
    zero = config_index((0, 0), 2)
    assert interaction_table(spec1)[0, zero] == 0.0


def test_hamiltonians_match_diagonal_oracle():
    # the vectorized tables are the diagonal elements of the operator forms;
    # check them against the literal double sum for random ensembles
    rng = np.random.default_rng(42)
    for _ in range(5):
        spec = _random_spec(rng, 5, 2)
        p = spec.n_system
        j, h = spec.couplings, spec.fields
        es = model.system_energies(spec)
        for k, cfg in enumerate(model.config_matrix(p, 1)):
            assert double_sum(j[:p, :p], h[:p], cfg) == pytest.approx(es[k], abs=1e-13)
        ee = model.env_energies(spec)
        for k, cfg in enumerate(model.config_matrix(spec.n_env, 1)):
            assert double_sum(j[p:, p:], h[p:], cfg) == pytest.approx(ee[k], abs=1e-13)


def test_total_energy_decomposition_exhaustive():
    rng = np.random.default_rng(11)
    for n_total in (3, 4, 5, 6):
        spec = _random_spec(rng, n_total, rng.integers(1, n_total))
        p = spec.n_system
        j, h = spec.couplings, spec.fields
        es, ee = model.system_energies(spec), model.env_energies(spec)
        cross = interaction_table(spec)
        for full in model.config_matrix(n_total, 1):
            s, sigma = full[:p], full[p:]
            a = config_index(s, 1)
            b = config_index(sigma, 1)
            assert cross[a, b] == pytest.approx(interaction(spec, s, sigma), abs=1e-12)
            parts = es[a] + ee[b] + cross[a, b]
            assert parts == pytest.approx(double_sum(j, h, full), abs=1e-12)


def test_total_energies_table_matches_scalars():
    # global index s_index * dim_env + sigma_index is the lexicographic
    # index of the full configuration
    rng = np.random.default_rng(5)
    spec = _random_spec(rng, 5, 2)
    table = model.total_energies(spec)
    for g, full in enumerate(model.config_matrix(5, 1)):
        assert table[g] == pytest.approx(double_sum(spec.couplings, spec.fields, full), abs=1e-12)


def test_total_energies_built_once_and_capped():
    rng = np.random.default_rng(6)
    spec = _random_spec(rng, 6, 2)
    table = model.total_energies(spec)
    assert model.total_energies(spec) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.0
    # an equal ensemble built anew has its own table, with the same values
    twin = model.EnsembleSpec(n_total=6, n_system=2, twice_spin=1,
                              couplings=spec.couplings, fields=spec.fields)
    assert twin._energies is None
    assert np.array_equal(model.total_energies(twin), table)
    # 2^21 environment configurations: refused before the table is built
    big = model.EnsembleSpec(n_total=22, n_system=1, twice_spin=1,
                             couplings=np.zeros((22, 22)), fields=0.0)
    with pytest.raises(model.ResourceCapError, match="2097152"):
        model.total_energies(big)
    assert big._energies is None


def test_system_and_env_energies_built_once_and_shared(monkeypatch):
    rng = np.random.default_rng(7)
    spec = _random_spec(rng, 7, 3)
    built, original = [], model._energies

    def counted(s, sites):
        built.append(sites)
        return original(s, sites)

    monkeypatch.setattr(model, "_energies", counted)
    es, ee = model.system_energies(spec), model.env_energies(spec)
    assert model.system_energies(spec) is es and model.env_energies(spec) is ee
    for table in (es, ee):
        with pytest.raises(ValueError):
            table[0] = 0.0
    table = model.total_energies(spec).reshape(spec.dim_system, spec.dim_env)
    assert len(built) == 2  # the global table reuses the two kept tables
    # the same values as an ensemble built anew, whose tables are built in the other order
    twin = model.EnsembleSpec(n_total=7, n_system=3, twice_spin=1,
                              couplings=spec.couplings, fields=spec.fields)
    assert np.array_equal(model.total_energies(twin).reshape(table.shape), table)
    assert np.array_equal(twin._system_energies, es) and np.array_equal(twin._env_energies, ee)


def test_spec_validation():
    with pytest.raises(ValueError):
        model.EnsembleSpec(n_total=2, n_system=2, twice_spin=1,
                           couplings=np.zeros((2, 2)), fields=np.zeros(2))
    j = np.zeros((3, 3))
    j[0, 1] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        model.EnsembleSpec(n_total=3, n_system=1, twice_spin=1,
                           couplings=j, fields=np.zeros(3))
    with pytest.raises(ValueError):
        model.SpinConfig((3,)).validate(1)


def test_torus_block_relabeling():
    spec = model.torus_block_ensemble(side=4, block_side=2, j=1.0)
    assert spec.n_system == 4 and spec.n_total == 16
    # each block site keeps exactly two couplings into the environment
    assert np.all(spec.cross_couplings.sum(axis=1) == 2.0)
    # and two inside the block
    assert np.all(spec.couplings[:4, :4].sum(axis=1) == 2.0)


def test_json_round_trip():
    doc = {
        "n_total": 6,
        "n_system": 2,
        "twice_spin": 1,
        "model": {"type": "nn_ring_1d", "J": 0.8},
        "fields": 0.25,
    }
    spec = model.ensemble_from_dict(json.loads(json.dumps(doc)))
    assert spec.couplings[0, 1] == 0.8
    assert np.all(spec.fields == 0.25)

    explicit = {
        "n_total": 3,
        "n_system": 1,
        "couplings": model.build_coupling(model.InfiniteRange(j=1.0), 3).tolist(),
        "fields": [0.0, 0.1, 0.2],
    }
    spec2 = model.ensemble_from_dict(explicit)
    assert spec2.couplings[0, 2] == pytest.approx(1 / 3)

    torus = {
        "n_total": 9,
        "n_system": 1,
        "model": {"type": "nn_torus_2d", "side": 3, "system_block_side": 1},
        "fields": 0.0,
    }
    spec3 = model.ensemble_from_dict(torus)
    assert spec3.cross_couplings.sum() == 4.0
    assert np.array_equal(spec3.couplings, model.torus_block_ensemble(3, 1).couplings)
    fields = [0.1 * k for k in range(9)]
    spec4 = model.ensemble_from_dict(dict(torus, twice_spin=2, fields=fields))
    assert spec4.twice_spin == 2
    assert np.array_equal(spec4.fields, fields)
    with pytest.raises(ValueError):
        model.ensemble_from_dict(dict(torus, n_system=4))

    with pytest.raises(ValueError):
        model.ensemble_from_dict({"n_total": 3, "n_system": 1, "model": {"type": "nope"}})


def test_ensemble_document_with_model_and_couplings_is_refused():
    # one of the two would build the spec and the other the closed form
    doc = {
        "n_total": 6,
        "n_system": 1,
        "model": {"type": "nn_ring_1d", "J": 1.0},
        "couplings": np.zeros((6, 6)).tolist(),
    }
    with pytest.raises(ValueError, match="both 'model' and 'couplings'"):
        model.ensemble_from_dict(doc)
    for key in ("model", "couplings"):
        assert model.ensemble_from_dict({k: v for k, v in doc.items() if k != key}).n_total == 6
