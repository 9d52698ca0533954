"""Spin ensembles with pairwise ZZ couplings and longitudinal fields.

The ensemble is a set of N spin-S sites. Sites 0..p-1 form the subsystem of
interest, the rest the environment. All energies are scalar functions of
computational-basis configurations because every term of the Hamiltonian is
diagonal in the common S^z eigenbasis:

    E(s) = - sum_ij J_ij s_i s_j + sum_i h_i s_i

The coupling matrix is plugged into the double sum literally, so each
unordered bond contributes twice: a matrix entry K between two sites means a
physical bond energy 2K. The nearest-neighbor builders store the bare entry
J per ordered pair, which is the convention under which the closed-form
witness expressions of :mod:`spindeph.closedforms` hold.

Spin-z values are stored as twice their physical value (integers), so all
configuration arithmetic is exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

DEFAULT_ENUM_CAP = 2**20
# configuration tables of at most this many entries (128 KiB of int64) are
# built once and shared, the 64 last used; a larger one, such as the
# 2^20 x 20 environment table of a thermal sweep at N = 22, is built per
# call and not kept
CONFIG_MEMO_ENTRIES = 2**14
# how a large environment avoids the flat enumeration
PRODUCT_ENV_HINT = (
    "a product environment ('mixed', 'basis', or 'thermal' at beta = 0) avoids the enumeration"
)


class ResourceCapError(RuntimeError):
    """Raised when an enumeration would exceed the configured cap."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpinConfig:
    """Twice-integer spin-z assignment for a group of sites.

    ``twice_values[i]`` is 2*s_i, so half-integer spins stay exact.
    """

    twice_values: tuple

    def __post_init__(self):
        object.__setattr__(self, "twice_values", tuple(int(v) for v in self.twice_values))

    @property
    def site_count(self) -> int:
        return len(self.twice_values)

    def validate(self, twice_spin: int):
        for v in self.twice_values:
            if abs(v) > twice_spin or (twice_spin - v) % 2 != 0:
                raise ValueError(
                    f"spin value {v}/2 invalid for a spin-{twice_spin}/2 site"
                )


@dataclass(frozen=True)
class EnsembleSpec:
    """N spin-S sites, symmetric coupling matrix, longitudinal fields.

    Sites 0..n_system-1 are the subsystem, the remaining n_total-n_system
    sites the environment. Couplings and fields are in units of a caller
    declared reference energy (hbar = 1).
    """

    n_total: int
    n_system: int
    twice_spin: int
    couplings: np.ndarray
    fields: np.ndarray
    # the energy tables of the system, the environment and the whole
    # ensemble, each built on first use and kept, read-only
    _system_energies: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _env_energies: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _energies: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.n_system < self.n_total:
            raise ValueError("need 1 <= n_system < n_total")
        if self.twice_spin < 1:
            raise ValueError("twice_spin must be >= 1")
        j = np.array(self.couplings, dtype=float)
        if j.shape != (self.n_total, self.n_total):
            raise ValueError(f"couplings must be {self.n_total}x{self.n_total}")
        if not np.all(np.isfinite(j)):
            raise ValueError("couplings must be finite")
        if not np.array_equal(j, j.T):
            raise ValueError("couplings must be symmetric")
        if np.any(np.diag(j) != 0.0):
            raise ValueError("couplings must have zero diagonal")
        h = np.array(self.fields, dtype=float)
        if h.ndim == 0:
            h = np.full(self.n_total, float(h))
        if h.shape != (self.n_total,):
            raise ValueError(f"fields must have length {self.n_total}")
        if not np.all(np.isfinite(h)):
            raise ValueError("fields must be finite")
        object.__setattr__(self, "couplings", _as_readonly(j))
        object.__setattr__(self, "fields", _as_readonly(h))

    @property
    def n_env(self) -> int:
        return self.n_total - self.n_system

    @property
    def levels(self) -> int:
        """Local Hilbert-space dimension 2S+1."""
        return self.twice_spin + 1

    @property
    def dim_system(self) -> int:
        return self.levels**self.n_system

    @property
    def dim_env(self) -> int:
        return self.levels**self.n_env

    @property
    def cross_couplings(self) -> np.ndarray:
        """System-to-environment block of the coupling matrix, shape (p, N-p)."""
        return self.couplings[: self.n_system, self.n_system :]


# ---------------------------------------------------------------------------
# coupling models


@dataclass(frozen=True)
class NearestNeighborRing1D:
    """Ring of N sites; matrix entry j between adjacent sites."""

    j: float = 1.0


@dataclass(frozen=True)
class InfiniteRange:
    """All-to-all coupling j/N between distinct sites."""

    j: float = 1.0


@dataclass(frozen=True)
class PowerLawRing1D:
    """Ring with entry j_n(alpha)/r^alpha at chord distance r.

    With ``kac_normalization`` the prefactor is rescaled so that the total
    coupling seen by one site is j (unit mean field); otherwise the prefactor
    is the constant j.
    """

    j: float = 1.0
    alpha: float = 3.0
    kac_normalization: bool = False


@dataclass(frozen=True)
class NearestNeighborTorus2D:
    """side x side square lattice, periodic in both directions, entry j."""

    side: int
    j: float = 1.0


CouplingModel = Union[
    NearestNeighborRing1D,
    InfiniteRange,
    PowerLawRing1D,
    NearestNeighborTorus2D,
]


def ring_distance(i: int, j: int, n: int) -> int:
    """Chord distance on a ring of n sites (minimal image)."""
    d = abs(i - j) % n
    return min(d, n - d)


def build_coupling(model: CouplingModel, n_total: int) -> np.ndarray:
    """Return the N x N symmetric coupling matrix for a model.

    Ring models need n_total >= 3 so the two neighbors of a site are
    distinct; the torus needs n_total = side**2.
    """
    if n_total < 2:
        raise ValueError("need at least two sites")
    mat = np.zeros((n_total, n_total))

    if isinstance(model, NearestNeighborRing1D):
        if n_total < 3:
            raise ValueError("ring needs n_total >= 3 for distinct neighbors")
        for i in range(n_total):
            k = (i + 1) % n_total
            mat[i, k] = model.j
            mat[k, i] = model.j
    elif isinstance(model, InfiniteRange):
        mat[:] = model.j / n_total
        np.fill_diagonal(mat, 0.0)
    elif isinstance(model, PowerLawRing1D):
        if n_total < 3:
            raise ValueError("ring needs n_total >= 3 for distinct neighbors")
        prefactor = model.j
        if model.kac_normalization:
            total = sum(ring_distance(0, j, n_total) ** -model.alpha for j in range(1, n_total))
            prefactor = model.j / total
        for i in range(n_total):
            for j in range(i + 1, n_total):
                v = prefactor / ring_distance(i, j, n_total) ** model.alpha
                mat[i, j] = v
                mat[j, i] = v
    elif isinstance(model, NearestNeighborTorus2D):
        m = model.side
        if m < 2:
            raise ValueError("torus side must be >= 2")
        if n_total != m * m:
            raise ValueError(f"torus needs n_total = side**2 = {m * m}, got {n_total}")
        for ix in range(m):
            for iy in range(m):
                a = ix * m + iy
                for bx, by in ((ix, (iy + 1) % m), ((ix + 1) % m, iy)):
                    b = bx * m + by
                    mat[a, b] = model.j
                    mat[b, a] = model.j
    else:
        raise TypeError(f"unknown coupling model {model!r}")
    return mat


def torus_block_ensemble(
    side: int,
    block_side: int,
    j: float = 1.0,
    twice_spin: int = 1,
    fields: float = 0.0,
) -> EnsembleSpec:
    """Torus ensemble with the upper-left block_side x block_side square as system.

    Sites are relabeled so the block occupies indices 0..block_side**2-1, as
    required by the system-first site convention of :class:`EnsembleSpec`.
    """
    if not 1 <= block_side < side:
        raise ValueError("need 1 <= block_side < side")
    n = side * side
    mat = build_coupling(NearestNeighborTorus2D(side=side, j=j), n)
    block = [ix * side + iy for ix in range(block_side) for iy in range(block_side)]
    rest = [k for k in range(n) if k not in set(block)]
    perm = np.array(block + rest)
    mat = mat[np.ix_(perm, perm)]
    return EnsembleSpec(
        n_total=n,
        n_system=block_side * block_side,
        twice_spin=twice_spin,
        couplings=mat,
        fields=fields,
    )


def ensemble_from_model(
    model: CouplingModel,
    n_total: int,
    n_system: int,
    twice_spin: int = 1,
    fields: Union[float, Sequence[float]] = 0.0,
) -> EnsembleSpec:
    return EnsembleSpec(
        n_total=n_total,
        n_system=n_system,
        twice_spin=twice_spin,
        couplings=build_coupling(model, n_total),
        fields=fields,
    )


# ---------------------------------------------------------------------------
# configuration enumeration

def config_count(site_count: int, twice_spin: int) -> int:
    return (twice_spin + 1) ** site_count


def config_matrix(site_count: int, twice_spin: int) -> np.ndarray:
    """All (2S+1)**site_count configurations as an integer array of twice-values.

    Rows are in lexicographic order: most significant site first, values
    descending from +S to -S. This fixes the basis-index convention used by
    every matrix in the package. Shape (levels**site_count, site_count).
    The array is read-only, and tables of at most CONFIG_MEMO_ENTRIES
    entries are shared between calls. Raises ResourceCapError past
    DEFAULT_ENUM_CAP configurations.
    """
    total = config_count(site_count, twice_spin)
    if total > DEFAULT_ENUM_CAP:
        raise ResourceCapError(
            f"enumeration needs {total} configurations, cap is {DEFAULT_ENUM_CAP}; "
            f"{PRODUCT_ENV_HINT}"
        )
    if total * site_count <= CONFIG_MEMO_ENTRIES:
        return _shared_config_table(site_count, twice_spin)
    return _config_table(site_count, twice_spin)


def _config_table(site_count: int, twice_spin: int) -> np.ndarray:
    """:func:`config_matrix` without the cap, built anew: the table seen as
    a grid with one axis per site holds site i's twice-values along axis i."""
    levels = twice_spin + 1
    values = np.arange(twice_spin, -twice_spin - 1, -2, dtype=np.int64)
    table = np.empty((levels**site_count, site_count), dtype=np.int64)
    grid = table.reshape((levels,) * site_count + (site_count,))
    for i in range(site_count):
        grid[..., i] = values.reshape((levels,) + (1,) * (site_count - 1 - i))
    table.flags.writeable = False
    return table


_shared_config_table = functools.lru_cache(maxsize=64)(_config_table)


def config_index(config: SpinConfig, twice_spin: int) -> int:
    """Lexicographic index of a configuration: its row in :func:`config_matrix`."""
    levels = twice_spin + 1
    index = 0
    for v in config.twice_values:
        d = (twice_spin - v) // 2
        if not 0 <= d < levels:
            raise ValueError(f"twice-value {v} out of range for twice_spin={twice_spin}")
        index = index * levels + d
    return index


# ---------------------------------------------------------------------------
# Hamiltonians, diagonal in the configuration basis

def _kept(spec: EnsembleSpec, name: str, build) -> np.ndarray:
    """The table `name` of the ensemble: built on first use and kept on it,
    read-only."""
    if getattr(spec, name) is None:
        table = build()
        table.flags.writeable = False
        object.__setattr__(spec, name, table)
    return getattr(spec, name)


def _energies(spec: EnsembleSpec, sites: slice) -> np.ndarray:
    """Energies of a slice of sites alone, indexed like config_matrix."""
    j = spec.couplings[sites, sites]
    h = spec.fields[sites]
    v = config_matrix(h.size, spec.twice_spin).astype(float)
    return -0.25 * np.einsum("ci,ij,cj->c", v, j, v) + 0.5 * (v @ h)


def system_energies(spec: EnsembleSpec) -> np.ndarray:
    """System energies for all configurations, indexed like config_matrix.
    Built once per ensemble and kept on it, read-only."""
    return _kept(spec, "_system_energies", lambda: _energies(spec, slice(None, spec.n_system)))


def env_energies(spec: EnsembleSpec) -> np.ndarray:
    """Environment energies for all configurations, same indexing. Built
    once per ensemble and kept on it, read-only; building it enumerates the
    environment, which raises past the cap."""
    return _kept(spec, "_env_energies", lambda: _energies(spec, slice(spec.n_system, None)))


def total_energies(spec: EnsembleSpec) -> np.ndarray:
    """Full-ensemble energies over all global configurations.

    The global index is s_index * dim_env + sigma_index, consistent with a
    Kronecker product ordering system (x) environment. The table is built
    once per ensemble from the kept system and environment tables and kept
    on it, read-only; building it enumerates the system and the
    environment, which raises past the cap.
    """
    def build():
        vs = config_matrix(spec.n_system, spec.twice_spin).astype(float)
        ve = config_matrix(spec.n_env, spec.twice_spin).astype(float)
        cross = -2.0 * 0.25 * (vs @ spec.cross_couplings @ ve.T)
        return (system_energies(spec)[:, None] + env_energies(spec)[None, :] + cross).reshape(-1)

    return _kept(spec, "_energies", build)


# ---------------------------------------------------------------------------
# JSON loading

_MODEL_BUILDERS = {
    "nn_ring_1d": lambda d: NearestNeighborRing1D(j=float(d.get("J", 1.0))),
    "infinite_range": lambda d: InfiniteRange(j=float(d.get("J", 1.0))),
    "power_law_ring_1d": lambda d: PowerLawRing1D(
        j=float(d.get("J", 1.0)),
        alpha=float(d.get("alpha", 3.0)),
        kac_normalization=bool(d.get("kac_normalization", False)),
    ),
    "nn_torus_2d": lambda d: NearestNeighborTorus2D(
        side=int(d["side"]), j=float(d.get("J", 1.0))
    ),
}


def ensemble_from_dict(doc: dict) -> EnsembleSpec:
    """Build an EnsembleSpec from its JSON document form.

    Expected keys: n_total, n_system, twice_spin, fields (scalar or list),
    and exactly one of "model" ({"type": ..., ...}) or "couplings" (N x N list).
    A torus model may carry "system_block_side" to select the corner-block
    system layout.
    """
    n_total = int(doc["n_total"])
    n_system = int(doc["n_system"])
    twice_spin = int(doc.get("twice_spin", 1))

    if "couplings" in doc and "model" in doc:
        raise ValueError("ensemble document gives both 'model' and 'couplings'; keep one")
    if "couplings" in doc:
        couplings = np.array(doc["couplings"], dtype=float)
    elif "model" in doc:
        mdoc = dict(doc["model"])
        kind = mdoc.pop("type")
        if kind == "nn_torus_2d" and "system_block_side" in mdoc:
            block = torus_block_ensemble(
                side=int(mdoc["side"]),
                block_side=int(mdoc["system_block_side"]),
                j=float(mdoc.get("J", 1.0)),
            )
            if block.n_system != n_system or block.n_total != n_total:
                raise ValueError("torus block sizes inconsistent with n_total/n_system")
            couplings = block.couplings
        else:
            try:
                builder = _MODEL_BUILDERS[kind]
            except KeyError:
                raise ValueError(f"unknown coupling model type {kind!r}") from None
            couplings = build_coupling(builder(mdoc), n_total)
    else:
        raise ValueError("ensemble document needs either 'model' or 'couplings'")

    return EnsembleSpec(
        n_total=n_total,
        n_system=n_system,
        twice_spin=twice_spin,
        couplings=couplings,
        fields=doc.get("fields", 0.0),
    )
