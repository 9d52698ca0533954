"""Spin ensembles with pairwise ZZ couplings and longitudinal fields.

The ensemble is a set of N spin-S sites. Sites 0..p-1 form the subsystem of
interest, the rest the environment. All energies are scalar functions of
computational-basis configurations because every term of the Hamiltonian is
diagonal in the common S^z eigenbasis:

    E(s) = - sum_ij J_ij s_i s_j + sum_i h_i s_i

The coupling matrix, held by blocks (:class:`EnsembleSpec`), is plugged into
the double sum literally, so each unordered bond contributes twice: an entry
K between two sites means a physical bond energy 2K. The nearest-neighbor
builders store the bare entry J per ordered pair, the convention under which
the closed-form witness expressions of :mod:`spindeph.closedforms` hold.

Spin-z values are stored as twice their physical value (integers), so all
configuration arithmetic is exact.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

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


def _count(n: int) -> str:
    """n in decimal, or as a power of ten past 100 digits (Python refuses
    to print integers of more than 4300 digits)."""
    return str(n) if n < 10**100 else f"about 10^{int(n.bit_length() * math.log10(2))}"


def _integer(value, key: str) -> int:
    """An integral number (6, or 6.0) as an int; 6.7, "6" or true raise a ValueError naming key."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


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
        object.__setattr__(self, "twice_values", tuple(_integer(v, "each config entry") for v in self.twice_values))

    @property
    def site_count(self) -> int:
        return len(self.twice_values)

    def validate(self, twice_spin: int) -> np.ndarray:
        """Each site's level (twice_spin - v) // 2, 0 for +S, once every value is checked."""
        v = np.array(self.twice_values, dtype=np.int64)
        bad = (np.abs(v) > twice_spin) | ((twice_spin - v) % 2 != 0)
        if bad.any():
            raise ValueError(f"spin value {v[bad][0]}/2 invalid for a spin-{twice_spin}/2 site")
        return (twice_spin - v) // 2


class EnsembleSpec:
    """N spin-S sites, a symmetric coupling matrix held by blocks, longitudinal fields.

    Sites 0..n_system-1 are the subsystem, the remaining n_total-n_system
    sites the environment. Couplings and fields are in units of a caller
    declared reference energy (hbar = 1). The constructor checks an N x N
    coupling matrix and keeps its blocks: ``system_couplings`` (p x p),
    ``cross_couplings`` (J_cross, p x (N-p), all the dynamics reads) and
    ``env_couplings``, which :func:`ensemble_from_model` builds on first
    read. It and the assembled N x N ``couplings`` are read under
    DEFAULT_ENUM_CAP entries. Instances are immutable.
    """

    def __init__(self, n_total: int, n_system: int, twice_spin: int, couplings, fields=0.0):
        j = np.array(couplings, dtype=float)
        if j.shape != (n_total, n_total):
            raise ValueError(f"couplings must be {n_total}x{n_total}")
        if not np.all(np.isfinite(j)):
            raise ValueError("couplings must be finite")
        if not np.array_equal(j, j.T):
            raise ValueError("couplings must be symmetric")
        if np.any(np.diag(j) != 0.0):
            raise ValueError("couplings must have zero diagonal")
        p = n_system
        self._set(n_total, n_system, twice_spin, j[:p, :p], j[:p, p:], j[p:, p:], fields)

    @classmethod
    def _of_blocks(cls, n_total, n_system, twice_spin, system, cross, env, fields) -> "EnsembleSpec":
        """The ensemble of the three blocks; ``env`` may be a function that builds its block."""
        return cls.__new__(cls)._set(n_total, n_system, twice_spin, system, cross, env, fields)

    def _set(self, n_total, n_system, twice_spin, system, cross, env, fields) -> "EnsembleSpec":
        if not 1 <= n_system < n_total:
            raise ValueError("need 1 <= n_system < n_total")
        if twice_spin < 1:
            raise ValueError("twice_spin must be >= 1")
        h = np.array(fields, dtype=float)
        if h.ndim == 0:
            h = np.full(n_total, float(h))
        if h.shape != (n_total,):
            raise ValueError(f"fields must have length {n_total}")
        if not np.all(np.isfinite(h)):
            raise ValueError("fields must be finite")
        # the energy tables of the system, the environment and the whole
        # ensemble are built on first use and kept (see _kept), read-only
        self.__dict__.update(
            n_total=n_total, n_system=n_system, twice_spin=twice_spin, fields=_as_readonly(h),
            system_couplings=_as_readonly(system), cross_couplings=_as_readonly(cross),
            _env_couplings=env if callable(env) else _as_readonly(env),
            _system_energies=None, _env_energies=None, _energies=None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"EnsembleSpec is immutable; cannot set {name!r}")

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
    def env_couplings(self) -> np.ndarray:
        """Environment block of the coupling matrix, (N-p) x (N-p), read-only, kept."""
        _check_matrix(self.n_env, "environment block")
        if callable(self._env_couplings):
            self.__dict__["_env_couplings"] = _as_readonly(self._env_couplings())
        return self._env_couplings

    @property
    def couplings(self) -> np.ndarray:
        """The N x N coupling matrix, assembled from the blocks on each read, read-only."""
        _check_matrix(self.n_total, "coupling matrix")
        cross = self.cross_couplings
        j = np.block([[self.system_couplings, cross], [cross.T, self.env_couplings]])
        j.flags.writeable = False
        return j


def _check_matrix(n: int, what: str) -> None:
    """Raise ResourceCapError when an n x n matrix has more than DEFAULT_ENUM_CAP entries."""
    if n * n > DEFAULT_ENUM_CAP:
        raise ResourceCapError(f"the {n} x {n} {what} has {n * n} entries, cap is {DEFAULT_ENUM_CAP}")


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


CouplingModel = Union[NearestNeighborRing1D, InfiniteRange, PowerLawRing1D, NearestNeighborTorus2D]


def ring_distance(i, j, n: int):
    """Chord distance on a ring of n sites (minimal image), of integers or integer arrays."""
    d = np.abs(i - j) % n
    return np.minimum(d, n - d)


def _entries(model: CouplingModel, n_total: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The entries J[a, b] of the model's coupling matrix at two broadcast
    arrays of site labels, after checking the model against n_total.

    Ring models need n_total >= 3 so the two neighbors of a site are
    distinct; the torus needs n_total = side**2.
    """
    if n_total < 2:
        raise ValueError("need at least two sites")
    if isinstance(model, (NearestNeighborRing1D, PowerLawRing1D)) and n_total < 3:
        raise ValueError("ring needs n_total >= 3 for distinct neighbors")
    if isinstance(model, NearestNeighborRing1D):
        return np.where(ring_distance(a, b, n_total) == 1, model.j, 0.0)
    if isinstance(model, InfiniteRange):
        return np.where(a != b, model.j / n_total, 0.0)
    if isinstance(model, PowerLawRing1D):
        prefactor = model.j
        if model.kac_normalization:
            # math.fsum is correctly rounded, so the total is the same on every
            # Python version (sum() compensates from 3.12 on)
            terms = np.power(ring_distance(0, np.arange(1, n_total), n_total), -model.alpha, dtype=float)
            prefactor = model.j / math.fsum(terms)
        d = ring_distance(a, b, n_total)
        return np.where(d > 0, prefactor / np.power(np.maximum(d, 1), model.alpha, dtype=float), 0.0)
    if isinstance(model, NearestNeighborTorus2D):
        m = model.side
        if m < 2:
            raise ValueError("torus side must be >= 2")
        if n_total != m * m:
            raise ValueError(f"torus needs n_total = side**2 = {m * m}, got {n_total}")
        (ax, ay), (bx, by) = np.divmod(a, m), np.divmod(b, m)
        bond = (ax == bx) & (ring_distance(ay, by, m) == 1) | (ay == by) & (ring_distance(ax, bx, m) == 1)
        return np.where(bond, model.j, 0.0)
    raise TypeError(f"unknown coupling model {model!r}")


def build_coupling(model: CouplingModel, n_total: int) -> np.ndarray:
    """The N x N symmetric coupling matrix of a model, read-only; raises
    ResourceCapError past DEFAULT_ENUM_CAP entries (see EnsembleSpec.couplings)."""
    return ensemble_from_model(model, n_total, 1).couplings


def _model_ensemble(model, n_total, n_system, twice_spin, fields, labels) -> EnsembleSpec:
    """The ensemble of a model with site k at the model's site labels[k], by blocks."""
    rows, env = _entries(model, n_total, labels[:n_system, None], labels[None, :]), labels[n_system:]
    return EnsembleSpec._of_blocks(n_total, n_system, twice_spin, rows[:, :n_system], rows[:, n_system:],
                                   lambda: _entries(model, n_total, env[:, None], env[None, :]), fields)


def torus_block_ensemble(side: int, block_side: int, j: float = 1.0, twice_spin: int = 1,
                         fields: Union[float, Sequence[float]] = 0.0) -> EnsembleSpec:
    """Torus ensemble with the upper-left block_side x block_side square as system.

    Sites are relabeled so the block occupies indices 0..block_side**2-1, as
    required by the system-first site convention of :class:`EnsembleSpec`;
    the rest keep their order.
    """
    if not 1 <= block_side < side:
        raise ValueError("need 1 <= block_side < side")
    n = side * side
    block = (np.arange(block_side)[:, None] * side + np.arange(block_side)).ravel()
    return _model_ensemble(NearestNeighborTorus2D(side=side, j=j), n, block.size, twice_spin, fields,
                           np.concatenate([block, np.setdiff1d(np.arange(n), block)]))


def ensemble_from_model(model: CouplingModel, n_total: int, n_system: int, twice_spin: int = 1,
                        fields: Union[float, Sequence[float]] = 0.0) -> EnsembleSpec:
    """The ensemble of a coupling model, built by blocks: nothing of size N x N."""
    return _model_ensemble(model, n_total, n_system, twice_spin, fields, np.arange(n_total))


# ---------------------------------------------------------------------------
# configuration enumeration

def config_matrix(site_count: int, twice_spin: int) -> np.ndarray:
    """All (2S+1)**site_count configurations as an integer array of twice-values.

    Rows are in lexicographic order: most significant site first, values
    descending from +S to -S. This fixes the basis-index convention used by
    every matrix in the package. Shape (levels**site_count, site_count).
    The array is read-only, and tables of at most CONFIG_MEMO_ENTRIES
    entries are shared between calls. Raises ResourceCapError past
    DEFAULT_ENUM_CAP configurations.
    """
    total = (twice_spin + 1) ** site_count
    if total > DEFAULT_ENUM_CAP:
        raise ResourceCapError(
            f"enumeration needs {_count(total)} configurations, cap is {DEFAULT_ENUM_CAP}; "
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


def _energies(spec: EnsembleSpec, env: bool) -> np.ndarray:
    """Energies of the system's or the environment's sites alone, indexed
    like config_matrix; enumerating them raises past the cap first."""
    p = spec.n_system
    h = spec.fields[p:] if env else spec.fields[:p]
    v = config_matrix(h.size, spec.twice_spin).astype(float)
    j = spec.env_couplings if env else spec.system_couplings
    return -0.25 * np.einsum("ci,ij,cj->c", v, j, v) + 0.5 * (v @ h)


def system_energies(spec: EnsembleSpec) -> np.ndarray:
    """System energies for all configurations, indexed like config_matrix.
    Built once per ensemble and kept on it, read-only."""
    return _kept(spec, "_system_energies", lambda: _energies(spec, False))


def env_energies(spec: EnsembleSpec) -> np.ndarray:
    """Environment energies for all configurations, same indexing. Built
    once per ensemble and kept on it, read-only; building it enumerates the
    environment, which raises past the cap."""
    return _kept(spec, "_env_energies", lambda: _energies(spec, True))


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
    "power_law_ring_1d": lambda d: PowerLawRing1D(j=float(d.get("J", 1.0)), alpha=float(d.get("alpha", 3.0)),
                                                  kac_normalization=d.get("kac_normalization", False)),
    "nn_torus_2d": lambda d: NearestNeighborTorus2D(side=_integer(d["side"], "side"), j=float(d.get("J", 1.0))),
}


def ensemble_from_dict(doc: dict) -> EnsembleSpec:
    """Build an EnsembleSpec from its JSON document form.

    Expected keys: n_total, n_system, twice_spin, fields (scalar or list),
    and exactly one of "model" ({"type": ..., ...}) or "couplings" (N x N list).
    A torus model may carry "system_block_side" to select the corner-block
    system layout.
    """
    n_total = _integer(doc["n_total"], "n_total")
    n_system = _integer(doc["n_system"], "n_system")
    twice_spin = _integer(doc.get("twice_spin", 1), "twice_spin")
    fields = doc.get("fields", 0.0)

    if "couplings" in doc and "model" in doc:
        raise ValueError("ensemble document gives both 'model' and 'couplings'; keep one")
    if "couplings" in doc:
        return EnsembleSpec(n_total, n_system, twice_spin, np.array(doc["couplings"], dtype=float), fields)
    if "model" not in doc:
        raise ValueError("ensemble document needs either 'model' or 'couplings'")
    mdoc = dict(doc["model"])
    kind = mdoc.pop("type")
    if not isinstance(mdoc.get("kac_normalization", False), bool):  # bool("false") is True
        raise ValueError(f"kac_normalization must be true or false, got {mdoc['kac_normalization']!r}")
    if kind == "nn_torus_2d" and "system_block_side" in mdoc:
        block = torus_block_ensemble(side=_integer(mdoc["side"], "side"),
                                     block_side=_integer(mdoc["system_block_side"], "system_block_side"),
                                     j=float(mdoc.get("J", 1.0)), twice_spin=twice_spin, fields=fields)
        if block.n_system != n_system or block.n_total != n_total:
            raise ValueError("torus block sizes inconsistent with n_total/n_system")
        return block
    try:
        builder = _MODEL_BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown coupling model type {kind!r}") from None
    return ensemble_from_model(builder(mdoc), n_total, n_system, twice_spin, fields)
