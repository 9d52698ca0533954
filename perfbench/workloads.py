"""The benchmark's four workloads: seeded configs and the commands run on them.

A workload is a list of CLI operations. `build` writes the workload's
configs for a seed into a work directory and returns the operations; each
operation carries the argv passed to `spindeph.cli.main` and a check that
validates its outputs against `reference`. Only the generated configs and
shipped presets reach the program, never the seed.

The seed varies the inputs without varying the amount of work, so that
timings from different seeds can be compared: random couplings come with a
window whose grid shows a fixed number of episode boundaries, and the other
workloads draw where their time window starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

import reference as ref

TWO_PI = 2.0 * math.pi

# Full sizes are what the benchmark measures; tiny sizes serve the smoke run.
SIZES = {
    "full": {
        "witness": dict(n=11, p=3, boundaries=48, points=200),
        "thermal": dict(n=14, p=5, points=1000),
        "neg_points": dict(schmidt=24, env_block=12, dense=3),
        "dense": dict(n=9, p=2),
        "verify_specs": 50,
        "small_points": 1000,
        "pair_points": 400,
        "threads_points": 16,
    },
    "tiny": {
        "witness": dict(n=7, p=2, boundaries=6, points=60),
        "thermal": dict(n=8, p=3, points=60),
        "neg_points": dict(schmidt=2, env_block=2, dense=2),
        "dense": dict(n=6, p=2),
        "verify_specs": 2,
        "small_points": 50,
        "pair_points": 40,
        "threads_points": 2,
    },
}

# verify draws its random ensembles, and with them its cost, from --seed.
# A fixed seed keeps its cost equal across workload seeds.
VERIFY_SEED = 2024


@dataclass
class Op:
    """One CLI command and the check of its outputs.

    `check(rc)` returns the maximum relative deviation it measured and
    raises `reference.CheckError` when an output is wrong.
    """

    name: str
    argv: List[str]
    check: Callable[[int], float]


class Workload:
    def __init__(self, root: Path, work: Path, seed: int, size: str):
        self.presets = root / "src" / "spindeph" / "presets"
        self.work = work
        self.size = SIZES[size]
        self.rng = np.random.default_rng(seed)
        self.ops: List[Op] = []

    def path(self, name: str) -> str:
        return str(self.work / name)

    def preset(self, name: str) -> str:
        path = self.presets / name
        if not path.is_file():
            raise FileNotFoundError(f"missing shipped preset {path}")
        return str(path)

    def write_config(self, name: str, doc: dict) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def window(self, points: int, lo: float = 0.0, hi: float = 1.0) -> str:
        start = float(self.rng.uniform(lo, hi))
        return f"{start!r}:{start + TWO_PI!r}:{points}"

    def add(self, name, argv, check):
        self.ops.append(Op(name, [str(a) for a in argv], check))


def exit_ok(rc: int) -> float:
    """The check of a command whose exit code is its verdict."""
    if rc != 0:
        raise ref.CheckError(f"exit code {rc}")
    return 0.0


def _require_states(cfg_path: str, system: str, environment: str) -> None:
    """The reference of a negativity check assumes these initial states."""
    cfg = ref.load_json(cfg_path)
    found = (cfg["system_state"]["kind"], cfg["environment_state"]["kind"])
    if found != (system, environment):
        raise ValueError(f"{cfg_path}: states {found}, the check expects {(system, environment)}")


# ---------------------------------------------------------------------------
# checks shared by several workloads


def check_thermal_sweep(out_dir: str, cfg: dict, betas, rows, samples: int = 12):
    """beta=0 against the nn-ring closed form; beta>0 against direct sums.

    `rows` lists candidate grid rows in a seeded order; the first `samples`
    of them where every |A| > 1e-3 are compared.
    """
    from spindeph import closedforms

    j, h, p = ref.ring_from_config(cfg)
    j_cross = j[:p, p:]

    def check(rc: int) -> float:
        exit_ok(rc)
        dev = 0.0
        for token in betas:
            csv = ref.read_csv(Path(out_dir) / f"witness_beta_{token}.csv")
            t, ld, dld = csv["t"], csv["log_det"], csv["dlogdet_dt"]
            if token == "0":
                closed = np.asarray(closedforms.log_det_nn_1d(p, float(cfg["ensemble"]["model"]["J"]), t))
                ok = np.isfinite(closed)
                if not np.array_equal(ok, np.isfinite(ld)):
                    raise ref.CheckError("beta=0: zeros of det differ from the closed form")
                dev = max(dev, ref.require(ref.rel_dev(ld[ok], closed[ok]), 1e-9, "beta=0 log det"))
                continue
            beta = math.inf if token == "inf" else float(token)
            r_ld, r_dld, min_abs = ref.direct_sum_witness(j_cross, ref.env_populations(j, h, p, beta), t[rows])
            keep = np.nonzero(min_abs > 1e-3)[0][:samples]
            if keep.size < samples // 2:
                raise ref.CheckError(f"beta={token}: too few points away from zeros of A")
            dev = max(
                dev,
                ref.require(ref.rel_dev(ld[rows[keep]], r_ld[keep]), 1e-8, f"beta={token} log det"),
                ref.require(ref.rel_dev(dld[rows[keep]], r_dld[keep]), 1e-8, f"beta={token} derivative"),
            )
        return dev

    return check


def check_witness_closed_form(out: str, j: float):
    """The log_det_deviation column against 1e-12, where every |cos(J t)| > 1e-3.

    Closer to a zero of A the engine's frequency sum cancels, as the
    acceptance tests note, and its error grows like 1e-19 / |A|; those rows
    count only in the reported deviation.
    """

    def check(rc: int) -> float:
        exit_ok(rc)
        csv = ref.read_csv(out)
        dev = csv["log_det_deviation"]
        clear = np.abs(np.cos(j * csv["t"])) > 1e-3
        ref.require(float(np.max(np.abs(dev[clear]), initial=0.0)), 1e-12, "log_det_deviation column")
        finite = np.isfinite(dev)
        return ref.rel_dev(csv["log_det"][finite], csv["closed_form_log_det"][finite])

    return check


# ---------------------------------------------------------------------------
# workloads


def witness_generic(w: Workload) -> None:
    """Random couplings over a window whose grid shows a fixed number of boundaries."""
    s = w.size["witness"]
    n, p = s["n"], s["p"]
    j = np.triu(w.rng.uniform(-1.0, 1.0, (n, n)), 1)
    j = j + j.T
    fields = w.rng.uniform(-1.0, 1.0, n)
    j_cross = j[:p, p:]
    stop = ref.window_for_boundaries(j_cross, s["boundaries"], s["points"])
    cfg = w.write_config(
        "witness_generic.json",
        {
            "reference_energy": 1.0,
            "ensemble": {
                "n_total": n,
                "n_system": p,
                "twice_spin": 1,
                "couplings": j.tolist(),
                "fields": fields.tolist(),
            },
            "environment": {"kind": "mixed"},
            "grid": {"start": 0.0, "stop": stop, "points": s["points"]},
        },
    )
    out = w.path("witness_generic.csv")
    episodes = w.path("witness_generic.episodes.json")
    nu = ref.cosine_product_terms(j_cross)

    def check(rc: int) -> float:
        exit_ok(rc)
        csv = ref.read_csv(out)
        t = csv["t"]
        r_ld, r_dld, min_cos = ref.cosine_product_witness(nu, t)
        good = min_cos > 1e-3
        # The engine rounds frequencies to double before its extended-precision
        # sum, so near a zero of A the derivative's relative error grows like
        # 1e-16 / |A| (up to 2e-9 here); 1e-6 still fails any wrong term.
        dev = max(
            ref.require(ref.rel_dev(csv["log_det"][good], r_ld[good]), 1e-9, "log det"),
            ref.require(ref.rel_dev(csv["dlogdet_dt"][good], r_dld[good]), 1e-6, "derivative"),
        )
        # every refined boundary must sit on a sign change of the derivative
        for a, b in ref.load_json(episodes):
            for edge, rising in ((a, True), (b, False)):
                if edge <= t[0] or edge >= t[-1]:
                    continue
                delta = 1e-7 * max(1.0, abs(edge))
                _, d, _ = ref.cosine_product_witness(nu, np.array([edge - delta, edge + delta]))
                if (d[0] > 0.0, d[1] > 0.0) != (not rising, rising):
                    raise ref.CheckError(f"episode boundary {edge!r} is not a sign change")
        return dev

    w.add("witness", ["witness", "--config", cfg, "--out", out, "--episodes", episodes], check)


def thermal_ring(w: Workload) -> None:
    """Nearest-neighbour ring, h = J, four inverse temperatures."""
    s = w.size["thermal"]
    doc = {
        "reference_energy": 1.0,
        "ensemble": {
            "n_total": s["n"],
            "n_system": s["p"],
            "twice_spin": 1,
            "model": {"type": "nn_ring_1d", "J": 1.0},
            "fields": 1.0,
        },
    }
    cfg = w.write_config("thermal_ring.json", doc)
    out_dir = w.path("thermal_ring")
    betas = ("0", "1", "3", "inf")
    w.add(
        "thermal-sweep",
        ["thermal-sweep", "--config", cfg, "--grid", w.window(s["points"]),
         "--betas", ",".join(betas), "--out-dir", out_dir],
        check_thermal_sweep(out_dir, doc, betas, w.rng.permutation(s["points"])[:48]),
    )


def negativity_global(w: Workload) -> None:
    """The Schmidt, environment-block and dense paths of global negativity."""
    pts = w.size["neg_points"]

    # pure x pure: Schmidt path, checked against an SVD of the evolved vector
    schmidt_cfg = w.preset("negativity_superposition_ring10.json")
    out = w.path("neg_schmidt.csv")
    _require_states(schmidt_cfg, "uniform_superposition", "uniform_superposition")
    j, h, p = ref.ring_from_config(ref.load_json(schmidt_cfg))
    e_schmidt = ref.global_energies(j, h, p)

    def check_schmidt(rc: int) -> float:
        exit_ok(rc)
        csv = ref.read_csv(out)
        psi0 = np.full(e_schmidt.shape, e_schmidt.size**-0.5, dtype=complex)
        refs = [ref.schmidt_negativity(np.exp(-1j * e_schmidt * t) * psi0, *e_schmidt.shape) for t in csv["t"]]
        # The program drops Schmidt coefficients below 1e-7 of the largest
        # (it floors their squares at 1e-14), so near a product state the
        # trace norm (sum of coefficients)^2 can lose up to 2 (d_S - 1) 1e-7.
        tol = 2e-7 * e_schmidt.shape[0]
        return ref.compare_negativity(csv, slice(None), refs, "Schmidt path", tol)

    w.add("negativity-schmidt",
          ["negativity", "--config", schmidt_cfg, "--cut", "global",
           "--grid", w.window(pts["schmidt"], 0.1, 1.1), "--out", out], check_schmidt)

    # environment-diagonal: no entanglement can form
    block_cfg = w.preset("negativity_mixture_ring10.json")
    out_block = w.path("neg_env_block.csv")
    _require_states(block_cfg, "uniform_superposition", "maximally_mixed")

    def check_env_block(rc: int) -> float:
        exit_ok(rc)
        csv = ref.read_csv(out_block)
        # separable, so the negativity is 0 up to the rounding of a trace
        # norm of order 1 summed over the block eigenvalues
        if np.min(csv["min_eigenvalue"]) < -1e-12:
            raise ref.CheckError("environment-diagonal state has a negative eigenvalue")
        return max(
            ref.require(ref.rel_dev(csv["negativity"], 0.0), 1e-12, "negativity of a separable state"),
            ref.require(ref.rel_dev(csv["trace_norm"], 1.0), 1e-9, "trace norm"),
        )

    w.add("negativity-env-block",
          ["negativity", "--config", block_cfg, "--cut", "global",
           "--grid", w.window(pts["env_block"], 0.1, 1.1), "--out", out_block], check_env_block)

    # mixed system x coherent environment: dense partial transpose
    d = w.size["dense"]
    doc = {
        "reference_energy": 1.0,
        "ensemble": {
            "n_total": d["n"],
            "n_system": d["p"],
            "twice_spin": 1,
            "model": {"type": "nn_ring_1d", "J": 1.0},
            "fields": 0.0,
        },
        "system_state": {"kind": "maximally_mixed"},
        "environment_state": {"kind": "uniform_superposition"},
    }
    dense_cfg = w.write_config("negativity_dense.json", doc)
    out_dense = w.path("neg_dense.csv")
    j, h, p = ref.ring_from_config(doc)
    e_dense = ref.global_energies(j, h, p).reshape(-1)
    d_s, d_e = 2**p, 2 ** (d["n"] - p)
    rho0 = np.kron(ref.state_matrix(doc["system_state"], d_s), ref.state_matrix(doc["environment_state"], d_e))

    def check_dense(rc: int) -> float:
        exit_ok(rc)
        csv = ref.read_csv(out_dense)
        refs = []
        for t in csv["t"]:
            u = np.exp(-1j * e_dense * t)
            refs.append(ref.negativity_of(u[:, None] * rho0 * u.conj()[None, :], d_s, d_e))
        return ref.compare_negativity(csv, slice(None), refs, "dense path")

    w.add("negativity-dense",
          ["negativity", "--config", dense_cfg, "--cut", "global",
           "--grid", w.window(pts["dense"], 0.1, 1.1), "--out", out_dense], check_dense)


def small_systems(w: Workload) -> None:
    """Every shipped preset, verify and the closed-form commands, on tiny inputs."""
    from spindeph import oracle
    from spindeph.model import ensemble_from_dict

    s = w.size
    out = w.path("verify.json")

    def check_verify(rc: int) -> float:
        exit_ok(rc)
        report = ref.load_json(out)
        if report.get("passed") is not True:
            raise ref.CheckError("verify report did not pass")
        return max(c["value"] for c in report["checks"].values() if c.get("direction") != "min")

    w.add("verify", ["verify", "--specs", s["verify_specs"], "--seed", VERIFY_SEED, "--out", out], check_verify)

    for name in ("negativity_pair_bell_ring6.json", "negativity_pair_product_ring6.json"):
        cfg_path = w.preset(name)
        cfg = ref.load_json(cfg_path)
        if (cfg["environment"]["kind"], cfg["cut"]) != ("mixed", "system:1"):
            raise ValueError(f"{cfg_path}: the pair-cut check expects a mixed environment and cut system:1")
        pair_out = w.path(name.replace(".json", ".csv"))
        spec = ensemble_from_dict(cfg["ensemble"])
        rho_s = ref.state_matrix(cfg["system_state"], spec.dim_system)
        rho_e = np.eye(spec.dim_env, dtype=complex) / spec.dim_env
        rows = np.sort(w.rng.permutation(s["pair_points"])[:16])

        def check_pair(rc, pair_out=pair_out, spec=spec, rho_s=rho_s, rho_e=rho_e, rows=rows):
            exit_ok(rc)
            csv = ref.read_csv(pair_out)
            refs = []
            for t in csv["t"][rows]:
                rho_t = oracle.oracle_reduced_state(spec, rho_s, rho_e, float(t))
                refs.append(ref.negativity_of(rho_t, 2, spec.dim_system // 2))
            return ref.compare_negativity(csv, rows, refs, "pair cut")

        w.add(f"pair-cut:{name}",
              ["negativity", "--config", cfg_path, "--grid", w.window(s["pair_points"]), "--out", pair_out],
              check_pair)

    ring6 = w.preset("witness_nn_ring6.json")
    witness_out = w.path("witness_ring6.csv")
    w.add("witness-nn1d",
          ["witness", "--config", ring6, "--grid", w.window(s["small_points"]),
           "--closed-form", "nn1d", "--out", witness_out],
          check_witness_closed_form(witness_out, float(ref.load_json(ring6)["ensemble"]["model"]["J"])))

    ring10 = w.preset("thermal_ring10.json")
    sweep_dir = w.path("thermal_ring10")
    betas = ("0", "1", "3", "inf")
    w.add("thermal-sweep",
          ["thermal-sweep", "--config", ring10, "--grid", w.window(s["small_points"]),
           "--betas", ",".join(betas), "--out-dir", sweep_dir],
          check_thermal_sweep(sweep_dir, ref.load_json(ring10), betas,
                              w.rng.permutation(s["small_points"])[:48]))

    w.add("compare-measures",
          ["compare-measures", "--config", ring6, "--grid", w.window(s["small_points"]),
           "--out", w.path("measures.csv")],
          exit_ok)

    jt = float(w.rng.uniform(0.5, 1.5))

    def thermo(label, family, n_list):
        path = w.path(f"thermo_{label}.csv")
        p_of = (lambda n: 1) if family == "fixed-p" else (lambda n: n // 2)

        def check(rc: int) -> float:
            exit_ok(rc)
            csv = ref.read_csv(path)
            sizes = [int(x) for x in csv["n_total"]]
            if sizes != n_list:
                raise ref.CheckError(f"sizes {sizes} != {n_list}")
            exact = np.array([ref.infinite_range_log_det(n, p_of(n), jt) for n in n_list])
            # relative to |log det| itself, which is ~1e-4 at N = 10^4; there
            # log(cos x) at x = jt/N has a relative error of ~1e-8 in double
            dev = float(np.max(np.abs(csv["log_det"] - exact) / np.abs(exact)))
            return ref.require(dev, 1e-6, f"thermo-limit {label}")

        w.add(f"thermo-limit:{label}",
              ["thermo-limit", "--family", family, "--p", "1", "--r", "1/2",
               "--n-list", ",".join(map(str, n_list)), "--jt", repr(jt), "--out", path], check)

    thermo("fixed-p", "fixed-p", [100, 1000, 10000])
    thermo("fraction", "fraction", [8, 12, 16, 20])
    # Known defect, kept visible: the exponent 2(N-p) C(2p, p-q) exceeds the
    # double range at N = 1020 and the command raises OverflowError, although
    # log det (about -7e305 at Jt = 1) is finite.
    thermo("fraction-1020", "fraction", [1020])


WORKLOADS = {
    "witness_generic": witness_generic,
    "thermal_ring": thermal_ring,
    "negativity_global": negativity_global,
    "small_systems": small_systems,
}


def build(name: str, root: Path, work: Path, seed: int, size: str) -> List[Op]:
    """Write the configs of workload `name` for `seed` and return its operations."""
    w = Workload(root, work, seed, size)
    WORKLOADS[name](w)
    return w.ops
