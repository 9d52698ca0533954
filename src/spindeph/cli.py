"""Command-line front end.

Subcommands
    witness           witness series + episode detection, optional closed form
    thermal-sweep     one witness CSV per inverse temperature
    compare-measures  p=1 geometric/RHP/BLP comparison
    negativity        entanglement series across a chosen cut
    thermo-limit      closed-form log det versus ensemble size
    verify            engine-versus-oracle verification suite

All couplings and fields in a run configuration are understood in units of
a declared reference energy ("reference_energy", required); the time grid
and every CSV time column are dimensionless multiples of its inverse.
Outputs are deterministic: identical configuration, byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import closedforms, engine, entanglement, oracle, qubit, thermal
from .model import (
    EnsembleSpec,
    ResourceCapError,
    SpinConfig,
    config_index,
    ensemble_from_dict,
    load_ensemble,
)

CSV_FORMAT = "spindeph-csv v1"


class UsageError(Exception):
    pass


# errors that malformed configurations and arguments raise while being read:
# missing keys, values of the wrong type or range, unreadable files, sizes
# over the enumeration cap
_INPUT_ERRORS = (KeyError, TypeError, ValueError, ArithmeticError, OSError, ResourceCapError)


@contextmanager
def _reading_input():
    """Report a malformed configuration or argument as a usage error.

    Wraps only the reading of input, never a computation, so a genuine
    fault of the program still surfaces with its traceback.
    """
    try:
        yield
    except _INPUT_ERRORS as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise UsageError(" ".join(detail.split()) or type(exc).__name__) from exc


# ---------------------------------------------------------------------------
# configuration handling


@_reading_input()
def _load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if "reference_energy" not in cfg:
        raise UsageError(
            "configuration must declare 'reference_energy' (the energy unit J; "
            "times are in 1/J)"
        )
    if float(cfg["reference_energy"]) <= 0.0:
        raise UsageError("reference_energy must be positive")
    return cfg


@_reading_input()
def _ensemble(cfg: dict, config_dir: Path) -> EnsembleSpec:
    if "ensemble" in cfg:
        spec = ensemble_from_dict(cfg["ensemble"])
    elif "ensemble_file" in cfg:
        spec = load_ensemble(config_dir / cfg["ensemble_file"])
    else:
        raise UsageError("configuration needs 'ensemble' or 'ensemble_file'")
    # the engine pairs up all system configurations: refuse a block too large now
    engine.check_pair_cap(spec.dim_system)
    return spec


@_reading_input()
def _grid(cfg: dict, override: str | None) -> np.ndarray:
    if override is not None:
        parts = override.split(":")
        if len(parts) != 3:
            raise UsageError("--grid wants start:stop:points")
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    else:
        g = cfg.get("grid", {})
        start = float(g.get("start", 0.0))
        stop = float(g.get("stop", 2.0 * np.pi))
        points = int(g.get("points", 1000))
    if points < 2:
        raise UsageError("grid needs at least 2 points")
    if not stop > start:
        raise UsageError("grid needs stop > start")
    return np.linspace(start, stop, points)


@_reading_input()
def _thermal(spec: EnsembleSpec, beta) -> engine.EnvPopulations:
    """Gibbs populations at beta, or the ground manifold for "inf"."""
    if isinstance(beta, str) and beta.lower() in ("inf", "infinity"):
        return thermal.ground_state_populations(spec)
    return thermal.thermal_populations(spec, float(beta)).populations


@_reading_input()
def _environment(cfg: dict, spec: EnsembleSpec) -> engine.EnvPopulations:
    doc = cfg.get("environment", {"kind": "mixed"})
    kind = doc.get("kind", "mixed")
    if kind == "mixed":
        return thermal.maximally_mixed(spec.n_env, spec.twice_spin)
    if kind == "basis":
        return thermal.basis_state(SpinConfig(tuple(doc["config"])), spec.twice_spin)
    if kind == "thermal":
        return _thermal(spec, doc.get("beta", 0.0))
    if kind == "explicit":
        return engine.EnvPopulations(
            n_sites=spec.n_env,
            twice_spin=spec.twice_spin,
            weights=np.asarray(doc["weights"], dtype=float),
        )
    raise UsageError(f"unknown environment kind {kind!r}")


@_reading_input()
def _state_matrix(doc: dict, n_sites: int, twice_spin: int) -> np.ndarray:
    """Density matrix from a state description document."""
    dim = (twice_spin + 1) ** n_sites
    kind = doc.get("kind")
    if kind == "uniform_superposition":
        psi = np.full(dim, dim**-0.5, dtype=complex)
        return np.outer(psi, psi.conj())
    if kind == "maximally_mixed":
        return np.eye(dim, dtype=complex) / dim
    if kind == "basis":
        k = config_index(SpinConfig(tuple(doc["config"])), twice_spin)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[k, k] = 1.0
        return rho
    if kind == "bell":
        if dim != 4:
            raise UsageError("bell state needs a two-site spin-1/2 factor")
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 2.0**-0.5
        return np.outer(psi, psi.conj())
    if kind == "matrix":
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
        rho = re + 1j * im
        if rho.shape != (dim, dim):
            raise UsageError(f"state matrix must be {dim}x{dim}")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(rho))):
            raise UsageError("state matrix must be Hermitian")
        return rho
    raise UsageError(f"unknown state kind {kind!r}")


# ---------------------------------------------------------------------------
# CSV output


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header, columns):
    rows = zip(*columns)
    with open(path, "w", newline="") as fh:
        fh.write(f"# format: {CSV_FORMAT}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# commands


_CLOSED_FORMS = ("nn1d", "inf", "2d", "pl", "frac-asym")


def _closed_form_series(name: str, cfg: dict, spec: EnsembleSpec, times: np.ndarray):
    model = cfg.get("ensemble", {}).get("model")
    if model is None:
        raise UsageError("--closed-form needs an ensemble built from a named model")
    env_kind = cfg.get("environment", {}).get("kind", "mixed")
    if spec.twice_spin != 1 or env_kind != "mixed":
        raise UsageError(
            f"--closed-form {name} assumes spin 1/2 and the 'mixed' environment; "
            f"this run has spin {Fraction(spec.twice_spin, 2)} and a {env_kind!r} environment"
        )
    j = float(model.get("J", 1.0))
    n, p = spec.n_total, spec.n_system
    if name == "nn1d":
        return closedforms.log_det_nn_1d(p, j, times)
    if name == "inf":
        return closedforms.log_det_infinite_range(n, p, j, times)
    if name == "2d":
        q = int(round(np.sqrt(p)))
        if q * q != p:
            raise UsageError("2d closed form needs a square system block")
        return closedforms.log_det_2d_nn(q, j, times)
    if name == "pl":
        return closedforms.log_det_power_law(
            n,
            p,
            alpha=float(model.get("alpha", 3.0)),
            j_n=j,
            t=times,
            kac_normalization=bool(model.get("kac_normalization", False)),
        )
    if name == "frac-asym":
        return closedforms.log_det_infinite_fraction_asymptotic(
            n, Fraction(p, n), j, times
        )
    raise UsageError(f"unknown closed form {name!r}; choose from {_CLOSED_FORMS}")


def cmd_witness(args) -> int:
    cfg = _load_config(args.config)
    spec = _ensemble(cfg, Path(args.config).parent)
    env = _environment(cfg, spec)
    times = _grid(cfg, args.grid)
    if args.closed_form is not None:
        ref = np.asarray(_closed_form_series(args.closed_form, cfg, spec, times))
    series = engine.detect_episodes(
        spec, env, float(times[0]), float(times[-1]), times.size
    )
    header = ["t", "log_det", "det", "dlogdet_dt", "in_episode"]
    columns = [series.times, series.log_det, series.det, series.dlogdet_dt, series.in_episode]
    if args.closed_form is not None:
        dev = series.log_det - ref
        header += ["closed_form_log_det", "log_det_deviation"]
        columns += [ref, dev]
        finite = np.isfinite(dev)
        print(f"closed-form max |deviation|: {np.max(np.abs(dev[finite])):.3e}")
    write_csv(args.out, header, columns)
    episodes_path = args.episodes or str(Path(args.out).with_suffix(".episodes.json"))
    with open(episodes_path, "w") as fh:
        json.dump([[a, b] for a, b in series.episodes], fh)
    print(f"wrote {args.out} and {episodes_path} ({len(series.episodes)} episodes)")
    return 0


@_reading_input()
def _parse_betas(text: str):
    out = [token.strip().lower() for token in text.split(",") if token.strip()]
    if not out:
        raise UsageError("--betas needs at least one value")
    for token in out:
        float(token)  # "inf" and "infinity" parse too
    return out


def cmd_thermal_sweep(args) -> int:
    cfg = _load_config(args.config)
    spec = _ensemble(cfg, Path(args.config).parent)
    times = _grid(cfg, args.grid)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for token in _parse_betas(args.betas):
        env = _thermal(spec, token)
        label = "inf" if token == "infinity" else token
        series = engine.detect_episodes(
            spec, env, float(times[0]), float(times[-1]), times.size
        )
        path = out_dir / f"witness_beta_{label}.csv"
        write_csv(
            path,
            ["t", "log_det", "det", "dlogdet_dt", "in_episode"],
            [series.times, series.log_det, series.det, series.dlogdet_dt, series.in_episode],
        )
        print(f"wrote {path} ({len(series.episodes)} episodes)")
    return 0


def cmd_compare_measures(args) -> int:
    cfg = _load_config(args.config)
    spec = _ensemble(cfg, Path(args.config).parent)
    if spec.n_system != 1 or spec.twice_spin != 1:
        raise UsageError("compare-measures is defined for a single spin-1/2 system")
    env_doc = cfg.get("environment", {"kind": "mixed"})
    if env_doc.get("kind", "mixed") != "mixed":
        raise UsageError("the closed-form measures assume the maximally mixed environment")
    times = _grid(cfg, args.grid)
    j_row = np.asarray(spec.cross_couplings[0])
    report = qubit.measures_agreement_report(j_row, times)
    write_csv(
        args.out,
        ["t", "A", "Aprime", "gamma_z", "D_opt", "flag_geo", "flag_rhp", "flag_blp", "singular"],
        [
            report.times,
            report.amplitude,
            report.amplitude_derivative,
            report.gamma_z,
            report.distance_optimal,
            report.flag_geometric,
            report.flag_rhp,
            report.flag_blp,
            report.singular,
        ],
    )
    if not report.agreement():
        print("measure disagreement detected off singular points", file=sys.stderr)
        return 1
    print(f"wrote {args.out} (all flags agree)")
    return 0


@_reading_input()
def _parse_cut(text: str, n_system: int):
    if text == "global":
        return ("global", None)
    if text.startswith("system:"):
        sites = int(text.split(":", 1)[1])
        if not 1 <= sites < n_system:
            raise UsageError(f"--cut system:<sites> needs 1 <= sites < {n_system} (system sites)")
        return ("system", sites)
    raise UsageError("--cut wants 'global' or 'system:<sites>'")


@contextmanager
def _time_map(threads: int):
    """map over a time grid: a pool's map for threads > 1, else the builtin."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield pool.map
    else:
        yield map


def cmd_negativity(args) -> int:
    cfg = _load_config(args.config)
    spec = _ensemble(cfg, Path(args.config).parent)
    times = _grid(cfg, args.grid)
    kind, cut_sites = _parse_cut(args.cut or cfg.get("cut", "global"), spec.n_system)

    with _time_map(args.threads) as map_times:
        if kind == "global":
            if "system_state" not in cfg or "environment_state" not in cfg:
                raise UsageError("global negativity needs 'system_state' and 'environment_state'")
            dims = (spec.dim_system, spec.dim_env)
            if dims[0] * dims[1] > entanglement.GLOBAL_DIM_CAP:
                raise UsageError(f"global dimension {dims[0] * dims[1]} exceeds cap "
                                 f"{entanglement.GLOBAL_DIM_CAP}")
            rho_s = _state_matrix(cfg["system_state"], spec.n_system, spec.twice_spin)
            rho_e = _state_matrix(cfg["environment_state"], spec.n_env, spec.twice_spin)
            result = entanglement.global_negativity_series(spec, rho_s, rho_e, times, map_times)
            path = result.path
            raw, min_eig, tnorm = result.negativity, result.min_eigenvalue, result.trace_norm
        else:
            if "system_state" not in cfg:
                raise UsageError("system-cut negativity needs 'system_state'")
            rho_s = _state_matrix(cfg["system_state"], spec.n_system, spec.twice_spin)
            env = _environment(cfg, spec)
            ev = engine.WitnessEvaluator(spec, env)
            d_a = spec.levels**cut_sites
            d_b = spec.levels ** (spec.n_system - cut_sites)

            def one(t: float):
                return entanglement.negativity_details(ev.reduced_state(rho_s, t), (d_a, d_b))

            path = "reduced-state"
            raw, min_eig, tnorm = np.array(list(map_times(one, times))).T
    write_csv(
        args.out,
        ["t", "negativity", "min_eigenvalue", "trace_norm"],
        [times, np.maximum(raw, 0.0), min_eig, tnorm],
    )
    print(f"wrote {args.out} ({path} path, max negativity {raw.max():.6g})")
    return 0


def cmd_thermo_limit(args) -> int:
    with _reading_input():
        n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
        jt = float(args.jt)
        r = Fraction(args.r) if args.family == "fraction" else None
    if not n_list:
        raise UsageError("--n-list needs at least one size")
    systems = []
    for n in n_list:
        if args.family == "fixed-p":
            p = args.p
        elif args.family == "fraction":
            p = r * n
            if p.denominator != 1:
                raise UsageError(f"r*N must be an integer, got r={r}, N={n}")
            p = int(p)
        else:
            raise UsageError("--family wants 'fixed-p' or 'fraction'")
        if not 1 <= p < n:
            raise UsageError(f"need 1 <= p < N, got p={p} for N={n}")
        systems.append(p)
    values = [closedforms.log_det_infinite_range(n, p, 1.0, jt) for n, p in zip(n_list, systems)]
    write_csv(args.out, ["n_total", "log_det"], [n_list, values])
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    report = oracle.run_verification(seed=args.seed, n_specs=args.specs)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for name, check in sorted(report["checks"].items()):
        ok = (
            check["value"] >= check["tolerance"]
            if check.get("direction") == "min"
            else check["value"] <= check["tolerance"]
        )
        print(f"{'PASS' if ok else 'FAIL'} {name}: {check['value']:.3e}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindeph",
        description="Exact dephasing dynamics and non-Markovianity witnesses "
        "for spin subsystems of pairwise-ZZ ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--grid", help="time grid override start:stop:points (units 1/J)")

    p = sub.add_parser("witness", help="witness series and episode detection")
    add_common(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--episodes", help="episode JSON path (default: derived from --out)")
    p.add_argument("--closed-form", choices=_CLOSED_FORMS, help="add comparison columns")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("thermal-sweep", help="one witness CSV per inverse temperature")
    add_common(p)
    p.add_argument("--betas", required=True, help="comma list, e.g. 0,1,3,inf (units 1/J)")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_thermal_sweep)

    p = sub.add_parser("compare-measures", help="geometric vs RHP vs BLP flags (p=1)")
    add_common(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_compare_measures)

    p = sub.add_parser("negativity", help="entanglement series across a cut")
    add_common(p)
    p.add_argument("--cut", help="'global' or 'system:<sites>' (default from config)")
    p.add_argument("--threads", type=int, default=1, help="worker threads over the time grid")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_negativity)

    p = sub.add_parser("thermo-limit", help="closed-form log det versus ensemble size")
    p.add_argument("--family", required=True, choices=("fixed-p", "fraction"))
    p.add_argument("--n-list", required=True, help="comma list of ensemble sizes")
    p.add_argument("--p", type=int, default=1, help="system size for fixed-p")
    p.add_argument("--r", default="1/2", help="system fraction for fraction family")
    p.add_argument("--jt", default="1.0", help="dimensionless time J t")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_thermo_limit)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--specs", type=int, default=50, help="number of random ensembles")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
