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
A CSV file is formatted column by column and written in blocks of
CSV_BLOCK rows, so the writer's memory does not grow with the time grid.

Start-up: a run is mostly interpreter start-up, so each command imports
only the layers it runs. This module loads model, engine (with dirichlet),
thermal and entanglement (with linalg), which the witness, sweep and
negativity computations share. verify adds oracle, compare-measures adds
qubit, thermo-limit and --closed-form add closedforms (and fractions), and
--threads > 1 adds concurrent.futures once the dense global path maps over
its times. entanglement and linalg stay eager
although witness and thermal-sweep never call them, so that a negativity
run pays their import at start-up and not in the middle of its computation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import engine, entanglement, thermal
from .linalg import _checked
from .model import (
    EnsembleSpec,
    ResourceCapError,
    SpinConfig,
    ensemble_from_dict,
)

CSV_FORMAT = "spindeph-csv v1"
# rows per block of a CSV file: the writer holds one block's text at a time
CSV_BLOCK = 256


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
def _ensemble(cfg: dict, config_dir: Path) -> tuple[EnsembleSpec, dict]:
    """The ensemble and its document, given inline or in 'ensemble_file'."""
    if "ensemble" in cfg:
        doc = cfg["ensemble"]
    elif "ensemble_file" in cfg:
        with open(config_dir / cfg["ensemble_file"]) as fh:
            doc = json.load(fh)
    else:
        raise UsageError("configuration needs 'ensemble' or 'ensemble_file'")
    spec = ensemble_from_dict(doc)
    # the engine pairs up all system configurations: refuse a block too large now
    engine.check_pair_cap(spec.dim_system)
    return spec, doc


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
    if not np.isfinite([start, stop, stop - start]).all():
        raise UsageError("grid bounds and their span must be finite")
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
    return thermal.thermal_populations(spec, float(beta))


@_reading_input()
def _environment(cfg: dict, spec: EnsembleSpec) -> engine.EnvPopulations:
    doc = cfg.get("environment", {"kind": "mixed"})
    kind = doc.get("kind", "mixed")
    if kind == "mixed":
        return thermal.maximally_mixed(spec.n_env, spec.twice_spin)
    if kind == "basis":
        return thermal.basis_state(_basis_config(doc, spec.n_env, spec.twice_spin), spec.twice_spin)
    if kind == "thermal":
        return _thermal(spec, doc.get("beta", 0.0))
    if kind == "explicit":
        return engine.EnvPopulations(
            n_sites=spec.n_env,
            twice_spin=spec.twice_spin,
            weights=np.asarray(doc["weights"], dtype=float),
        )
    raise UsageError(f"unknown environment kind {kind!r}")


def _basis_config(doc: dict, n_sites: int, twice_spin: int) -> SpinConfig:
    """The "config" of a "basis" document, checked against its n_sites sites."""
    config = SpinConfig(tuple(doc["config"]))
    if config.site_count != n_sites:
        raise UsageError(f"basis config has {config.site_count} sites, expected {n_sites}")
    config.validate(twice_spin)
    return config


@_reading_input()
def _state(doc: dict, n_sites: int, twice_spin: int) -> np.ndarray:
    """Density matrix from a state description document: a product kind as
    its (n_sites, 2S+1, 2S+1) one-site states, any other built dense."""
    levels = twice_spin + 1
    kind = doc.get("kind")
    if kind == "uniform_superposition":
        return np.full((n_sites, levels, levels), 1.0 / levels, dtype=complex)
    if kind == "maximally_mixed":
        return np.tile(np.eye(levels, dtype=complex) / levels, (n_sites, 1, 1))
    if kind == "basis":
        k = (twice_spin - np.array(_basis_config(doc, n_sites, twice_spin).twice_values)) // 2
        sites = np.zeros((n_sites, levels, levels), dtype=complex)
        sites[np.arange(n_sites), k, k] = 1.0
        return sites
    dim = levels**n_sites
    if dim > entanglement.GLOBAL_DIM_CAP:
        raise UsageError(f"a state of {dim} configurations exceeds the dense cap "
                         f"{entanglement.GLOBAL_DIM_CAP}")
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
        return _checked(rho, "state matrix")
    raise UsageError(f"unknown state kind {kind!r}")


# ---------------------------------------------------------------------------
# CSV output


def _column_text(column):
    """A function from a slice of the column's rows to their text, the
    format chosen once from the whole column's dtype: repr for reals,
    decimal for integers (any size) and 0/1 for bools. A list of strings
    is a column formatted already."""
    if isinstance(column, list) and column and isinstance(column[0], str):
        return column.__getitem__
    values = np.asarray(column)
    if values.dtype.kind == "b":
        values = values.view(np.int8)
    text = repr if values.dtype.kind == "f" else str
    return lambda rows: list(map(text, values[rows].tolist()))


def write_csv(path, header, columns):
    """The format line, the header and one row per entry of the columns,
    formatted column by column and written CSV_BLOCK rows at a time."""
    texts = list(map(_column_text, columns))
    rows = min(map(len, columns), default=0)
    with open(path, "w", newline="") as fh:
        fh.write(f"# format: {CSV_FORMAT}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_BLOCK):
            block = slice(start, min(start + CSV_BLOCK, rows))
            fh.write("\n".join(map(",".join, zip(*(text(block) for text in texts)))) + "\n")


# ---------------------------------------------------------------------------
# commands


def _torus_block_fits(model: dict, n: int, p: int) -> bool:
    return "system_block_side" in model and int(model["side"]) >= int(model["system_block_side"]) + 2


def _fraction_asymptotic(cf, model: dict, n: int, p: int, j: float, times):
    from fractions import Fraction

    return cf.log_det_infinite_fraction_asymptotic(n, Fraction(p, n), j, times)


# --closed-form name -> (the coupling model type it is derived for, the
# geometry it needs as a usage error states it, holds(model document, N, p):
# whether a run meets that geometry, log_det(closedforms, model document,
# N, p, J, times))
_CLOSED_FORMS = {
    "nn1d": ("nn_ring_1d", "N >= p + 2", lambda m, n, p: n >= p + 2,
             lambda cf, m, n, p, j, t: cf.log_det_nn_1d(p, j, t)),
    "inf": ("infinite_range", "1 <= p < N", lambda m, n, p: True,
            lambda cf, m, n, p, j, t: cf.log_det_infinite_range(n, p, j, t)),
    "2d": ("nn_torus_2d", "a 'system_block_side' q and a side of at least q + 2", _torus_block_fits,
           lambda cf, m, n, p, j, t: cf.log_det_2d_nn(int(m["system_block_side"]), j, t)),
    "frac-asym": ("infinite_range", "1 <= p < N", lambda m, n, p: True, _fraction_asymptotic),
}


def _closed_form_series(name: str, cfg: dict, ensemble_doc: dict, spec: EnsembleSpec,
                        times: np.ndarray):
    from fractions import Fraction

    from . import closedforms

    model_type, rule, holds, log_det = _CLOSED_FORMS[name]
    model = ensemble_doc.get("model")
    if model is None:
        raise UsageError("--closed-form needs an ensemble built from a named model")
    n, p = spec.n_total, spec.n_system
    if model.get("type") != model_type or not holds(model, n, p):
        raise UsageError(
            f"--closed-form {name} needs an {model_type!r} model with {rule}; "
            f"this run has an {model.get('type')!r} model with N = {n}, p = {p}"
        )
    env_kind = cfg.get("environment", {}).get("kind", "mixed")
    if spec.twice_spin != 1 or env_kind != "mixed":
        raise UsageError(
            f"--closed-form {name} assumes spin 1/2 and the 'mixed' environment; "
            f"this run has spin {Fraction(spec.twice_spin, 2)} and a {env_kind!r} environment"
        )
    return log_det(closedforms, model, n, p, float(model.get("J", 1.0)), times)


def cmd_witness(args) -> int:
    cfg = _load_config(args.config)
    spec, ensemble_doc = _ensemble(cfg, Path(args.config).parent)
    env = _environment(cfg, spec)
    times = _grid(cfg, args.grid)
    if args.closed_form is not None:
        ref = np.asarray(_closed_form_series(args.closed_form, cfg, ensemble_doc, spec, times))
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
        json.dump(series.episodes, fh)  # tuples write as JSON arrays
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
    spec, _ = _ensemble(cfg, Path(args.config).parent)
    times = _grid(cfg, args.grid)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_text = None  # every file has the same time column: format it once
    for token in _parse_betas(args.betas):
        env = _thermal(spec, token)
        label = "inf" if token == "infinity" else token
        series = engine.detect_episodes(
            spec, env, float(times[0]), float(times[-1]), times.size
        )
        path = out_dir / f"witness_beta_{label}.csv"
        t_text = t_text or _column_text(series.times)(slice(None))
        write_csv(
            path,
            ["t", "log_det", "det", "dlogdet_dt", "in_episode"],
            [t_text, series.log_det, series.det, series.dlogdet_dt, series.in_episode],
        )
        print(f"wrote {path} ({len(series.episodes)} episodes)")
    return 0


def cmd_compare_measures(args) -> int:
    from . import qubit

    cfg = _load_config(args.config)
    spec, _ = _ensemble(cfg, Path(args.config).parent)
    if spec.n_system != 1 or spec.twice_spin != 1:
        raise UsageError("compare-measures is defined for a single spin-1/2 system")
    env = _environment(cfg, spec)
    times = _grid(cfg, args.grid)
    report = qubit.measures_agreement_report(engine.WitnessEvaluator(spec, env), times)
    a, d = report.amplitude, report.dlog_det
    if np.iscomplexobj(a):  # a row asymmetric in frequency: A is complex
        header, columns = ["A_re", "A_im", "dA2_dt"], [a.real, a.imag, np.abs(a) ** 2 * d]
    else:
        header, columns = ["A", "Aprime"], [a, a * d / 2.0]
    write_csv(
        args.out,
        ["t", *header, "gamma_z", "D_opt", "flag_geo", "flag_rhp", "flag_blp", "singular"],
        [
            report.times,
            *columns,
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
    """map over a time grid: for threads > 1 a thread pool's map, the pool
    opened on the first call, so a path that never maps pays nothing; else
    the builtin."""
    if threads == 1:
        yield map
        return
    pool = None

    def pool_map(fn, *iterables):
        nonlocal pool
        if pool is None:
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(max_workers=threads)
        return pool.map(fn, *iterables)

    try:
        yield pool_map
    finally:
        if pool is not None:
            pool.shutdown()


def cmd_negativity(args) -> int:
    if args.threads < 1:
        raise UsageError(f"--threads needs at least 1, got {args.threads}")
    cfg = _load_config(args.config)
    spec, _ = _ensemble(cfg, Path(args.config).parent)
    times = _grid(cfg, args.grid)
    kind, cut_sites = _parse_cut(args.cut or cfg.get("cut", "global"), spec.n_system)

    if kind == "global":
        if "system_state" not in cfg or "environment_state" not in cfg:
            raise UsageError("global negativity needs 'system_state' and 'environment_state'")
        rho_s = _state(cfg["system_state"], spec.n_system, spec.twice_spin)
        rho_e = _state(cfg["environment_state"], spec.n_env, spec.twice_spin)
        with _time_map(args.threads) as map_times:
            result = entanglement.global_negativity_series(spec, rho_s, rho_e, times, map_times)
    else:
        if "system_state" not in cfg:
            raise UsageError("system-cut negativity needs 'system_state'")
        rho_s = _state(cfg["system_state"], spec.n_system, spec.twice_spin)
        env = _environment(cfg, spec)
        result = entanglement.system_negativity_series(spec, rho_s, env, times, cut_sites)
    raw = result.negativity
    write_csv(
        args.out,
        ["t", "negativity", "min_eigenvalue", "trace_norm"],
        [times, np.maximum(raw, 0.0), result.min_eigenvalue, result.trace_norm],
    )
    print(f"wrote {args.out} ({result.path} path, max negativity {raw.max():.6g})")
    return 0


def cmd_thermo_limit(args) -> int:
    from fractions import Fraction

    from . import closedforms

    with _reading_input():
        n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
        jt = float(args.jt)
        r = Fraction(args.r) if args.family == "fraction" else None
    if not np.isfinite(jt):
        raise UsageError(f"--jt must be finite, got {args.jt}")
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
    from . import oracle

    if args.specs < 1:
        raise UsageError(f"--specs needs at least 1 ensemble, got {args.specs}")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    report = oracle.run_verification(seed=args.seed, n_specs=args.specs)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for name, check in sorted(report["checks"].items()):
        print(f"{'PASS' if oracle._check_passed(check) else 'FAIL'} {name}: {check['value']:.3e}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------


class _Unbuilt:
    """Stands in for the parser of a subcommand that is not built."""

    def add_argument(self, *args, **kwargs):
        pass

    set_defaults = add_argument


_COMMANDS = ("witness", "thermal-sweep", "compare-measures", "negativity", "thermo-limit", "verify")


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged.

    With a command, only that subcommand's parser is built: its help, its
    usage errors and the top-level usage line read as the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="spindeph",
        description="Exact dephasing dynamics and non-Markovianity witnesses "
        "for spin subsystems of pairwise-ZZ ensembles.",
    )
    # the usage line lists every subcommand, whichever are built
    choices = "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else choices)

    def add_parser(name, help_text):
        return sub.add_parser(name, help=help_text) if command in (None, name) else _Unbuilt()

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--grid", help="time grid override start:stop:points (units 1/J)")

    p = add_parser("witness", "witness series and episode detection")
    add_common(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--episodes", help="episode JSON path (default: derived from --out)")
    p.add_argument("--closed-form", choices=tuple(_CLOSED_FORMS), help="add comparison columns")
    p.set_defaults(func=cmd_witness)

    p = add_parser("thermal-sweep", "one witness CSV per inverse temperature")
    add_common(p)
    p.add_argument("--betas", required=True, help="comma list, e.g. 0,1,3,inf (units 1/J)")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_thermal_sweep)

    p = add_parser("compare-measures", "geometric vs RHP vs BLP flags (p=1)")
    add_common(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_compare_measures)

    p = add_parser("negativity", "entanglement series across a cut")
    add_common(p)
    p.add_argument("--cut", help="'global' or 'system:<sites>' (default from config)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads over the time grid of the dense global path")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_negativity)

    p = add_parser("thermo-limit", "closed-form log det versus ensemble size")
    p.add_argument("--family", required=True, choices=("fixed-p", "fraction"))
    p.add_argument("--n-list", required=True, help="comma list of ensemble sizes")
    p.add_argument("--p", type=int, default=1, help="system size for fixed-p")
    p.add_argument("--r", default="1/2", help="system fraction for fraction family")
    p.add_argument("--jt", default="1.0", help="dimensionless time J t")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_thermo_limit)

    p = add_parser("verify", "run the oracle verification suite")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--specs", type=int, default=50, help="number of random ensembles")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
