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

The command line is read against one table, _COMMANDS: for each command
its options, each with its help, whether it is required, the type its
value is converted with, its default and its choices; -h/--help prints
text built from the same table. A token that starts with "--" is never a
value and any other token is, so "--grid -1:1:5" reads -1:1:5 (parse_args
states the other rules).

Start-up: a run is mostly interpreter start-up, so each command imports
only the layers it runs, and the command line is parsed without argparse,
whose import (with gettext and locale) and first parse cost more than a
millisecond. This module loads model, engine (with dirichlet),
thermal and entanglement (with linalg), which the witness, sweep and
negativity computations share. verify adds oracle, compare-measures adds
qubit, thermo-limit and --closed-form add closedforms (and fractions), and
--threads > 1 adds concurrent.futures once the dense global path maps over
its times. entanglement and linalg stay eager
although witness and thermal-sweep never call them, so that a negativity
run pays their import at start-up and not in the middle of its computation.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import engine, entanglement, thermal
from .linalg import _checked
from .model import (
    EnsembleSpec,
    ResourceCapError,
    SpinConfig,
    _count,
    _integer,
    ensemble_from_dict,
)

CSV_FORMAT = "spindeph-csv v1"
# items per write, rows of a CSV file or episodes of an episode JSON file:
# a writer holds one block's text at a time
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
    return ensemble_from_dict(doc), doc


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
        points = _integer(g.get("points", 1000), "grid.points")
    if not np.isfinite([start, stop, stop - start]).all():
        raise UsageError("grid bounds and their span must be finite")
    if points < 2:
        raise UsageError("grid needs at least 2 points")
    if not stop > start:
        raise UsageError("grid needs stop > start")
    return np.linspace(start, stop, points)


@_reading_input()
def _beta(value) -> float:
    """An inverse temperature: any float spelling of a number >= 0, +inf
    (the ground state) included."""
    beta = float(value)
    if not beta >= 0.0:  # negative or NaN
        raise UsageError(f"beta must be a number >= 0 or inf, got {value!r}")
    return beta


def _thermal(spec: EnsembleSpec, beta: float) -> engine.EnvPopulations:
    """Gibbs populations at beta, or the ground manifold at beta = +inf."""
    if beta == np.inf:
        return thermal.ground_state_populations(spec)
    return thermal.thermal_populations(spec, beta)


@_reading_input()
def _environment(cfg: dict, spec: EnsembleSpec) -> engine.EnvPopulations:
    doc = cfg.get("environment", {"kind": "mixed"})
    kind = doc.get("kind", "mixed")
    if kind == "mixed":
        return thermal.maximally_mixed(spec.n_env, spec.twice_spin)
    if kind == "basis":
        return thermal.basis_state(_basis_config(doc, spec.n_env), spec.twice_spin)
    if kind == "thermal":
        return _thermal(spec, _beta(doc.get("beta", 0.0)))
    if kind == "explicit":
        return engine.EnvPopulations(spec.n_env, spec.twice_spin,
                                     weights=np.asarray(doc["weights"], dtype=float))
    raise UsageError(f"unknown environment kind {kind!r}")


def _basis_config(doc: dict, n_sites: int) -> SpinConfig:
    """The "config" of a "basis" document, checked against its n_sites sites
    (its values are checked where their levels are read)."""
    config = SpinConfig(tuple(doc["config"]))
    if config.site_count != n_sites:
        raise UsageError(f"basis config has {config.site_count} sites, expected {n_sites}")
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
        k = _basis_config(doc, n_sites).validate(twice_spin)
        sites = np.zeros((n_sites, levels, levels), dtype=complex)
        sites[np.arange(n_sites), k, k] = 1.0
        return sites
    dim = levels**n_sites
    if dim > entanglement.GLOBAL_DIM_CAP:
        raise UsageError(f"a state of {_count(dim)} configurations exceeds the dense cap "
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


def write_episodes(path, episodes):
    """The bytes of json.dump(episodes): a JSON array of [start, end] pairs,
    CSV_BLOCK episodes at a time encoded by json's C encoder."""
    with open(path, "w") as fh:
        fh.write("[")
        for start in range(0, len(episodes), CSV_BLOCK):
            # each block's array without its brackets; blocks are joined as items are
            fh.write((", " if start else "") + json.dumps(episodes[start:start + CSV_BLOCK])[1:-1])
        fh.write("]")


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
    write_episodes(episodes_path, series.episodes)
    print(f"wrote {args.out} and {episodes_path} ({len(series.episodes)} episodes)")
    return 0


def _parse_betas(text: str) -> list[tuple[str, float]]:
    """(file label, beta) of each value of --betas, every one checked before
    any is computed; every spelling of +inf is labelled "inf"."""
    tokens = [token.strip().lower() for token in text.split(",") if token.strip()]
    if not tokens:
        raise UsageError("--betas needs at least one value")
    betas = list(map(_beta, tokens))
    return [("inf" if beta == np.inf else token, beta) for token, beta in zip(tokens, betas)]


def cmd_thermal_sweep(args) -> int:
    betas = _parse_betas(args.betas)
    cfg = _load_config(args.config)
    spec, _ = _ensemble(cfg, Path(args.config).parent)
    times = _grid(cfg, args.grid)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_text = None  # every file has the same time column: format it once
    for label, beta in betas:
        env = _thermal(spec, beta)
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
        result = entanglement.global_negativity_series(spec, rho_s, rho_e, times, args.threads)
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
# command line

# one option of a command: its help, whether it must be given, the function
# its value is converted with, its value when not given, and the values it
# may take (None: any)
_Option = namedtuple("_Option", "help required type default choices",
                     defaults=(False, str, None, None))

_CONFIG = _Option("JSON run configuration", required=True)
_GRID = _Option("time grid override start:stop:points (units 1/J)")
_OUT = _Option("output CSV path", required=True)

# command -> (its help, the function that runs it, its options)
_COMMANDS = {
    "witness": ("witness series and episode detection", cmd_witness, {
        "--config": _CONFIG,
        "--grid": _GRID,
        "--out": _OUT,
        "--episodes": _Option("episode JSON path (default: derived from --out)"),
        "--closed-form": _Option("add comparison columns", choices=tuple(_CLOSED_FORMS)),
    }),
    "thermal-sweep": ("one witness CSV per inverse temperature", cmd_thermal_sweep, {
        "--config": _CONFIG,
        "--grid": _GRID,
        "--betas": _Option("comma list, e.g. 0,1,3,inf (units 1/J)", required=True),
        "--out-dir": _Option("output directory", required=True),
    }),
    "compare-measures": ("geometric vs RHP vs BLP flags (p=1)", cmd_compare_measures, {
        "--config": _CONFIG,
        "--grid": _GRID,
        "--out": _OUT,
    }),
    "negativity": ("entanglement series across a cut", cmd_negativity, {
        "--config": _CONFIG,
        "--grid": _GRID,
        "--cut": _Option("'global' or 'system:<sites>' (default from config)"),
        "--threads": _Option("worker threads over the time grid of the dense global path",
                             type=int, default=1),
        "--out": _OUT,
    }),
    "thermo-limit": ("closed-form log det versus ensemble size", cmd_thermo_limit, {
        "--family": _Option("ensemble family", required=True, choices=("fixed-p", "fraction")),
        "--n-list": _Option("comma list of ensemble sizes", required=True),
        "--p": _Option("system size for fixed-p", type=int, default=1),
        "--r": _Option("system fraction for fraction family", default="1/2"),
        "--jt": _Option("dimensionless time J t", default="1.0"),
        "--out": _OUT,
    }),
    "verify": ("run the oracle verification suite", cmd_verify, {
        "--seed": _Option("seed of the random ensembles", type=int, default=2024),
        "--specs": _Option("number of random ensembles", type=int, default=50),
        "--out": _Option("write the JSON report here instead of stdout"),
    }),
}
_DESCRIPTION = ("Exact dephasing dynamics and non-Markovianity witnesses "
                "for spin subsystems of pairwise-ZZ ensembles.")


def _dest(name: str) -> str:
    """The attribute an option's value is read from: "--out-dir" -> "out_dir"."""
    return name[2:].replace("-", "_")


def _metavar(name: str, option: _Option) -> str:
    if option.choices is not None:
        return "{" + ",".join(option.choices) + "}"
    return _dest(name).upper()


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: spindeph [-h] {" + ",".join(_COMMANDS) + "} ..."
    words = [f"{name} {_metavar(name, option)}" if option.required
             else f"[{name} {_metavar(name, option)}]"
             for name, option in _COMMANDS[command][2].items()]
    return " ".join([f"usage: spindeph {command} [-h]", *words])


def _help_text(command: str | None) -> str:
    """The --help text of a command, or of the program for None."""
    def entry(flag, text):
        return f"  {flag:<21} {text}"

    if command is None:
        title, about = "commands", _DESCRIPTION
        rows = [entry(name, text) for name, (text, _, _) in _COMMANDS.items()]
    else:
        title, about = "options", _COMMANDS[command][0]
        rows = [entry("-h, --help", "show this help message and exit")]
        for name, option in _COMMANDS[command][2].items():
            notes = [" (required)" if option.required else "",
                     "" if option.default is None else f" (default: {option.default})"]
            rows.append(entry(f"{name} {_metavar(name, option)}", option.help + "".join(notes)))
    return "\n".join([_usage(command), "", about, "", f"{title}:", *rows]) + "\n"


def _fail(command: str | None, message: str):
    """Report bad argv as argparse does: usage and error on stderr, exit 2."""
    prog = "spindeph" if command is None else f"spindeph {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help(command: str | None, value: str | None):
    if value is not None:
        _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help_text(command))
    raise SystemExit(0)


def _resolve(command: str | None, token: str, names) -> tuple[str | None, str | None]:
    """(the option a token names, its "=" value or None). -h names --help; a
    --token names the option itself or the only option it is a prefix of;
    any other token names none."""
    if token == "-h":
        return "--help", None
    if not token.startswith("--") or token == "--":
        return None, None
    key, eq, value = token.partition("=")
    matches = [key] if key in names else [name for name in names if name.startswith(key)]
    if len(matches) > 1:
        _fail(command, f"ambiguous option: {token} could match {', '.join(matches)}")
    return (matches[0] if matches else None), (value if eq else None)


def _parse_command(command: str, argv: list, before: list) -> SimpleNamespace:
    """The command's option values from the argv after it; `before` are the
    unrecognized tokens before it."""
    _, func, options = _COMMANDS[command]
    # every token from "--" on is unrecognized
    end = argv.index("--") if "--" in argv else len(argv)
    argv, after, strays = argv[:end], argv[end:], [*before]
    # every token is resolved before any is read, so an ambiguous prefix is reported first
    resolved = [_resolve(command, token, ["--help", *options]) for token in argv]
    values, i = {}, 0
    while i < len(argv):
        token, (name, value) = argv[i], resolved[i]
        i += 1
        if name is None:
            strays.append(token)
            continue
        if name == "--help":
            _help(command, value)
        if value is None:
            # the next token is the value, unless it starts with "--"
            if i == len(argv) or argv[i].startswith("--"):
                _fail(command, f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        option = options[name]
        try:
            values[name] = option.type(value)
        except (TypeError, ValueError):
            _fail(command, f"argument {name}: invalid {option.type.__name__} value: {value!r}")
        if option.choices is not None and values[name] not in option.choices:
            choices = ", ".join(map(repr, option.choices))
            _fail(command, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    missing = [name for name, option in options.items() if option.required and name not in values]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    strays += after
    if strays:
        _fail(None, f"unrecognized arguments: {' '.join(strays)}")
    return SimpleNamespace(command=command, func=func, **{
        _dest(name): values.get(name, option.default) for name, option in options.items()})


def parse_args(argv: list) -> SimpleNamespace:
    """The command and its option values from argv, read against _COMMANDS.

    An option's value follows it as the next token or after "=", and a
    unique prefix names an option. A token that starts with "--" is never a
    value; any other token is, so "--grid -1:1:5" reads -1:1:5. -h or
    --help prints the help and exits 0; bad argv prints the usage and the
    error on stderr and exits 2.
    """
    # a token before the command that starts with "-" is unrecognized, as
    # argparse reads it; the first other token names the command
    strays = []
    for i, first in enumerate(argv):
        name, value = _resolve(None, first, ["--help"])
        if name is not None:
            _help(None, value)
        if not first.startswith("-"):
            break
        strays.append(first)
    else:
        _fail(None, "the following arguments are required: command")
    if first not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(None, f"argument command: invalid choice: {first!r} (choose from {choices})")
    return _parse_command(first, argv[i + 1:], strays)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (UsageError, ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
