import argparse
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindeph import cli


def preset(name):
    return str(resources.files("spindeph").joinpath("presets", name))


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# format: spindeph-csv")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


BASE = {
    "reference_energy": 1.0,
    "ensemble": {
        "n_total": 6,
        "n_system": 1,
        "twice_spin": 1,
        "model": {"type": "nn_ring_1d", "J": 1.0},
        "fields": 0.5,
    },
    "environment": {"kind": "mixed"},
    "grid": {"start": 0.0, "stop": 6.283185307179586, "points": 400},
}


def test_witness_deterministic_and_closed_form(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["witness", "--config", cfg, "--out", str(out1), "--closed-form", "nn1d"]) == 0
    assert cli.main(["witness", "--config", cfg, "--out", str(out2), "--closed-form", "nn1d"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header[:5] == ["t", "log_det", "det", "dlogdet_dt", "in_episode"]
    assert "closed_form_log_det" in header
    devs = [abs(float(r[header.index("log_det_deviation")])) for r in rows]
    assert max(d for d in devs if np.isfinite(d)) < 1e-12
    episodes = json.loads((tmp_path / "a.episodes.json").read_text())
    assert len(episodes) == 2
    assert episodes[0][0] == pytest.approx(np.pi / 2, abs=1e-7)


def test_consecutive_main_calls_share_one_parser(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    argv = ["witness", "--config", cfg, "--grid", "0:3:40"]
    assert cli.main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["witness", "--config", cfg, "--closed-form", "nope", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["thermo-limit", "--family", "fixed-p", "--n-list", ",", "--out", str(tmp_path / "x.csv")]) == 2
    assert "--n-list needs at least one size" in capsys.readouterr().err
    assert cli.main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.episodes.json").read_bytes() == (tmp_path / "b.episodes.json").read_bytes()
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# the command line against an argparse reference that declares the same
# commands and options as cli._COMMANDS


@functools.cache
def reference_parser():
    parser = argparse.ArgumentParser(prog="spindeph")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--grid")

    p = sub.add_parser("witness")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--episodes")
    p.add_argument("--closed-form", choices=("nn1d", "inf", "2d", "frac-asym"))
    p.set_defaults(func=cli.cmd_witness)

    p = sub.add_parser("thermal-sweep")
    add_common(p)
    p.add_argument("--betas", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cli.cmd_thermal_sweep)

    p = sub.add_parser("compare-measures")
    add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cli.cmd_compare_measures)

    p = sub.add_parser("negativity")
    add_common(p)
    p.add_argument("--cut")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cli.cmd_negativity)

    p = sub.add_parser("thermo-limit")
    p.add_argument("--family", required=True, choices=("fixed-p", "fraction"))
    p.add_argument("--n-list", required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--r", default="1/2")
    p.add_argument("--jt", default="1.0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cli.cmd_thermo_limit)

    p = sub.add_parser("verify")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--specs", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_verify)
    return parser


def reference_options(command):
    """The reference's option actions of a command, --help excluded."""
    sub = reference_parser()._subparsers._group_actions[0].choices[command]
    return [a for a in sub._actions if a.option_strings and a.dest != "help"]


def _parsed(parse, argv):
    """(the parsed attributes or the exit code, stdout, stderr) of a parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["nope"], ["--config", "x"],
    *([name, "--help"] for name in cli._COMMANDS),
    *([name] for name in cli._COMMANDS if name != "verify"),
    ["witness", "--config", "c.json", "--out", "o.csv", "extra"],
    ["witness", "--config", "c.json", "--out", "o.csv", "--closed-form", "nope"],
    ["negativity", "--config", "c.json", "--out", "o.csv", "--threads", "two"],
    ["thermo-limit", "--family", "other", "--n-list", "4", "--out", "o.csv"],
    ["verify", "--specs"],
])
def test_one_subcommand_parser_reads_as_the_full_parser(argv):
    # the table parser reads only the chosen command's options; its exit
    # code, its stream and its error line are the full argparse parser's
    # (usage lines are not wrapped, and help texts differ)
    code, out, err = _parsed(cli.parse_args, argv)
    ref_code, ref_out, ref_err = _parsed(reference_parser().parse_args, argv)
    assert code in (0, 2) and code == ref_code
    assert (bool(out), bool(err)) == (bool(ref_out), bool(ref_err))
    assert (out + err).startswith("usage: spindeph")
    assert err.splitlines()[-1:] == ref_err.splitlines()[-1:]


def _prefix(name, cut):
    """The option's name cut to at least "--" and one letter."""
    return name[:max(3, len(name) - cut)]


VALUE = st.text(st.sampled_from("abc019:/._,= "), max_size=6).filter(lambda v: not v.startswith("-"))


@st.composite
def command_argv(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = []
    for action in draw(st.permutations(reference_options(command))):
        if not draw(st.integers(0, 4)):
            continue  # left out: a required option goes missing
        if action.type is int:
            value = draw(st.one_of(st.integers(-99, 10**6).map(str), st.sampled_from(["two", "1.5", ""])))
        elif action.choices:
            value = draw(st.sampled_from([*action.choices, "nope"]))
        else:
            value = draw(VALUE)
        name = _prefix(action.option_strings[0], draw(st.integers(0, 8)))
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    for extra in draw(st.lists(st.sampled_from(["--unknown", "stray", "--unknown=1"]), max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), extra)
    if draw(st.integers(0, 4)) == 0:  # a trailing option without its value
        argv.append(draw(st.sampled_from(reference_options(command))).option_strings[0])
    return [command, *argv]


@settings(max_examples=400, deadline=None)
@given(command_argv())
def test_the_table_parser_accepts_what_argparse_accepted(argv):
    parsed, _, err = _parsed(cli.parse_args, argv)
    reference, _, ref_err = _parsed(reference_parser().parse_args, argv)
    assert parsed == reference  # the same values, or the same exit code
    assert err.splitlines()[-1:] == ref_err.splitlines()[-1:]


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_exits_0_and_names_every_option(command):
    argv = ["--help"] if command is None else [command, "--help"]
    code, out, err = _parsed(cli.parse_args, argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: spindeph")
    names = list(cli._COMMANDS) if command is None else \
        [a.option_strings[0] for a in reference_options(command)]
    assert all(name in out for name in names)


def test_a_value_may_start_with_a_single_dash(tmp_path):
    # argparse refused "-1:1:5" as an option it did not know
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "neg.csv"
    assert cli.main(["witness", "--config", cfg, "--grid", "-1:1:5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert cli.parse_args(["thermo-limit", "--family", "fixed-p", "--n-list", "4", "--jt", "-0.5",
                           "--out", "o.csv"]).jt == "-0.5"


def test_mixed_witness_does_not_import_numpy_ma(tmp_path):
    # numpy.ma takes about 30 ms to import in a fresh process, and numpy 2.4
    # imports it for a 1-D np.unique without optional outputs
    cfg = write_config(tmp_path, BASE)
    code = ("import sys; from spindeph import cli; "
            f"rc = cli.main(['witness', '--config', {cfg!r}, '--out', {str(tmp_path / 'w.csv')!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.stdout.splitlines()[-1] == "0 False"


def test_witness_default_grid(tmp_path):
    doc = dict(BASE)
    doc.pop("grid")
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "d.csv"
    assert cli.main(["witness", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1000
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(2 * np.pi, abs=1e-12)


def test_witness_grid_override(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "g.csv"
    assert cli.main(["witness", "--config", cfg, "--out", str(out), "--grid", "0:1:11"]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 11
    assert float(rows[-1][0]) == 1.0


def test_witness_requires_reference_energy(tmp_path):
    doc = dict(BASE)
    doc.pop("reference_energy")
    cfg = write_config(tmp_path, doc)
    assert cli.main(["witness", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


def test_unknown_closed_form_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    with pytest.raises(SystemExit):
        cli.main(["witness", "--config", cfg, "--out", "x.csv", "--closed-form", "bogus"])


def test_thermal_sweep_beta0_equals_mixed_witness(tmp_path):
    doc = {
        "reference_energy": 1.0,
        "ensemble": {
            "n_total": 10,
            "n_system": 2,
            "twice_spin": 1,
            "model": {"type": "nn_ring_1d", "J": 1.0},
            "fields": 1.0,
        },
        "environment": {"kind": "mixed"},
        "grid": {"start": 0.0, "stop": 6.283185307179586, "points": 300},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "mixed.csv"
    assert cli.main(["witness", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main([
        "thermal-sweep", "--config", cfg, "--betas", "0,1,inf",
        "--out-dir", str(tmp_path / "sweep"),
    ]) == 0
    sweep0 = (tmp_path / "sweep" / "witness_beta_0.csv").read_bytes()
    assert sweep0 == out.read_bytes()
    assert (tmp_path / "sweep" / "witness_beta_1.csv").exists()
    assert (tmp_path / "sweep" / "witness_beta_inf.csv").exists()


def test_thermal_sweep_enumerates_the_environment_once(tmp_path, monkeypatch):
    from spindeph import model

    built, original = [], model._energies

    def counted(spec, sites):
        built.append(sites)
        return original(spec, sites)

    monkeypatch.setattr(model, "_energies", counted)
    cfg = write_config(tmp_path, dict(BASE, ensemble=dict(BASE["ensemble"], n_total=8, n_system=2)))
    assert cli.main(["thermal-sweep", "--config", cfg, "--betas", "0.5,1,3,inf",
                     "--out-dir", str(tmp_path / "sweep")]) == 0
    assert len(built) == 2  # one table for the system, one for the environment


def test_thermal_sweep_empty_betas(tmp_path):
    cfg = write_config(tmp_path, BASE)
    assert cli.main([
        "thermal-sweep", "--config", cfg, "--betas", ",", "--out-dir", str(tmp_path / "d"),
    ]) == 2


def test_thermal_sweep_checks_every_beta_before_it_writes(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    for betas, token in [("1,-1", "-1"), ("0.5,nan", "nan"), ("2,-inf", "-inf"), ("1,x", "x")]:
        out_dir = tmp_path / f"sweep-{token}"
        assert cli.main(["thermal-sweep", "--config", cfg, "--betas", betas,
                         "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and repr(token) in err[0]
        assert not out_dir.exists()


def test_every_spelling_of_infinite_beta_is_the_ground_state(tmp_path):
    cfg = write_config(tmp_path, BASE)
    spellings = ["inf", "Infinity", "+inf", "1e999", "INF"]
    for k, token in enumerate(spellings):
        assert cli.main(["thermal-sweep", "--config", cfg, "--betas", token,
                         "--out-dir", str(tmp_path / f"s{k}")]) == 0
        assert [f.name for f in (tmp_path / f"s{k}").iterdir()] == ["witness_beta_inf.csv"]
    texts = {(tmp_path / f"s{k}" / "witness_beta_inf.csv").read_bytes() for k in range(len(spellings))}
    assert len(texts) == 1
    # a configuration's "beta" reads the same: a string, or a JSON number past the float range
    text = json.dumps(dict(BASE, environment={"kind": "thermal", "beta": "@"}))
    for k, beta in enumerate(['"Infinity"', "1e999"]):
        path = tmp_path / f"inf{k}.json"
        path.write_text(text.replace('"@"', beta))
        out = tmp_path / f"w{k}.csv"
        assert cli.main(["witness", "--config", str(path), "--out", str(out)]) == 0
        assert {out.read_bytes()} == texts


def test_compare_measures(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "cm.csv"
    assert cli.main(["compare-measures", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "A", "Aprime", "gamma_z", "D_opt",
                      "flag_geo", "flag_rhp", "flag_blp", "singular"]
    flips = [r for r in rows if r[5] == "1"]
    assert flips  # non-Markovian region exists
    # flags flip at pi/(2J): first flagged time is just past it
    assert float(flips[0][0]) == pytest.approx(np.pi / 2, abs=0.02)


def test_compare_measures_requires_p1(tmp_path):
    doc = dict(BASE)
    doc["ensemble"] = dict(doc["ensemble"], n_system=2)
    cfg = write_config(tmp_path, doc)
    assert cli.main(["compare-measures", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


def test_compare_measures_disagreement_exits_1_and_still_writes(tmp_path, capsys, monkeypatch):
    # the exit-1 branch: flags that disagree off singular points are
    # reported on stderr, and the CSV holds the report as computed
    import dataclasses

    from spindeph import qubit

    real = qubit.measures_agreement_report

    def disagreeing(evaluator, times):
        report = real(evaluator, times)
        report = dataclasses.replace(report, flag_blp=~report.flag_blp)
        assert not report.agreement()
        return report

    monkeypatch.setattr(qubit, "measures_agreement_report", disagreeing)
    out = tmp_path / "cm.csv"
    assert cli.main(["compare-measures", "--config", write_config(tmp_path, BASE), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == "measure disagreement detected off singular points"
    header, rows = read_csv(out)
    assert len(rows) == BASE["grid"]["points"]
    assert any(r[header.index("flag_geo")] != r[header.index("flag_blp")] for r in rows)


MEASURES_REAL = ["t", "A", "Aprime", "gamma_z", "D_opt", "flag_geo", "flag_rhp", "flag_blp",
                 "singular"]
MEASURES_COMPLEX = ["t", "A_re", "A_im", "dA2_dt", "gamma_z", "D_opt", "flag_geo", "flag_rhp",
                    "flag_blp", "singular"]


@pytest.mark.parametrize("case", ["magnetized", "gibbs", "gibbs_field"])
def test_compare_measures_single_spin_environments(tmp_path, case):
    # one spin on random couplings to five environment sites, themselves coupled
    from spindeph import oracle, thermal
    from spindeph.engine import EnvPopulations
    from spindeph.model import ensemble_from_dict, system_energies

    rng = np.random.default_rng(2101)
    j = rng.uniform(-1.0, 1.0, size=(6, 6))
    j = np.triu(j, 1) + np.triu(j, 1).T
    field = 0.0 if case == "gibbs" else 0.4
    ensemble = {"n_total": 6, "n_system": 1, "twice_spin": 1, "couplings": j.tolist(),
                "fields": field}
    spec = ensemble_from_dict(ensemble)
    if case == "magnetized":
        env = EnvPopulations.product(
            1, [np.array([0.5 + 0.04 * (i % 5), 0.5 - 0.04 * (i % 5)]) for i in range(5)])
        environment = {"kind": "explicit", "weights": env.weights.tolist()}
    else:
        env = thermal.thermal_populations(spec, 1.0)
        environment = {"kind": "thermal", "beta": 1.0}
    cfg = write_config(tmp_path, dict(BASE, ensemble=ensemble, environment=environment))
    out = tmp_path / "cm.csv"
    assert cli.main(["compare-measures", "--config", cfg, "--grid", "0:10:400",
                     "--out", str(out)]) == 0
    header, rows = read_csv(out)
    cols = {name: np.array([float(r[k]) for r in rows]) for k, name in enumerate(header)}
    if case == "gibbs":  # every row symmetric in frequency: A is real
        assert header == MEASURES_REAL
        a = cols["A"]
    else:
        assert header == MEASURES_COMPLEX
        a = cols["A_re"] + 1j * cols["A_im"]

    # A is the coherence of the oracle's reduced state without its system phase
    t = cols["t"]
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    traced = oracle.oracle_reduced_state(spec, rho0, np.diag(env.weights), t)[:, 0, 1] / 0.5
    energies = system_energies(spec)
    assert np.max(np.abs(a - traced * np.exp(-1j * (energies[1] - energies[0]) * t))) < 1e-12
    ok = cols["singular"] == 0
    assert np.array_equal(cols["flag_geo"][ok], cols["flag_rhp"][ok])
    assert np.array_equal(cols["flag_geo"][ok], cols["flag_blp"][ok])
    assert cols["flag_geo"].any()


def test_compare_measures_field_free_gibbs_marginal_is_real(tmp_path):
    # the ring6 preset without fields at beta = 1: the Gibbs block is
    # marginalized onto the two sites next to the spin, and a marginal
    # symmetric under the spin flip makes A real to the last bit
    from spindeph import oracle, thermal
    from spindeph.model import ensemble_from_dict, system_energies

    doc = json.loads(Path(preset("witness_nn_ring6.json")).read_text())
    doc["ensemble"]["fields"] = 0.0
    doc["environment"] = {"kind": "thermal", "beta": 1.0}
    out = tmp_path / "cm.csv"
    assert cli.main(["compare-measures", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == MEASURES_REAL
    t, a = (np.array([float(r[k]) for r in rows]) for k in range(2))
    spec = ensemble_from_dict(doc["ensemble"])
    weights = thermal.thermal_populations(spec, 1.0).weights
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    traced = oracle.oracle_reduced_state(spec, rho0, np.diag(weights), t)[:, 0, 1] / 0.5
    energies = system_energies(spec)
    assert np.max(np.abs(a - traced * np.exp(-1j * (energies[1] - energies[0]) * t))) < 1e-12


def test_compare_measures_flags_agree_where_a_is_tiny(tmp_path):
    # one spin on 600 couplings: |A| falls far below 1e-162 on this grid,
    # where |A|^2 d / 2 underflows in double although A is not singular
    j = np.zeros((601, 601))
    j[0, 1:] = j[1:, 0] = np.random.default_rng(0).uniform(0.3, 1.5, 600)
    ensemble = dict(BASE["ensemble"], n_total=601, couplings=j.tolist())
    del ensemble["model"]
    out = tmp_path / "cm.csv"
    assert cli.main(["compare-measures", "--config", write_config(tmp_path, dict(BASE, ensemble=ensemble)),
                     "--grid", "0:3:31", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    cols = {name: np.array([float(r[k]) for r in rows]) for k, name in enumerate(header)}
    tiny = (cols["D_opt"] < 1e-162) & (cols["singular"] == 0)
    assert np.any(tiny & (cols["flag_rhp"] == 1))
    for flag in ("flag_geo", "flag_blp"):
        assert np.array_equal(cols[flag], cols["flag_rhp"])


def test_negativity_bell_preset(tmp_path):
    out = tmp_path / "bell.csv"
    code = cli.main([
        "negativity", "--config", preset("negativity_pair_bell_ring6.json"),
        "--grid", "0:1:5", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "negativity", "min_eigenvalue", "trace_norm"]
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-10)


def test_negativity_global_requires_states(tmp_path):
    cfg = write_config(tmp_path, BASE)
    assert cli.main(["negativity", "--config", cfg, "--cut", "global",
                     "--out", str(tmp_path / "x.csv")]) == 2


def _global_doc(system_state, environment_state, n_total=5):
    return dict(BASE, ensemble=dict(BASE["ensemble"], n_total=n_total, n_system=2),
                system_state=system_state, environment_state=environment_state,
                grid={"start": 0.0, "stop": 3.0, "points": 7})


_MIXED_COHERENT = {"kind": "matrix", "re": (0.25 * np.eye(4) + 0.05 * (1 - np.eye(4))).tolist()}


@pytest.mark.parametrize("states, path", [
    (({"kind": "uniform_superposition"}, {"kind": "maximally_mixed"}), "factor_spectra"),
    (({"kind": "maximally_mixed"}, {"kind": "uniform_superposition"}), "factor_spectra"),
    (({"kind": "uniform_superposition"}, {"kind": "uniform_superposition"}), "schmidt"),
    ((_MIXED_COHERENT, {"kind": "uniform_superposition"}), "dense"),
    # D = 512, where LAPACK runs BLAS threads unless they are pinned: the
    # bytes must not depend on --threads there either
    ((_MIXED_COHERENT, {"kind": "uniform_superposition"}, 9), "dense"),
])
def test_global_negativity_threads_byte_identical(tmp_path, capsys, states, path):
    cfg = write_config(tmp_path, _global_doc(*states))
    outs = [tmp_path / f"threads{k}.csv" for k in (1, 2)]
    for k, out in zip((1, 2), outs):
        assert cli.main(["negativity", "--config", cfg, "--cut", "global",
                         "--threads", str(k), "--out", str(out)]) == 0
        assert f"({path} path," in capsys.readouterr().out
    assert outs[0].read_bytes() == outs[1].read_bytes()
    header, rows = read_csv(outs[0])
    assert header == ["t", "negativity", "min_eigenvalue", "trace_norm"] and len(rows) == 7
    if path == "factor_spectra":
        assert all(float(r[1]) < 1e-15 for r in rows)  # separable at every time
    else:
        assert max(float(r[1]) for r in rows) > 1e-3  # coherent environment entangles


def test_threads_are_capped_at_the_cpu_count(tmp_path, monkeypatch, capsys):
    # the pool's map submits every time at once, so it would start one
    # thread per time up to --threads; a fake pool records its size and
    # starts none, and is still opened for --threads 2 on one CPU
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    cfg = write_config(tmp_path, _global_doc(_MIXED_COHERENT, {"kind": "uniform_superposition"}))
    for cpus, threads in ((4, 10**6), (1, 2), (None, 8), (8, 3)):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert cli.main(["negativity", "--config", cfg, "--cut", "global", "--threads", str(threads),
                         "--out", str(tmp_path / "n.csv")]) == 0
        assert "(dense path," in capsys.readouterr().out
    assert sizes == [4, 1, 1, 3]


@pytest.mark.parametrize("states", [
    ({"kind": "maximally_mixed"}, {"kind": "uniform_superposition"}),
    ({"kind": "uniform_superposition"}, {"kind": "maximally_mixed"}),
])
def test_global_negativity_of_rank_one_factor_is_exact(tmp_path, capsys, states):
    # a rank-one factor's null space holds exact zeros, so the separable
    # state reads the unit trace norm up to the rounding of its traces
    cfg = write_config(tmp_path, _global_doc(*states, n_total=9))
    out = tmp_path / "neg.csv"
    assert cli.main(["negativity", "--config", cfg, "--cut", "global", "--out", str(out)]) == 0
    assert "(factor_spectra path," in capsys.readouterr().out
    _, rows = read_csv(out)
    for _, negativity, min_eigenvalue, trace_norm in rows:
        assert float(min_eigenvalue) == 0.0
        assert float(negativity) <= 2.3e-16
        assert abs(float(trace_norm) - 1.0) <= 4.5e-16


def test_thermo_limit_families(tmp_path):
    out = tmp_path / "fix.csv"
    assert cli.main(["thermo-limit", "--family", "fixed-p", "--p", "1",
                     "--n-list", "100,1000,10000", "--jt", "1.0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    vals = [abs(float(r[1])) for r in rows]
    assert vals[0] > vals[1] > vals[2]

    out2 = tmp_path / "frac.csv"
    assert cli.main(["thermo-limit", "--family", "fraction", "--r", "1/2",
                     "--n-list", "8,12,16,20", "--jt", "1.0", "--out", str(out2)]) == 0
    _, rows2 = read_csv(out2)
    vals2 = [float(r[1]) for r in rows2]
    assert all(b < a for a, b in zip(vals2, vals2[1:]))
    # single entry gives a single row
    out3 = tmp_path / "one.csv"
    assert cli.main(["thermo-limit", "--family", "fixed-p", "--n-list", "50",
                     "--out", str(out3)]) == 0
    assert len(read_csv(out3)[1]) == 1
    # the exponents at N = 1020 exceed 2^1024; log det (about -7.02e305) does not
    out4 = tmp_path / "big.csv"
    assert cli.main(["thermo-limit", "--family", "fraction", "--r", "1/2",
                     "--n-list", "1020", "--out", str(out4)]) == 0
    assert -7.03e305 < float(read_csv(out4)[1][0][1]) < -7.02e305


def test_verify_exit_code(tmp_path):
    report_path = tmp_path / "report.json"
    assert cli.main(["verify", "--specs", "4", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert "reduced_state_max_abs_dev" in report["checks"]


# ---------------------------------------------------------------------------
# bad input: one "error:" line on stderr and exit 2, never a traceback


def _expect_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def test_config_without_n_total_is_usage_error(tmp_path, capsys):
    doc = dict(BASE, ensemble={k: v for k, v in BASE["ensemble"].items() if k != "n_total"})
    cfg = write_config(tmp_path, doc)
    msg = _expect_usage_error(["witness", "--config", cfg, "--out", str(tmp_path / "x.csv")], capsys)
    assert "n_total" in msg


def test_system_as_large_as_ensemble_is_usage_error(tmp_path, capsys):
    doc = dict(BASE, ensemble=dict(BASE["ensemble"], n_system=6))
    cfg = write_config(tmp_path, doc)
    _expect_usage_error(["witness", "--config", cfg, "--out", str(tmp_path / "x.csv")], capsys)


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    msg = _expect_usage_error(["witness", "--config", missing, "--out", str(tmp_path / "x.csv")], capsys)
    assert "nope.json" in msg


def test_malformed_grid_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    _expect_usage_error(
        ["witness", "--config", cfg, "--out", str(tmp_path / "x.csv"), "--grid", "0:1:x"], capsys
    )


def test_non_finite_grid_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    cfg = write_config(tmp_path, BASE)
    for grid in ("0:inf:10", "-inf:1:10", "0:nan:10", "-1e308:1e308:10"):
        msg = _expect_usage_error(["witness", "--config", cfg, "--out", out, f"--grid={grid}"], capsys)
        assert "finite" in msg
    # the JSON reader takes Infinity and NaN
    for bound in ("start", "stop"):
        doc = dict(BASE, grid=dict(BASE["grid"], **{bound: float("inf")}))
        cfg = write_config(tmp_path, doc, name=f"{bound}.json")
        _expect_usage_error(["witness", "--config", cfg, "--out", out], capsys)
    assert not (tmp_path / "x.csv").exists()


def test_non_finite_jt_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for jt in ("nan", "inf", "-inf"):
        msg = _expect_usage_error(["thermo-limit", "--family", "fixed-p", "--n-list", "10",
                                   f"--jt={jt}", "--out", str(out)], capsys)
        assert "--jt" in msg
    assert not out.exists()


def test_verify_specs_and_seed_out_of_range_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "report.json"
    for argv in (["--specs", "0"], ["--specs", "-3"], ["--seed", "-1"]):
        msg = _expect_usage_error(["verify", *argv, "--out", str(out)], capsys)
        assert argv[0] in msg
    assert not out.exists()


def test_system_block_over_cap_is_usage_error(tmp_path, capsys):
    # 2^21 system configurations: rejected while the ensemble is read
    doc = dict(BASE, ensemble=dict(BASE["ensemble"], n_total=23, n_system=21))
    cfg = write_config(tmp_path, doc)
    msg = _expect_usage_error(["witness", "--config", cfg, "--out", str(tmp_path / "x.csv")], capsys)
    assert "cap" in msg


def test_thermo_limit_system_size_out_of_range_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    _expect_usage_error(["thermo-limit", "--family", "fixed-p", "--p", "0",
                         "--n-list", "10", "--out", out], capsys)
    _expect_usage_error(["thermo-limit", "--family", "fixed-p", "--p", "10",
                         "--n-list", "100,10", "--out", out], capsys)
    _expect_usage_error(["thermo-limit", "--family", "fraction", "--r", "1",
                         "--n-list", "8", "--out", out], capsys)


def test_global_negativity_over_dimension_cap_is_usage_error(tmp_path, capsys):
    # 2^11 global configurations, over the dense cap of 1024, on the dense
    # path: a mixed, coherent system and a pure, coherent environment
    doc = dict(BASE, ensemble=dict(BASE["ensemble"], n_total=11, n_system=2),
               system_state=_MIXED_COHERENT,
               environment_state={"kind": "uniform_superposition"})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "x.csv"
    msg = _expect_usage_error(["negativity", "--config", cfg, "--cut", "global",
                               "--out", str(out)], capsys)
    assert "2048" in msg and "dense" in msg
    assert not out.exists()


def test_global_negativity_over_dimension_cap_on_factor_spectra(tmp_path, capsys):
    # 2^11 global configurations with both factors mixed, and a 2^11-
    # configuration mixed environment, never build a dense matrix: the
    # product state stays separable
    for n_total, n_system in ((11, 2), (12, 1)):
        doc = dict(BASE, ensemble=dict(BASE["ensemble"], n_total=n_total, n_system=n_system),
                   system_state={"kind": "maximally_mixed"},
                   environment_state={"kind": "maximally_mixed"},
                   grid={"start": 0.0, "stop": 3.0, "points": 5})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "x.csv"
        assert cli.main(["negativity", "--config", cfg, "--cut", "global", "--out", str(out)]) == 0
        assert "(factor_spectra path, max negativity 0)" in capsys.readouterr().out
        header, rows = read_csv(out)
        assert len(rows) == 5 and all(float(r[1]) == 0.0 for r in rows)


def test_global_negativity_factor_over_dimension_cap_is_usage_error(tmp_path, capsys):
    # a 2^11-configuration "matrix" environment factor would itself be built dense
    doc = dict(BASE, ensemble=dict(BASE["ensemble"], n_total=12, n_system=1),
               system_state={"kind": "maximally_mixed"},
               environment_state={"kind": "matrix", "re": [[1.0]]})
    cfg = write_config(tmp_path, doc)
    msg = _expect_usage_error(["negativity", "--config", cfg, "--cut", "global",
                               "--out", str(tmp_path / "x.csv")], capsys)
    assert "2048" in msg and "1024" in msg


def test_global_negativity_basis_environment(tmp_path, capsys):
    # 2^11 environment configurations in one basis state: the factor-spectra
    # path, no entanglement
    doc = _global_doc({"kind": "uniform_superposition"},
                      {"kind": "basis", "config": [1, -1] * 5 + [1]}, n_total=13)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "neg.csv"
    assert cli.main(["negativity", "--config", cfg, "--cut", "global", "--out", str(out)]) == 0
    assert "(factor_spectra path, max negativity 0)" in capsys.readouterr().out
    _, rows = read_csv(out)
    assert len(rows) == 7 and all(r[1:] == ["0.0", "0.0", "1.0"] for r in rows)
    doc["environment_state"]["config"] = [1] * 10
    msg = _expect_usage_error(["negativity", "--config", write_config(tmp_path, doc), "--cut", "global",
                               "--out", str(tmp_path / "y.csv")], capsys)
    assert "10 sites, expected 11" in msg


def test_witness_basis_environment_is_markovian(tmp_path, capsys):
    # every dephasing factor of a basis environment is a pure phase
    doc = dict(BASE, environment={"kind": "basis", "config": [1, -1, 1, 1, -1]})
    out = tmp_path / "w.csv"
    assert cli.main(["witness", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert all(float(r[header.index("det")]) == 1.0 for r in rows)
    assert json.loads((tmp_path / "w.episodes.json").read_text()) == []
    doc["environment"]["config"] = [1, 3, 1, 1, -1]
    msg = _expect_usage_error(["witness", "--config", write_config(tmp_path, doc), "--out", str(out)], capsys)
    assert "spin value 3/2" in msg


def test_negativity_mixture_preset_is_exactly_separable(tmp_path):
    # the superposition is filled with exact entries: the separable state
    # reads negativity 0 and trace norm 1 without rounding
    out = tmp_path / "mixture.csv"
    assert cli.main(["negativity", "--config", preset("negativity_mixture_ring10.json"),
                     "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 200 and all(r[1:] == ["0.0", "0.0", "1.0"] for r in rows)


def test_closed_form_outside_its_assumptions_is_usage_error(tmp_path, capsys):
    # every closed form assumes spin 1/2 and the maximally mixed environment;
    # both runs of "nn1d" below used to exit 0 with deviations of 8e2 and 3e1.
    # Each form also holds for one model and geometry; the runs past it used
    # to exit 0 with deviations of 1.8e2 (nn1d, N = 4, p = 3), 8.6e1 (nn1d on
    # infinite range), 2.2e1 (inf on a ring) and 2.1e3 (2d, no block side)
    spin1 = dict(BASE, ensemble=dict(BASE["ensemble"], n_system=2, twice_spin=2))
    thermal = dict(BASE, environment={"kind": "thermal", "beta": 1.0})
    short_ring = dict(BASE, ensemble=dict(BASE["ensemble"], n_total=4, n_system=3))
    all_to_all = dict(BASE, ensemble=dict(BASE["ensemble"], n_system=2,
                                          model={"type": "infinite_range", "J": 1.0}))
    torus = dict(BASE, ensemble=dict(BASE["ensemble"], n_total=9, n_system=4,
                                     model={"type": "nn_torus_2d", "side": 3, "J": 1.0}))
    cases = ((spin1, "nn1d", "spin"), (thermal, "nn1d", "mixed"),
             (short_ring, "nn1d", "N >= p + 2"), (all_to_all, "nn1d", "'nn_ring_1d'"),
             (BASE, "inf", "'infinite_range'"), (torus, "2d", "system_block_side"))
    for doc, form, word in cases:
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "x.csv"
        msg = _expect_usage_error(["witness", "--config", cfg, "--out", str(out),
                                   "--closed-form", form], capsys)
        assert word in msg
        assert not out.exists()
        # without the closed form the same runs are valid
        assert cli.main(["witness", "--config", cfg, "--grid", "0:1:5", "--out", str(out)]) == 0
        out.unlink()


def test_closed_forms_inside_their_range(tmp_path, capsys):
    # a 2 x 2 block of a 4 x 4 torus (side q + 2) and p = 2 of 6 all-to-all
    # spins; the deviations measured 5.7e-14, 1.7e-15 and 8.4e-5
    torus = dict(BASE, ensemble=dict(BASE["ensemble"], n_total=16, n_system=4, model={
        "type": "nn_torus_2d", "side": 4, "system_block_side": 2, "J": 1.0}))
    all_to_all = dict(BASE, ensemble=dict(BASE["ensemble"], n_system=2,
                                          model={"type": "infinite_range", "J": 1.0}))
    for doc, form, bound in ((torus, "2d", 1e-12), (all_to_all, "inf", 1e-14),
                             (all_to_all, "frac-asym", 1e-3)):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / f"{form}.csv"
        assert cli.main(["witness", "--config", cfg, "--grid", "0.01:0.3:20", "--out", str(out),
                         "--closed-form", form]) == 0
        header, rows = read_csv(out)
        dev = np.array([float(r[header.index("log_det_deviation")]) for r in rows])
        assert np.max(np.abs(dev)) < bound


def test_ensemble_with_model_and_couplings_is_usage_error(tmp_path, capsys):
    # an all-zero coupling matrix next to the ring model: the closed form
    # used to read the model and the engine the matrix, and the run exited
    # 0 with a deviation of 1.5e1
    ensemble = dict(BASE["ensemble"], couplings=np.zeros((6, 6)).tolist())
    cfg = write_config(tmp_path, dict(BASE, ensemble=ensemble))
    out = tmp_path / "x.csv"
    msg = _expect_usage_error(["witness", "--config", cfg, "--out", str(out),
                               "--closed-form", "nn1d"], capsys)
    assert "'model'" in msg and "'couplings'" in msg
    assert not out.exists()


def test_negativity_cut_outside_system_is_usage_error(tmp_path, capsys):
    # the preset's system has two sites, so a cut after three cannot be made
    for cut in ("system:3", "system:2", "system:0"):
        _expect_usage_error(["negativity", "--config", preset("negativity_pair_bell_ring6.json"),
                             "--cut", cut, "--out", str(tmp_path / "x.csv")], capsys)


# Fuzzed ensemble documents: valid ones of at most 4 sites (so each runs in
# milliseconds) with up to two keys deleted or replaced by junk.
_DELETE = object()
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 5), st.floats(-2, 2),
    st.text("ab1 ", max_size=2), st.lists(st.integers(-1, 2), max_size=2),
)
_number = st.floats(-2, 2)
_MODEL_KEYS = ("type", "J", "alpha", "kac_normalization", "side", "system_block_side")


@st.composite
def _ensemble_docs(draw):
    kind = draw(st.sampled_from(
        ["nn_ring_1d", "infinite_range", "power_law_ring_1d", "nn_torus_2d", "couplings"]
    ))
    n_total = 4 if kind == "nn_torus_2d" else draw(st.integers(3, 4))
    doc = {
        "n_total": n_total,
        "n_system": 1 if kind == "nn_torus_2d" else draw(st.integers(1, n_total - 1)),
        "twice_spin": draw(st.integers(1, 2)),
        "fields": draw(st.one_of(_number, st.lists(_number, min_size=n_total, max_size=n_total))),
    }
    if kind == "couplings":
        upper = np.triu(np.reshape(draw(st.lists(_number, min_size=16, max_size=16)), (4, 4)), 1)
        doc["couplings"] = (upper + upper.T)[:n_total, :n_total].tolist()
    else:
        doc["model"] = {"type": kind, "J": draw(_number), "alpha": draw(_number),
                        "kac_normalization": draw(st.booleans()), "side": 2, "system_block_side": 1}
    for key, value in draw(st.lists(st.tuples(
        st.sampled_from(sorted(doc) + list(_MODEL_KEYS)), st.one_of(st.just(_DELETE), _junk)
    ), max_size=2)):
        target = doc.get("model") if key in _MODEL_KEYS else doc
        if isinstance(target, dict):
            if value is _DELETE:
                target.pop(key, None)
            else:
                target[key] = value
    return doc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(_ensemble_docs(), _junk))
def test_fuzzed_ensemble_runs_or_is_usage_error(ensemble):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), dict(BASE, ensemble=ensemble))
        out = Path(tmp) / "w.csv"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["witness", "--config", cfg, "--grid", "0:1:3", "--out", str(out)])
        if code == 0:
            assert len(read_csv(out)[1]) == 3
        else:
            assert code == 2
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


def test_non_hermitian_matrix_state_is_usage_error(tmp_path, capsys):
    # used to pass the reading of input and end in a traceback inside the
    # global negativity
    lopsided = {"kind": "matrix", "re": [[0.5, 0.3], [0.0, 0.5]]}
    doc = dict(BASE, ensemble=dict(BASE["ensemble"], n_total=4, n_system=1),
               system_state=lopsided, environment_state={"kind": "maximally_mixed"})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "x.csv"
    msg = _expect_usage_error(["negativity", "--config", cfg, "--cut", "global",
                               "--out", str(out)], capsys)
    assert "Hermitian" in msg
    assert not out.exists()


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("case, changes, field", [
    # each used to pass the reading of input: the first two and the last
    # exited 0 with NaN dropped or inf written, the others ended in a
    # traceback (OverflowError in the Dirichlet zeros, ValueError in linalg)
    ("weights", {"environment": {"kind": "explicit", "weights": [_NAN, 0.5, 0.25, 0.25]}},
     "weights"),
    ("fields", {"ensemble": {"fields": [_NAN, 0.0, 0.0]}}, "fields"),
    ("couplings", {"ensemble": {"model": None, "couplings": [[0.0, _INF, 1.0], [_INF, 0.0, 1.0],
                                                             [1.0, 1.0, 0.0]]}}, "couplings"),
    ("matrix_nan", {"system_state": {"kind": "matrix", "re": [[0.5, _NAN], [_NAN, 0.5]]}},
     "state matrix"),
    ("matrix_inf", {"system_state": {"kind": "matrix", "re": [[_INF, 0.0], [0.0, 0.5]]}},
     "state matrix"),
])
def test_non_finite_number_in_config_is_usage_error(tmp_path, capsys, case, changes, field):
    doc = dict(BASE, ensemble=dict(BASE["ensemble"], n_total=3),
               system_state={"kind": "maximally_mixed"}, environment_state={"kind": "maximally_mixed"})
    for key, value in changes.items():
        doc[key] = {k: v for k, v in dict(doc.get(key, {}), **value).items() if v is not None}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "x.csv"
    command = ["negativity", "--cut", "global"] if case.startswith("matrix") else ["witness"]
    msg = _expect_usage_error(command + ["--config", cfg, "--out", str(out)], capsys)
    assert field in msg and "finite" in msg
    assert not out.exists()


def test_nn1d_closed_form_on_a_ring_past_the_enumeration_cap(tmp_path, capsys):
    # 2^28 environment configurations: the mixed environment is a product of
    # single-site blocks and only the two sites next to the system dephase it
    from spindeph import thermal
    from spindeph.model import ResourceCapError

    doc = dict(BASE, ensemble=dict(BASE["ensemble"], n_total=30, n_system=2))
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "ring30.csv"
    assert cli.main(["witness", "--config", cfg, "--grid", "0:6.283185307179586:400",
                     "--out", str(out), "--closed-form", "nn1d"]) == 0
    header, rows = read_csv(out)
    t = np.array([float(r[0]) for r in rows])
    dev = np.array([float(r[header.index("log_det_deviation")]) for r in rows])
    away = np.abs(np.cos(t)) > 1e-3
    assert away.sum() > 390 and np.max(np.abs(dev[away])) <= 1e-12
    with pytest.raises(ResourceCapError):
        thermal.maximally_mixed(28, 1).weights


def test_basis_environment_with_wrong_site_count_is_usage_error(tmp_path, capsys):
    # refused while the input is read, not with a traceback when the
    # evaluator is built
    for config in ([1, -1], [1, -1, 1, 1, -1]):
        doc = dict(BASE, ensemble=dict(BASE["ensemble"], n_total=5, n_system=1),
                   environment={"kind": "basis", "config": config})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "x.csv"
        msg = _expect_usage_error(["witness", "--config", cfg, "--out", str(out)], capsys)
        assert "4" in msg and str(len(config)) in msg
        assert not out.exists()


def test_basis_state_not_matching_its_factor_is_usage_error(tmp_path, capsys):
    # a two-site spin-1/2 system: too few sites, too many sites, and a
    # twice-value 0 that a spin 1/2 cannot take; each used to exit 0 with a
    # wrong state or end in an IndexError
    for config, word in (([1], "1 sites"), ([-1, -1, -1], "3 sites"), ([0, 1], "0/2")):
        doc = _global_doc({"kind": "basis", "config": config}, {"kind": "maximally_mixed"})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "x.csv"
        msg = _expect_usage_error(["negativity", "--config", cfg, "--cut", "global",
                                   "--out", str(out)], capsys)
        assert word in msg
        assert not out.exists()


def test_closed_form_reads_the_model_from_an_ensemble_file(tmp_path, capsys):
    inline = write_config(tmp_path, BASE, "inline.json")
    (tmp_path / "ensemble.json").write_text(json.dumps(BASE["ensemble"]))
    doc = {k: v for k, v in BASE.items() if k != "ensemble"}
    from_file = write_config(tmp_path, dict(doc, ensemble_file="ensemble.json"), "file.json")
    outs = [tmp_path / "inline.csv", tmp_path / "file.csv"]
    for cfg, out in zip((inline, from_file), outs):
        assert cli.main(["witness", "--config", cfg, "--out", str(out),
                         "--closed-form", "nn1d"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_negativity_threads_below_one_is_usage_error(tmp_path, capsys):
    for threads in ("0", "-3"):
        out = tmp_path / "x.csv"
        msg = _expect_usage_error(["negativity", "--config", preset("negativity_pair_bell_ring6.json"),
                                   "--threads", threads, "--out", str(out)], capsys)
        assert "--threads" in msg
        assert not out.exists()
