"""Cold start: what `import spindeph` and the commands load, and the lazy package API.

A command imports only the layers it runs. In-process CLI tests cannot
catch a broken deferred import, because earlier tests have already
imported every module, so every deferred path also runs here in a fresh
interpreter and must write what the in-process run writes.
"""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import spindeph
from spindeph import cli

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(spindeph.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
# modules that only some commands need
DEFERRED = ["spindeph.oracle", "spindeph.qubit", "spindeph.closedforms",
            "concurrent.futures", "fractions", "logging"]

SINGLE_SPIN = {
    "reference_energy": 1.0,
    "ensemble": {"n_total": 6, "n_system": 1, "twice_spin": 1,
                 "model": {"type": "nn_ring_1d", "J": 1.0}, "fields": 0.5},
    "environment": {"kind": "mixed"},
    "grid": {"start": 0.0, "stop": 6.283185307179586, "points": 200},
}
DENSE_GLOBAL = dict(
    SINGLE_SPIN,
    ensemble=dict(SINGLE_SPIN["ensemble"], n_total=5, n_system=2),
    system_state={"kind": "matrix", "re": (0.25 * np.eye(4) + 0.05 * (1 - np.eye(4))).tolist()},
    environment_state={"kind": "uniform_superposition"},
    grid={"start": 0.0, "stop": 3.0, "points": 7},
)


def cold(code):
    """Run Python code in a fresh interpreter; its standard output."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=ENV).stdout


def loaded_after(code, names):
    """Those of `names` that a fresh interpreter holds after running `code`."""
    out = cold(f"{code}\nimport sys, json\nprint(json.dumps([n for n in {names!r} if n in sys.modules]))")
    return json.loads(out.splitlines()[-1])


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_import_spindeph_loads_no_submodule():
    out = cold("import sys, spindeph\nprint([m for m in sys.modules if m.startswith('spindeph.')])")
    assert out.strip() == "[]"


def test_cli_import_leaves_command_only_modules_unloaded():
    assert loaded_after("import spindeph.cli", DEFERRED) == []


def test_mixed_witness_leaves_command_only_modules_unloaded(tmp_path):
    cfg = write_config(tmp_path, SINGLE_SPIN)
    code = ("from spindeph import cli\n"
            f"assert cli.main(['witness', '--config', {cfg!r}, '--out', {str(tmp_path / 'w.csv')!r}]) == 0")
    assert loaded_after(code, DEFERRED) == []


def test_cli_and_a_mixed_witness_load_no_argparse(tmp_path):
    # the command line is parsed from cli's own table; argparse brought
    # gettext and locale with it
    cfg = write_config(tmp_path, SINGLE_SPIN)
    code = ("import spindeph.cli\n"
            f"assert spindeph.cli.main(['witness', '--config', {cfg!r}, '--out', {str(tmp_path / 'w.csv')!r}]) == 0")
    assert loaded_after(code, ["argparse", "gettext", "locale"]) == []


@pytest.mark.parametrize("config, pool", [("schmidt", False), ("dense", True)])
def test_threads_open_a_pool_only_where_the_times_are_mapped(tmp_path, config, pool):
    # the Schmidt path never maps over times, so --threads 2 opens no pool there
    cfg = (str(resources.files("spindeph").joinpath("presets", "negativity_superposition_ring10.json"))
           if config == "schmidt" else write_config(tmp_path, DENSE_GLOBAL))
    code = ("from spindeph import cli\n"
            f"assert cli.main(['negativity', '--config', {cfg!r}, '--cut', 'global', '--threads', '2', "
            f"'--out', {str(tmp_path / 'n.csv')!r}]) == 0")
    assert loaded_after(code, ["concurrent.futures"]) == (["concurrent.futures"] if pool else [])


def _deferred_cases(tmp_path):
    """The argv of each deferred path; "{out}" stands for the output's stem."""
    preset = str(resources.files("spindeph").joinpath("presets", "witness_nn_ring6.json"))
    return {
        "verify": ["verify", "--specs", "2", "--out", "{out}.json"],
        "compare-measures": ["compare-measures", "--config", write_config(tmp_path, SINGLE_SPIN),
                             "--out", "{out}.csv"],
        "thermo-limit": ["thermo-limit", "--family", "fraction", "--r", "1/2",
                         "--n-list", "8,12,16", "--jt", "0.7", "--out", "{out}.csv"],
        "closed-form": ["witness", "--config", preset, "--closed-form", "nn1d",
                        "--out", "{out}.csv", "--episodes", "{out}.episodes.json"],
        "threads": ["negativity", "--config", write_config(tmp_path, DENSE_GLOBAL, "dense.json"),
                    "--cut", "global", "--threads", "2", "--out", "{out}.csv"],
    }


def _outputs(argv, stem):
    return [Path(a.format(out=stem)) for a in argv if "{out}" in a]


@pytest.mark.parametrize("case", ["verify", "compare-measures", "thermo-limit", "closed-form",
                                  "threads"])
def test_deferred_path_runs_cold_and_writes_the_in_process_output(tmp_path, case):
    argv = _deferred_cases(tmp_path)[case]
    warm, fresh = str(tmp_path / "warm"), str(tmp_path / "cold")
    assert cli.main([a.format(out=warm) for a in argv]) == 0
    run = subprocess.run([sys.executable, "-m", "spindeph.cli", *(a.format(out=fresh) for a in argv)],
                         capture_output=True, text=True, env=ENV)
    assert run.returncode == 0, run.stderr
    warm_files, cold_files = _outputs(argv, warm), _outputs(argv, fresh)
    assert all(p.exists() for p in cold_files)
    assert [p.read_bytes() for p in cold_files] == [p.read_bytes() for p in warm_files]


def test_every_public_name_is_its_submodules_object():
    code = ("import spindeph, importlib\n"
            "bad = [n for n in spindeph.__all__ if getattr(spindeph, n) is not "
            "getattr(importlib.import_module('spindeph.' + spindeph._MODULE_OF[n]), n)]\n"
            "print(bad)")
    assert cold(code).strip() == "[]"


def test_every_entanglement_name_is_a_package_name():
    # `entanglement` is the one layer module with an __all__
    from spindeph import entanglement
    missing = [n for n in entanglement.__all__
               if n not in spindeph.__all__ or getattr(spindeph, n) is not getattr(entanglement, n)]
    assert missing == []


def test_dir_lists_every_public_name():
    assert set(spindeph.__all__) <= set(dir(spindeph))
    assert {"__version__", "engine", "oracle"} <= set(dir(spindeph))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spindeph.no_such_name  # noqa: B018
    assert not hasattr(spindeph, "cli_main")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spindeph import *", namespace)
    assert [n for n in spindeph.__all__ if namespace.get(n) is not getattr(spindeph, n)] == []


def test_verify_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # verify's determinants (LAPACK getrf) and lowest eigenvalues (heevd)
    # are of matrices of n <= 64, where one and two OpenBLAS threads give
    # the same bits, so the whole report text is the same
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"verify-{threads}.json"
        run = subprocess.run([sys.executable, "-m", "spindeph.cli", "verify", "--specs", "50",
                              "--seed", "2024", "--out", str(out)],
                             capture_output=True, text=True, env=dict(ENV, OPENBLAS_NUM_THREADS=threads))
        assert run.returncode == 0, run.stderr
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_certified_episodes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the whole episode file of a 1,521-rate ensemble keeps its bits under
    # one and two BLAS threads; the index-order sum over rates is guarded by
    # the bitwise batch test in test_engine.py, since a gemv over the rates
    # gives the same bits under both thread counts here too
    rng = np.random.default_rng(120)
    j = np.triu(rng.uniform(-1.0, 1.0, (120, 120)), 1)
    doc = dict(SINGLE_SPIN, grid={"start": 0.0, "stop": 3.0, "points": 50},
               ensemble={"n_total": 120, "n_system": 3, "twice_spin": 1,
                         "couplings": (j + j.T).tolist(), "fields": 0.0})
    cfg = write_config(tmp_path, doc)
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"episodes-{threads}.json"
        run = subprocess.run([sys.executable, "-m", "spindeph.cli", "witness", "--config", cfg,
                              "--out", str(tmp_path / f"w-{threads}.csv"), "--episodes", str(out)],
                             capture_output=True, text=True, env=dict(ENV, OPENBLAS_NUM_THREADS=threads))
        assert run.returncode == 0, run.stderr
        texts.append(out.read_text())
    assert texts[0] == texts[1] and texts[0].count("[") > 800
