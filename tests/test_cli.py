import hashlib
import inspect
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import ptchain as pc
import ptchain.cli as cli
from ptchain.cli import config_hash, main, validate_config
from ptchain.cookbook import figure_cookbook, figure_names, scale_config
from ptchain.entanglement import ToleranceSet, _correlation_block
from ptchain.errors import ConfigError, UnknownFigure


def base_config(tmp_path, **task):
    return {
        "model": {
            "kind": "chain", "alpha": 1, "v": 1.0, "w": 2.0, "u": 1.0,
            "cells": 64, "boundary": "pbc", "detuning": 1e-12,
        },
        "task": task,
        "output": {"dir": str(tmp_path)},
    }


def run_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return main(["run", str(path)])


class TestValidation:
    def test_unknown_key_rejected(self):
        cfg = {"model": {}, "task": {}, "output": {"dir": "."}, "bogus": 1}
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_negative_cells_exits_2(self, tmp_path):
        cfg = base_config(tmp_path, name="spectrum")
        cfg["model"]["cells"] = -4
        assert run_config(tmp_path, cfg) == 2
        assert not list(tmp_path.glob("*.csv"))

    def test_unknown_task_rejected(self, tmp_path):
        cfg = base_config(tmp_path, name="frobnicate")
        assert run_config(tmp_path, cfg) == 2

    def test_validate_subcommand(self, tmp_path):
        cfg = base_config(tmp_path, name="winding", n_k=512)
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2

    def test_tolerance_override_block(self, tmp_path):
        cfg = base_config(tmp_path, name="winding", n_k=512)
        cfg["tolerances"] = {"tol_edge": 1e-5}
        with pytest.raises(ConfigError, match="reads no tolerances"):
            validate_config(cfg)  # winding reads no tolerance
        cfg = base_config(tmp_path, name="entropy-scan", ells=[2, 4])
        cfg["tolerances"] = {"tol_edge": 1e-5}
        assert validate_config(cfg) is cfg
        cfg["tolerances"]["nope"] = 1.0
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_tol_zero_only_for_chain_density(self, tmp_path):
        cfg = base_config(tmp_path, name="density")
        cfg["tolerances"] = {"tol_zero": 1e-7}
        assert validate_config(cfg) is cfg
        interface_model(cfg)
        with pytest.raises(ConfigError, match=r"interface model reads no "
                                              r"tolerances \['tol_zero'\]"):
            validate_config(cfg)

    def test_out_of_range_ells_are_named(self, tmp_path):
        cfg = base_config(tmp_path, name="entropy-scan", ells=[2, 9, 20])
        cfg["model"]["cells"] = 8
        with pytest.raises(ConfigError, match=r"\[9, 20\]"):
            validate_config(cfg)

    @pytest.mark.parametrize("boundary, need", [("pbc", 4), ("obc", 5)])
    def test_cc_fit_takes_its_fits_minimum(self, tmp_path, boundary, need):
        cfg = base_config(tmp_path, name="cc-fit", ells=list(range(2, 2 + need)))
        cfg["model"]["boundary"] = boundary
        assert validate_config(cfg) is cfg
        cfg["task"]["ells"].pop()
        with pytest.raises(ConfigError, match=f">= {need} subsystem sizes"):
            validate_config(cfg)


def interface_model(cfg):
    cfg["model"] = {"kind": "interface", "v1": 1.5, "v2": 0.5, "w": 1.0,
                    "u": 0.5, "cells_left": 10, "cells_right": 10}


_CC_FIT = {"name": "cc-fit", "ells": [2, 4, 6, 8, 10, 12]}

#: id -> (task block, edit of the base config); every one must exit 2.
MALFORMED = {
    "interface-model-chain-task": ({"name": "spectrum"}, interface_model),
    "chain-model-interface-task": ({"name": "interface"}, None),
    "sizes-not-a-list": ({"name": "casimir", "sizes": 64}, None),
    # one size four times is one point of the fit
    "sizes-not-distinct": ({"name": "casimir", "sizes": [16, 16, 16, 16]}, None),
    # a grid beside explicit ells, malformed or not, is refused
    "ells-and-ell-grid": ({"name": "entropy-scan", "ells": [2], "ell_grid": "garbage"},
                          None),
    "ells-and-valid-ell-grid": (
        {"name": "entropy-scan", "ells": [2], "ell_grid": {"num": 4, "lo": 1, "hi": 8}},
        None),
    "trim-n-string": ({**_CC_FIT, "trim": {"policy": "fixed", "n": "2"}}, None),
    "trim-n-negative": ({**_CC_FIT, "trim": {"policy": "fixed", "n": -1}}, None),
    "trim-threshold-string": (
        {**_CC_FIT, "trim": {"policy": "until_sse", "threshold": "small"}}, None),
    "trim-threshold-negative": (
        {**_CC_FIT, "trim": {"policy": "until_sse", "threshold": -1e-4}}, None),
    "output-dir-not-a-string": ({"name": "spectrum"},
                                lambda cfg: cfg["output"].update(dir=3)),
    "output-prefix-not-a-string": ({"name": "spectrum"},
                                   lambda cfg: cfg["output"].update(prefix=7)),
    "ell-beyond-cells": ({"name": "symmetry-check", "ell": 65}, None),
    "delta-bound-at-min-v-u": (
        {"name": "disorder", "ells": [4], "n_realizations": 2, "delta_bound": 1.0},
        None),
    "n-k-below-8": ({"name": "winding", "n_k": 4}, None),
    "one-realization": (
        {"name": "disorder", "ells": [4], "n_realizations": 1, "delta_bound": 0.5},
        None),
    "dead-disorder-bound-key": (
        {"name": "spectrum"},
        lambda cfg: cfg["model"].update(cells=8, disorder_bound=0.5)),
    # a trim policy the boundary's fit cannot use, or a key the policy ignores
    "trim-until-rmse-on-pbc": (
        {**_CC_FIT, "trim": {"policy": "until_rmse", "threshold": 1e-4}}, None),
    "trim-until-sse-on-obc": (
        {**_CC_FIT, "trim": {"policy": "until_sse", "threshold": 1e-4}},
        lambda cfg: cfg["model"].update(boundary="obc")),
    "trim-n-with-until-sse": (
        {**_CC_FIT, "trim": {"policy": "until_sse", "n": 2}}, None),
    "trim-n-with-until-rmse": (
        {**_CC_FIT, "trim": {"policy": "until_rmse", "n": 2}},
        lambda cfg: cfg["model"].update(boundary="obc")),
    "trim-threshold-with-fixed": (
        {**_CC_FIT, "trim": {"policy": "fixed", "threshold": 1e-4}}, None),
    # a tolerance the task's runner never reads
    "tol-zak-with-winding": ({"name": "winding", "n_k": 512},
                             lambda cfg: cfg.update(tolerances={"tol_zak": 1e-4})),
    "tol-edge-with-spectrum": ({"name": "spectrum"},
                               lambda cfg: cfg.update(tolerances={"tol_edge": 1e-5})),
    "tol-sym-with-entropy-scan": (
        {"name": "entropy-scan", "ells": [2]},
        lambda cfg: cfg.update(tolerances={"tol_sym": 1e-3})),
    # the spec class refuses the model, or the task cannot use it
    "cells-below-alpha-plus-1": ({"name": "spectrum"},
                                 lambda cfg: cfg["model"].update(cells=1)),
    "u-below-detuning": ({"name": "spectrum"},
                         lambda cfg: cfg["model"].update(u=0.5, detuning=1.0)),
    "alpha-beyond-cells": ({"name": "spectrum"},
                           lambda cfg: cfg["model"].update(alpha=9, cells=8)),
    "ells-beyond-cells": ({"name": "entropy-scan", "ells": [20]},
                          lambda cfg: cfg["model"].update(cells=8)),
    "interface-u-zero": ({"name": "interface"},
                         lambda cfg: (interface_model(cfg), cfg["model"].update(u=0.0))),
    "interface-density-u-zero": (
        {"name": "density"},
        lambda cfg: (interface_model(cfg), cfg["model"].update(u=0.0))),
    "interface-w-zero": ({"name": "interface"},
                         lambda cfg: (interface_model(cfg), cfg["model"].update(w=0.0))),
    "delta-L-on-pbc": ({"name": "casimir", "sizes": [8, 12, 16, 20], "delta_L": 2},
                       None),
    # explicit sizes beyond the chain, or fewer than the fit takes
    "ells-partly-beyond-cells": ({"name": "entropy-scan", "ells": [2, 20]},
                                 lambda cfg: cfg["model"].update(cells=8)),
    "cc-fit-ells-beyond-half-chain": ({"name": "cc-fit", "ells": [2, 4, 8, 16, 40]},
                                      None),
    "casimir-three-sizes": ({"name": "casimir", "sizes": [8, 12, 16]}, None),
    "cc-fit-pbc-three-ells": ({"name": "cc-fit", "ells": [2, 4, 6]}, None),
    "cc-fit-obc-four-ells": ({"name": "cc-fit", "ells": [2, 4, 6, 8]},
                             lambda cfg: cfg["model"].update(boundary="obc")),
    "cc-fit-trim-leaves-three": (
        {**_CC_FIT, "trim": {"policy": "fixed", "n": 3}}, None),
    "tol-zero-with-interface-density": (
        {"name": "density"},
        lambda cfg: (interface_model(cfg), cfg.update(tolerances={"tol_zero": 0.5}))),
}


@pytest.mark.parametrize("task, edit", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_config_exits_2(tmp_path, task, edit):
    cfg = base_config(tmp_path, **task)
    if edit is not None:
        edit(cfg)
    assert run_config(tmp_path, cfg) == 2
    assert not list(tmp_path.rglob("*.csv"))
    if isinstance(cfg["output"]["dir"], str):
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert list(manifest["tasks"].values()) == ["error:ConfigError"]
    assert main(["validate", str(tmp_path / "cfg.json")]) == 2


@pytest.mark.parametrize("module", ["ptchain", "ptchain.cli"])
def test_python_m_validate(tmp_path, module):
    # a checkout runs without installing: only src/ on the import path
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    good = tmp_path / "good.json"
    good.write_text(json.dumps(base_config(tmp_path, name="winding", n_k=512)))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(tmp_path, name="frobnicate")))
    for path, code in ((good, 0), (bad, 2)):
        proc = subprocess.run(
            [sys.executable, "-m", module, "validate", str(path)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr


def test_python_m_run_disorder_csv_independent_of_jobs(tmp_path):
    # one BLAS thread per realization, serial or in workers: the default
    # worker count writes the bytes that --jobs 1 writes
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    cfg = base_config(tmp_path, name="disorder", ells=[2, 4, 8],
                      n_realizations=4, delta_bound=0.9)
    cfg["model"].update(cells=24, detuning=1e-10)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    written = []
    for flags in (["--jobs", "1"], []):
        out = tmp_path / f"out{len(written)}"
        proc = subprocess.run(
            [sys.executable, "-m", "ptchain", "run", str(path), "--out", str(out),
             *flags],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        written.append((out / "disorder_disorder.csv").read_bytes())
    assert written[0] == written[1]


def test_rules_cover_the_task_keys():
    # every key a task reads has exactly one rule, and every rule a key
    keys = [key for task in cli.TASKS.values()
            for key in task.optional | task.required | task.config]
    assert set(keys) == set(cli._RULES)


def spy(monkeypatch, name):
    """Record the arguments of every call to ptchain.cli.<name> by parameter
    name, however they were passed, then call it."""
    calls = []
    real = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


class TestToleranceOverrides:
    """Each key of the tolerances block reaches the call that uses it."""

    def test_classification_tolerances_reach_disorder_ensemble(self, tmp_path,
                                                               monkeypatch):
        calls = spy(monkeypatch, "disorder_ensemble")
        cfg = base_config(tmp_path, name="disorder", ells=[4],
                          n_realizations=2, delta_bound=0.9)
        cfg["model"].update(cells=16, detuning=1e-10)
        cfg["tolerances"] = {"tol_edge": 1e-5, "tol_real": 1e-9, "tol_pair": 1e-7}
        assert run_config(tmp_path, cfg) == 0
        [bound] = calls
        assert bound["tolerances"] == ToleranceSet(
            tol_real=1e-9, tol_edge=1e-5, tol_pair=1e-7
        )

    def test_tol_zero_reaches_disorder_ensemble(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "disorder_ensemble")
        cfg = base_config(tmp_path, name="disorder", ells=[4],
                          n_realizations=2, delta_bound=0.9)
        cfg["model"].update(cells=16, detuning=1e-10)
        cfg["tolerances"] = {"tol_zero": 1e-7}
        assert run_config(tmp_path, cfg) == 0
        [bound] = calls
        assert bound["tol_zero"] == 1e-7

    def test_tol_zero_reaches_casimir_energy_table(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "casimir_energy_table")
        cfg = base_config(tmp_path, name="casimir", sizes=[8, 12, 16, 20, 24, 28])
        cfg["model"]["boundary"] = "obc"
        cfg["tolerances"] = {"tol_zero": 1e-7}
        assert run_config(tmp_path, cfg) == 0
        [bound] = calls
        assert bound["tol_zero"] == 1e-7

    def test_tol_zero_reaches_entropy_profile(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "entropy_profile")
        cfg = base_config(tmp_path, name="entropy-scan", ells=[2, 4],
                          prescription="regularized")
        cfg["model"]["boundary"] = "obc"
        cfg["tolerances"] = {"tol_zero": 1e-7}
        assert run_config(tmp_path, cfg) == 0
        [bound] = calls
        assert bound["tol_zero"] == 1e-7

    def test_tol_zero_reaches_chain_density(self, tmp_path, monkeypatch):
        # a clean chain's densities are the diagonal of its correlation block
        calls = spy(monkeypatch, "_correlation_diagonal")
        cfg = base_config(tmp_path, name="density")
        cfg["model"].update(cells=12, boundary="obc")
        cfg["tolerances"] = {"tol_zero": 1e-7}
        assert run_config(tmp_path, cfg) == 0
        [bound] = calls
        assert bound["tol_zero"] == 1e-7

    def test_tol_sym_reaches_symmetry_closure(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "symmetry_closure")
        cfg = base_config(tmp_path, name="symmetry-check", ell=4)
        cfg["tolerances"] = {"tol_sym": 1e-3}
        assert run_config(tmp_path, cfg) == 0
        [bound] = calls
        assert bound["tol_sym"] == 1e-3

    def test_tol_zak_reaches_characterize(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "characterize")
        cfg = base_config(tmp_path, name="zak", n_k=512)
        cfg["model"]["u"] = 0.5
        cfg["tolerances"] = {"tol_zak": 1e-4}
        assert run_config(tmp_path, cfg) == 0
        [bound] = calls
        assert bound["tol_zak"] == 1e-4


class TestRun:
    def test_entropy_scan_outputs(self, tmp_path):
        cfg = base_config(
            tmp_path, name="entropy-scan",
            ell_grid={"num": 6, "lo": 2, "hi": 16, "spacing": "log"},
            prescription="branch_cut",
        )
        assert run_config(tmp_path, cfg) == 0
        csv = (tmp_path / "entropy_scan_entropy.csv").read_text().splitlines()
        assert csv[0] == "ell,re_S,im_S,n_edge_pairs,n_quartets,n_residual"
        rows = [line.split(",") for line in csv[1:]]
        assert all(abs(float(r[2]) + np.pi) < 1e-9 for r in rows)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["tasks"] == {"entropy-scan": "ok"}
        assert manifest["error"] is None

    def test_entropy_summaries_name_route(self, tmp_path):
        scan = base_config(tmp_path / "scan", name="entropy-scan", ells=[2, 4])
        assert run_config(tmp_path, scan) == 0
        summary = json.loads(
            (tmp_path / "scan" / "entropy_scan_summary.json").read_text())
        assert list(summary) == ["task", "prescription", "n_points", "route", "workers"]
        assert summary["route"] == "k_space"
        assert type(summary["workers"]) is int
        # one thread per size, where numpy exports its dgeev
        bound = pc.spectral._numpy_lapack() is not None
        assert summary["workers"] == (min(2, pc.spectral._usable_cpus()) if bound else 1)

        fit = base_config(tmp_path / "fit", name="cc-fit", ells=list(range(2, 12)),
                          prescription="regularized")
        fit["model"].update(boundary="obc", cells=24)
        assert run_config(tmp_path, fit) == 0
        summary = json.loads((tmp_path / "fit" / "cc_fit_summary.json").read_text())
        assert list(summary) == ["task", "prescription", "fit", "route", "workers"]
        assert summary["route"] == "singular_mode"
        assert type(summary["workers"]) is int and summary["workers"] >= 1

        # no config builds a disordered chain for a scan; the runner still names it
        spec = cli._resolve(scan).spec
        offsets = pc.DisorderProfile(0.3 * np.sin(np.arange(spec.cells)))
        disordered = replace(spec, disorder=offsets, detuning=1e-6)
        _, fields = cli._run_entropy_scan(disordered, [2, 4],
                                          prescription=pc.Prescription.REGULARIZED)
        assert fields["route"] == "dense"

    @pytest.mark.parametrize("task", ["spectrum", "density"])
    def test_clean_critical_chain_leaves_the_dense_solve(self, tmp_path, task):
        # 200 periodic cells at the default detuning: kappa = 1.4e-6, where
        # a dense solve of the chain fails its biorthogonality check
        cfg = base_config(tmp_path, name=task)
        cfg["model"]["cells"] = 200
        del cfg["model"]["detuning"]
        assert run_config(tmp_path, cfg) == 0
        summary = json.loads((tmp_path / f"{task}_summary.json").read_text())
        assert summary["route"] == "k_space"
        rows = (tmp_path / f"{task}_{task}.csv").read_text().splitlines()
        assert len(rows) == 1 + (400 if task == "spectrum" else 200)

    def test_spectrum_csv_schema(self, tmp_path):
        cfg = base_config(tmp_path, name="spectrum")
        cfg["model"]["cells"] = 12
        assert run_config(tmp_path, cfg) == 0
        header = (tmp_path / "spectrum_spectrum.csv").read_text().splitlines()[0]
        assert header == "index,re_E,im_E"

    @pytest.mark.parametrize("boundary", ["obc", "pbc"])
    def test_spectrum_of_fully_broken_chain(self, tmp_path, boundary):
        cfg = base_config(tmp_path, name="spectrum")
        cfg["model"].update(cells=12, u=4.0, boundary=boundary, detuning=0.0)
        assert run_config(tmp_path, cfg) == 0
        summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert summary["pt_class"] == "broken"
        rows = (tmp_path / "spectrum_spectrum.csv").read_text().splitlines()[1:]
        assert len(rows) == 24
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    @pytest.mark.parametrize("boundary, route",
                             [("pbc", "k_space"), ("obc", "singular_mode")])
    def test_symmetry_check_route(self, tmp_path, boundary, route):
        cfg = base_config(tmp_path, name="symmetry-check", ell=8)
        cfg["model"]["boundary"] = boundary
        assert run_config(tmp_path, cfg) == 0
        summary = json.loads((tmp_path / "symmetry_check_summary.json").read_text())
        assert summary["route"] == route
        assert "provenance" not in summary
        assert summary["ph_ok"]
        assert summary["t_plus_ok"] is (boundary == "pbc")

    def test_numerical_failure_exit_3(self, tmp_path):
        # exactly critical, zero detuning: defective at k = 0
        cfg = base_config(tmp_path, name="symmetry-check", ell=4)
        cfg["model"]["detuning"] = 0.0
        cfg["model"]["cells"] = 8
        assert run_config(tmp_path, cfg) == 3
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert "error:" in manifest["tasks"]["symmetry-check"]

    @pytest.mark.parametrize("v, w", [(0.5, 0.0), (0.0, 0.5)])
    @pytest.mark.filterwarnings("ignore::ptchain.errors.UnsupportedCouplings")
    def test_zero_coupling_zak_exits_3(self, tmp_path, v, w):
        # a PT-broken chain with v w = 0 has no |v_k| = u crossing
        cfg = base_config(tmp_path, name="zak", n_k=512)
        cfg["model"].update(v=v, w=w, u=1.0, cells=8)
        assert run_config(tmp_path, cfg) == 3
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["tasks"] == {"zak": "error:GridTooCoarse"}
        assert manifest["error"] == "no |v_k| = u crossing found in the broken class"

    def test_disorder_determinism_byte_identical(self, tmp_path):
        cfg = {
            "model": {"kind": "chain", "v": 1.0, "w": 2.0, "u": 1.0,
                      "cells": 24, "boundary": "pbc", "detuning": 1e-10},
            "task": {"name": "disorder", "ells": [4, 8],
                     "n_realizations": 2, "delta_bound": 0.9},
            "seed": 99,
            "output": {"dir": str(tmp_path / "a")},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0
        first = (tmp_path / "a" / "disorder_disorder.csv").read_bytes()
        assert main(["run", str(path)]) == 0
        second = (tmp_path / "a" / "disorder_disorder.csv").read_bytes()
        assert first == second

    def test_disorder_summary_names_route_and_workers(self, tmp_path):
        cfg = base_config(tmp_path, name="disorder", ells=[4, 8],
                          n_realizations=3, delta_bound=0.9)
        cfg["model"].update(cells=16, detuning=1e-10)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for flags, workers in ((["--jobs", "1"], 1),
                               ([], min(3, pc.fits._usable_cpus()))):
            assert main(["run", str(path), *flags]) == 0
            summary = json.loads((tmp_path / "disorder_summary.json").read_text())
            assert list(summary) == ["task", "n_realizations", "base_seed",
                                     "im_min", "im_max", "route", "workers"]
            assert summary["route"] == "dense"
            assert type(summary["workers"]) is int
            assert summary["workers"] == workers

    def test_csv_roundtrip_17_digits(self, tmp_path):
        cfg = base_config(
            tmp_path, name="entropy-scan", ells=[3, 5],
            prescription="branch_cut",
        )
        assert run_config(tmp_path, cfg) == 0
        lines = (tmp_path / "entropy_scan_entropy.csv").read_text().splitlines()
        val = float(lines[1].split(",")[1])
        assert val == float(f"{val:.17g}")

    def test_interface_task(self, tmp_path):
        cfg = {
            "model": {"kind": "interface", "v1": 1.5, "v2": 0.5, "w": 1.0,
                      "u": 0.5, "cells_left": 10, "cells_right": 10},
            "task": {"name": "interface"},
            "output": {"dir": str(tmp_path)},
        }
        assert run_config(tmp_path, cfg) == 0
        summary = json.loads((tmp_path / "interface_summary.json").read_text())
        assert abs(summary["lattice_E"]["im"] - 0.33851345) < 1e-6

    def test_winding_at_critical_point(self, tmp_path):
        # v = 1, w = 2, u = 1 is critical: the Zak quadrature does not
        # converge there, but the winding of v_k is well defined
        cfg = base_config(tmp_path, name="winding", n_k=512)
        assert run_config(tmp_path, cfg) == 0
        summary = json.loads((tmp_path / "winding_summary.json").read_text())
        assert summary["winding"] == 1
        assert summary["pt_class"] == "critical"

    def test_manifest_write_failure_is_reported(self, tmp_path, monkeypatch,
                                                capsys):
        real_write = cli._atomic_write

        def write(path, text):
            if path.endswith("run_manifest.json"):
                raise PermissionError("read-only directory")
            real_write(path, text)

        monkeypatch.setattr(cli, "_atomic_write", write)
        cfg = base_config(tmp_path, name="winding", n_k=512)
        cfg["model"]["u"] = 0.5
        assert run_config(tmp_path, cfg) == 0
        assert "run manifest not written: read-only directory" in capsys.readouterr().err
        assert not (tmp_path / "run_manifest.json").exists()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_outputs_honour_the_umask(self, tmp_path, umask, mode):
        # each output is created as open() creates a file, 0o666 less the
        # umask, and the atomic rename keeps that mode
        cfg = base_config(tmp_path, name="entropy-scan", ells=[2, 4])
        previous = os.umask(umask)
        try:
            assert run_config(tmp_path, cfg) == 0
        finally:
            os.umask(previous)
        names = ["entropy_scan_entropy.csv", "entropy_scan_summary.json",
                 "run_manifest.json"]
        assert {name: (tmp_path / name).stat().st_mode & 0o777 for name in names} == \
            dict.fromkeys(names, mode)
        assert not list(tmp_path.glob(".ptchain-*"))

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError("read-only target")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(PermissionError):
            cli._atomic_write(str(tmp_path / "out.csv"), "a,b\n")
        assert list(tmp_path.iterdir()) == []

    def test_foreign_failure_writes_manifest_and_raises(self, tmp_path,
                                                        monkeypatch):
        # an exception the package does not own keeps its traceback, and the
        # manifest still records the failed run
        def fail(spec, **kwargs):
            raise ZeroDivisionError("complex division by zero")

        monkeypatch.setitem(cli.TASKS, "winding",
                            cli.TASKS["winding"]._replace(run=fail))
        cfg = base_config(tmp_path, name="winding", n_k=512)
        with pytest.raises(ZeroDivisionError):
            run_config(tmp_path, cfg)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["tasks"] == {"winding": "error:ZeroDivisionError"}
        assert manifest["error"] == "complex division by zero"
        assert manifest["outputs"] == []

    def test_jobs_flag_reaches_disorder_ensemble(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "disorder_ensemble")
        cfg = base_config(tmp_path, name="disorder", ells=[4],
                          n_realizations=2, delta_bound=0.9, prescription="regularized")
        cfg["model"].update(cells=16, detuning=1e-10)
        cfg["jobs"] = 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--jobs", "1"]) == 0
        assert main(["run", str(path)]) == 0
        assert [bound["jobs"] for bound in calls] == [1, 3]
        assert main(["run", str(path), "--jobs", "0"]) == 2

    def test_manifest_hash_tracks_content(self, tmp_path):
        cfg = base_config(tmp_path, name="winding", n_k=512)
        h1 = config_hash(cfg)
        cfg2 = json.loads(json.dumps(cfg))
        assert config_hash(cfg2) == h1
        cfg2["model"]["v"] = 1.0001
        assert config_hash(cfg2) != h1

    @pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib"])
    def test_config_hash_is_the_sha256_of_the_canonical_json(self, monkeypatch,
                                                             builtin):
        # CPython's own SHA-256 module, or hashlib where it is missing
        if not builtin:
            for name in ("_sha2", "_sha256"):
                monkeypatch.setitem(sys.modules, name, None)
        for name in figure_names():
            cfg = figure_cookbook(name)
            canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
            assert config_hash(cfg) == hashlib.sha256(canonical.encode()).hexdigest()

    def test_run_loads_no_openssl(self, tmp_path):
        # hashlib would load _hashlib and OpenSSL's libcrypto for the hash
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "from ptchain import cli\n"
            "from ptchain.cookbook import figure_cookbook\n"
            f"cli.execute(figure_cookbook('sm-s1'), {str(tmp_path / 'a')!r})\n"
            f"assert cli.main(['fig', 'sm-s1', '--out', {str(tmp_path / 'b')!r}]) == 0\n"
            "assert '_hashlib' not in sys.modules, 'OpenSSL loaded'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "b" / "run_manifest.json").exists()


class TestCookbook:
    def test_all_presets_validate(self):
        for name in figure_names():
            for cfg in (figure_cookbook(name), scale_config(figure_cookbook(name), 10)):
                assert validate_config(cfg) is cfg

    @pytest.mark.parametrize("name", ["sm-s6", "sm-s6a", "sm-s6b", "sm-s6d"])
    def test_interface_presets_scaled_keep_the_mode_inside_the_gap(self, tmp_path, name):
        # scaling leaves an interface at its 20 + 20 cells
        assert main(["fig", name, "--scale", "10", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "density_summary.json").read_text())
        assert 0 < summary["mode_E"]["im"] < figure_cookbook(name)["model"]["u"]
        assert summary["route"] == "dense"

    def test_unknown_figure(self):
        with pytest.raises(UnknownFigure):
            figure_cookbook("nope")

    def test_fig2d_is_pbc_casimir(self):
        cfg = figure_cookbook("fig2d")
        assert cfg["task"]["name"] == "casimir"
        assert cfg["model"]["boundary"] == "pbc"

    def test_sm_s6b_is_interface_density(self):
        cfg = figure_cookbook("sm-s6b")
        assert cfg["task"]["name"] == "density"
        assert cfg["model"]["kind"] == "interface"
        assert cfg["model"]["v1"] == 1.5

    def test_scale_down_preserves_quantized_outputs(self, tmp_path):
        rc = main(["fig", "fig2b", "--scale", "50", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "cc_fit_summary.json").read_text())
        assert summary["fit"]["coefficients"]["c_over_3"] < -0.5
        csv = (tmp_path / "cc_fit_entropy.csv").read_text().splitlines()
        im_tail = [float(r.split(",")[2]) for r in csv[-5:]]
        assert all(abs(x + np.pi) < 1e-9 for x in im_tail)

    @pytest.mark.parametrize("scale", ["0", "-3"])
    def test_scale_below_one_exits_2(self, tmp_path, capsys, scale):
        # K < 1 must not fall through to the reference scale (L = 10000)
        assert main(["fig", "fig2b", f"--scale={scale}", "--out", str(tmp_path)]) == 2
        assert "--scale" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig_unknown_exits_2(self, tmp_path):
        assert main(["fig", "nope", "--out", str(tmp_path)]) == 2

    def test_sm_s1_zak_preset(self, tmp_path):
        assert main(["fig", "sm-s1", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "zak_summary.json").read_text())
        assert summary["winding"] == 1
        assert summary["re_zak_deviation"] < 1e-6

    def test_sm_s4b_casimir_preset_scaled(self, tmp_path):
        assert main(["fig", "sm-s4b", "--scale", "4", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "casimir_summary.json").read_text())
        slope = summary["fit"]["coefficients"]["slope"]
        assert abs(slope - 0.370240) / 0.370240 < 0.02
        assert summary["fit"]["coefficients"]["delta_L"] == -1.0

    def test_sm_s6b_density_preset(self, tmp_path):
        assert main(["fig", "sm-s6b", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "density_density.csv").read_text().splitlines()[1:]
        re_b = [float(r.split(",")[3]) for r in rows]
        assert min(re_b[17:24]) < -1e-3  # negative B density near the interface

    def test_chain_density_task(self, tmp_path):
        cfg = {
            "model": {"kind": "chain", "v": 2.0, "w": 1.0, "u": 1.0,
                      "cells": 32, "boundary": "obc"},
            "task": {"name": "density"},
            "output": {"dir": str(tmp_path)},
        }
        assert run_config(tmp_path, cfg) == 0
        rows = (tmp_path / "density_density.csv").read_text().splitlines()[1:]
        assert len(rows) == 32
        cell_re = [float(r.split(",")[5]) for r in rows]
        assert all(abs(x - 1.0) < 1e-5 for x in cell_re)

    @pytest.mark.parametrize("boundary", ["pbc", "obc"])
    def test_chain_density_is_the_block_diagonal(self, boundary):
        # the periodic densities are the block's g[a, a, 0], bit for bit;
        # the open ones are sums over the singular triples, no product
        for alpha in (2,) if boundary == "pbc" else (1, 2, 3):
            spec = pc.ChainSpec(alpha=alpha, v=1.0, w=2.0, u=1.0, cells=24,
                                boundary=pc.Boundary(boundary), detuning=1e-10)
            (_, columns), fields = cli._run_density(spec)
            M, route = _correlation_block(spec, spec.cells)
            site = 0.5 + 0.5j * np.diagonal(M)
            assert fields["route"] == route
            for key, theirs in (("n_A", site[0::2]), ("n_B", site[1::2])):
                ours = columns[key]
                if boundary == "pbc":
                    assert ours.tobytes() == theirs.tobytes()
                else:
                    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-14)

    def test_periodic_density_forms_no_block(self):
        # its densities are g[a, a, 0] in every cell. Measured: a peak of
        # 0.5 MB, against 183 MB with the 4000 x 4000 block formed
        spec = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=2000, detuning=1e-12)
        tracemalloc.start()
        try:
            _, fields = cli._run_density(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fields["route"] == "k_space"
        assert peak < 2 * 2**20

    def test_open_density_forms_no_block(self):
        # only the bidiagonal SVD's vectors and workspace, about 5 n^2
        # float64 values; the 2L x 2L block took the peak to 9.5 n^2
        cells = 1000
        spec = pc.ChainSpec(v=2.0, w=1.0, u=1.0, cells=cells, boundary=pc.Boundary.OBC)
        tracemalloc.start()
        try:
            _, fields = cli._run_density(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fields["route"] == "singular_mode"
        assert peak < 6 * cells**2 * 8

    def test_scale_config_divides_extents(self):
        cfg = figure_cookbook("fig4a")
        scaled = scale_config(cfg, 5)
        assert scaled["model"]["cells"] == 200
        assert scaled["task"]["ell_grid"]["hi"] == 100
        assert cfg["model"]["cells"] == 1000  # original untouched
