import json

import numpy as np
import pytest

import ptchain.cli as cli
from ptchain.cli import config_hash, main, validate_config
from ptchain.cookbook import figure_cookbook, figure_names, scale_config
from ptchain.entanglement import ToleranceSet
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
        assert validate_config(cfg) is cfg
        cfg["tolerances"]["nope"] = 1.0
        with pytest.raises(ConfigError):
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
    "dead-disorder-bound-key": (
        {"name": "spectrum"},
        lambda cfg: cfg["model"].update(cells=8, disorder_bound=0.5)),
}


@pytest.mark.parametrize("task, edit", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_config_exits_2(tmp_path, task, edit):
    cfg = base_config(tmp_path, **task)
    if edit is not None:
        edit(cfg)
    assert run_config(tmp_path, cfg) == 2
    assert not list(tmp_path.rglob("*.csv"))
    assert main(["validate", str(tmp_path / "cfg.json")]) == 2


def spy(monkeypatch, name):
    """Record the arguments of every call to ptchain.cli.<name>, then call it."""
    calls = []
    real = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
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
        [(_, kwargs)] = calls
        assert kwargs["tolerances"] == ToleranceSet(
            tol_real=1e-9, tol_edge=1e-5, tol_pair=1e-7
        )

    def test_tol_zero_reaches_disorder_ensemble(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "disorder_ensemble")
        cfg = base_config(tmp_path, name="disorder", ells=[4],
                          n_realizations=2, delta_bound=0.9)
        cfg["model"].update(cells=16, detuning=1e-10)
        cfg["tolerances"] = {"tol_zero": 1e-7}
        assert run_config(tmp_path, cfg) == 0
        [(_, kwargs)] = calls
        assert kwargs["tol_zero"] == 1e-7

    def test_tol_zero_reaches_casimir_energy_table(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "casimir_energy_table")
        cfg = base_config(tmp_path, name="casimir", sizes=[8, 12, 16, 20, 24, 28])
        cfg["model"]["boundary"] = "obc"
        cfg["tolerances"] = {"tol_zero": 1e-7}
        assert run_config(tmp_path, cfg) == 0
        [(_, kwargs)] = calls
        assert kwargs["tol_zero"] == 1e-7

    def test_tol_zero_reaches_entropy_profile(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "entropy_profile")
        cfg = base_config(tmp_path, name="entropy-scan", ells=[2, 4],
                          prescription="regularized")
        cfg["model"]["boundary"] = "obc"
        cfg["tolerances"] = {"tol_zero": 1e-7}
        assert run_config(tmp_path, cfg) == 0
        [(args, _)] = calls
        assert args[4] == 1e-7

    def test_tol_zero_reaches_half_filling(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "select_half_filling")
        cfg = base_config(tmp_path, name="density")
        cfg["model"].update(cells=12, boundary="obc")
        cfg["tolerances"] = {"tol_zero": 1e-7}
        assert run_config(tmp_path, cfg) == 0
        [(args, _)] = calls
        assert args[1] == 1e-7

    def test_tol_sym_reaches_symmetry_closure(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "symmetry_closure")
        cfg = base_config(tmp_path, name="symmetry-check", ell=4)
        cfg["tolerances"] = {"tol_sym": 1e-3}
        assert run_config(tmp_path, cfg) == 0
        [(args, _)] = calls
        assert args[1] == 1e-3

    def test_tol_zak_reaches_characterize(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "characterize")
        cfg = base_config(tmp_path, name="zak", n_k=512)
        cfg["model"]["u"] = 0.5
        cfg["tolerances"] = {"tol_zak": 1e-4}
        assert run_config(tmp_path, cfg) == 0
        [(args, _)] = calls
        assert args[2] == 1e-4


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

    def test_numerical_failure_exit_3(self, tmp_path):
        # exactly critical, zero detuning: defective at k = 0
        cfg = base_config(tmp_path, name="symmetry-check", ell=4)
        cfg["model"]["detuning"] = 0.0
        cfg["model"]["cells"] = 8
        assert run_config(tmp_path, cfg) == 3
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert "error:" in manifest["tasks"]["symmetry-check"]

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

    def test_manifest_hash_tracks_content(self, tmp_path):
        cfg = base_config(tmp_path, name="winding", n_k=512)
        h1 = config_hash(cfg)
        cfg2 = json.loads(json.dumps(cfg))
        assert config_hash(cfg2) == h1
        cfg2["model"]["v"] = 1.0001
        assert config_hash(cfg2) != h1


class TestCookbook:
    def test_all_presets_validate(self):
        for name in figure_names():
            cfg = figure_cookbook(name)
            assert validate_config(cfg) is cfg

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

    def test_scale_config_divides_extents(self):
        cfg = figure_cookbook("fig4a")
        scaled = scale_config(cfg, 5)
        assert scaled["model"]["cells"] == 200
        assert scaled["task"]["ell_grid"]["hi"] == 100
        assert cfg["model"]["cells"] == 1000  # original untouched
