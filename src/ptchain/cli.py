"""Declarative experiment runner.

Usage:

    ptchain run <config.json> [--out DIR] [--jobs N]
    ptchain fig <name> [--scale K] [--out DIR] [--jobs N]
    ptchain validate <config.json>

A configuration is a single JSON document with a strict schema (unknown
keys are rejected); environment variables are never consulted. Every run
writes its data as CSV (complex columns split into re_/im_ pairs, 17
significant digits), a JSON summary, and a run manifest recording the
config hash, package version, wall time, per-task status and output list.
The manifest is written on failure as well.

The tasks are one table, ``TASKS`` (section "Task table"): each entry
states the model kinds the task accepts, its optional and required task
keys, and its runner. ``validate_config`` and ``execute`` both read it;
the model kinds and their keys are the table ``_MODELS``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (module
error name recorded in the manifest), 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .cookbook import figure_cookbook, figure_names, scale_config
from .entanglement import (
    DEFAULT_TOLERANCES,
    Prescription,
    Provenance,
    ToleranceSet,
    _subsystem_correlation,
    _ungauge,
    entropy_profile,
)
from .errors import ConfigError, PTChainError
from .fits import (
    FixedCount,
    UntilRMSE,
    UntilSSE,
    casimir_energy_table,
    casimir_fit,
    cc_fit_obc,
    cc_fit_pbc,
    disorder_ensemble,
)
from .lattice import Boundary, ChainSpec, InterfaceSpec, build_real_space, classify_pt
from .spectral import (
    TOL_ZERO,
    biorthogonal_diagonalize,
    density_profile,
    select_half_filling,
)
from .edge import interface_continuum, interface_density, interface_lattice_solve
from .topology import TOL_SYM, TOL_ZAK, characterize, symmetry_closure, winding_number

_PRESCRIPTIONS = {p.value: p for p in Prescription}

#: model kind -> (spec class, required keys, optional keys); each key maps
#: to the type its value is converted to.
_MODELS = {
    "chain": (
        ChainSpec,
        {"v": float, "w": float, "u": float, "cells": int, "boundary": Boundary},
        {"alpha": int, "detuning": float},
    ),
    "interface": (
        InterfaceSpec,
        {"v1": float, "v2": float, "w": float, "u": float,
         "cells_left": int, "cells_right": int},
        {},
    ),
}

_CLASSIFICATION_KEYS = {"tol_real", "tol_edge", "tol_pair"}
_TOLERANCE_KEYS = {*_CLASSIFICATION_KEYS, "tol_zero", "tol_sym", "tol_zak"}

#: trim policy -> its keys besides ``policy``; boundary -> the policies its
#: fit takes (cc_fit_pbc trims by SSE, cc_fit_obc by RMSE).
_TRIM_KEYS = {"fixed": {"n"}, "until_sse": {"threshold"}, "until_rmse": {"threshold"}}
_TRIM_POLICIES = {"pbc": ("fixed", "until_sse"), "obc": ("fixed", "until_rmse")}
_POSITIVE_INT = {"kind": int, "positive": True}

#: numeric keys -> _check_num options, the same in whichever block they occur.
_NUMBERS = {
    **dict.fromkeys(("alpha", "cells", "cells_left", "cells_right", "n_k",
                     "n_realizations", "ell", "num", "lo", "hi", "jobs"),
                    _POSITIVE_INT),
    **dict.fromkeys(("v", "w", "v1", "v2"), {}),
    **dict.fromkeys(("u", "detuning"), {"nonneg": True}),
    **dict.fromkeys(("seed", "n"), {"kind": int, "nonneg": True}),
    **dict.fromkeys(("delta_bound", "threshold", *_TOLERANCE_KEYS), {"positive": True}),
}


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------


def _require_keys(block: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _check_num(block: dict, key: str, where: str, kind=float, positive=False,
               nonneg=False):
    if key not in block:
        return
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {val!r}")
    if kind is int and int(val) != val:
        raise ConfigError(f"{where}.{key} must be an integer, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(f"{where}.{key} must be > 0, got {val!r}")
    if nonneg and val < 0:
        raise ConfigError(f"{where}.{key} must be >= 0, got {val!r}")


def _check_nums(block: dict, where: str):
    for key in block:
        if key in _NUMBERS:
            _check_num(block, key, where, **_NUMBERS[key])


def _object(block: dict, key: str, where: str) -> dict:
    if not isinstance(block[key], dict):
        raise ConfigError(f"{where}.{key} must be an object")
    return block[key]


def validate_config(config) -> dict:
    """Strict structural validation; returns the config unchanged."""
    if not isinstance(config, dict):
        raise ConfigError("top-level config must be an object")
    _require_keys(
        config,
        {"model", "task", "output", "seed", "tolerances", "jobs"},
        {"model", "task", "output"},
        "config",
    )
    _check_nums(config, "config")

    model = _object(config, "model", "config")
    kind = model.get("kind")
    if kind not in tuple(_MODELS):
        raise ConfigError("model.kind must be 'chain' or 'interface'")
    _, required, optional = _MODELS[kind]
    _require_keys(model, {"kind", *required, *optional}, {"kind", *required}, "model")
    _check_nums(model, "model")
    if model.get("boundary", "pbc") not in ("pbc", "obc"):
        raise ConfigError("model.boundary must be 'pbc' or 'obc'")

    task = _object(config, "task", "config")
    name = task.get("name")
    if name not in tuple(TASKS):
        raise ConfigError(f"task.name must be one of {tuple(TASKS)}, got {name!r}")
    entry = TASKS[name]
    if kind not in entry.kinds:
        raise ConfigError(
            f"task {name} needs a model of kind {' or '.join(entry.kinds)}, got {kind!r}"
        )
    _require_keys(task, {"name", *entry.optional, *entry.required},
                  {"name", *entry.required}, "task")
    _check_nums(task, "task")
    if "ells" in entry.optional and not {"ells", "ell_grid"} & set(task):
        raise ConfigError(f"task {name} needs 'ells' or 'ell_grid'")
    if "ell_grid" in task:
        grid = _object(task, "ell_grid", "task")
        _require_keys(grid, {"num", "lo", "hi", "spacing"}, {"num", "lo", "hi"},
                      "task.ell_grid")
        _check_nums(grid, "task.ell_grid")
        if grid.get("spacing", "log") not in ("log", "linear"):
            raise ConfigError("task.ell_grid.spacing must be 'log' or 'linear'")
    if "ells" in task:
        if not isinstance(task["ells"], list) or not task["ells"]:
            raise ConfigError("task.ells must be a non-empty list of integers")
        for e in task["ells"]:
            if isinstance(e, bool) or not isinstance(e, int) or e < 1:
                raise ConfigError(f"task.ells entries must be positive integers, got {e!r}")
    if "sizes" in task:
        if not isinstance(task["sizes"], list):
            raise ConfigError("task.sizes must be a list of integers >= 4")
        for s in task["sizes"]:
            if isinstance(s, bool) or not isinstance(s, int) or s < 4:
                raise ConfigError(f"task.sizes entries must be integers >= 4, got {s!r}")
    if "prescription" in task and task["prescription"] not in tuple(_PRESCRIPTIONS):
        raise ConfigError(
            f"task.prescription must be one of {sorted(_PRESCRIPTIONS)}"
        )
    if "trim" in task:
        trim = task["trim"]
        policies = _TRIM_POLICIES[model["boundary"]]
        if not isinstance(trim, dict) or trim.get("policy") not in policies:
            raise ConfigError(
                f"task.trim on a {model['boundary']} chain must be "
                f"{{'policy': {'|'.join(map(repr, policies))}, ...}}"
            )
        _require_keys(trim, {"policy", *_TRIM_KEYS[trim["policy"]]}, {"policy"},
                      "task.trim")
        _check_nums(trim, "task.trim")
    if "delta_L" in task and task["delta_L"] is not None:
        _check_num(task, "delta_L", "task", int)
    if task.get("n_k", 8) < 8:
        raise ConfigError(f"task.n_k must be >= 8, got {task['n_k']!r}")
    if task.get("n_realizations", 2) < 2:
        raise ConfigError("task.n_realizations must be >= 2 for a standard error, "
                          f"got {task['n_realizations']!r}")
    if task.get("ell", 0) > model.get("cells", 0):
        raise ConfigError(f"task.ell must be <= model.cells = {model['cells']}, "
                          f"got {task['ell']!r}")
    if "delta_bound" in task and not task["delta_bound"] < min(model["v"], model["u"]):
        raise ConfigError(
            f"task.delta_bound must lie in (0, min(v, u)) = "
            f"(0, {min(model['v'], model['u'])}), got {task['delta_bound']!r}"
        )

    output = _object(config, "output", "config")
    _require_keys(output, {"dir", "prefix"}, {"dir"}, "output")
    for key, val in output.items():
        if not isinstance(val, str):
            raise ConfigError(f"output.{key} must be a string, got {val!r}")
    if "tolerances" in config:
        tol = _object(config, "tolerances", "config")
        ignored = (set(tol) & _TOLERANCE_KEYS) - entry.tolerances
        if ignored:
            raise ConfigError(f"task {name} reads no tolerances {sorted(ignored)}")
        _require_keys(tol, entry.tolerances, set(), "tolerances")
        _check_nums(tol, "tolerances")
    return config


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _build_model(model: dict) -> ChainSpec | InterfaceSpec:
    kind = model["kind"]
    spec_class, required, optional = _MODELS[kind]
    types = required | optional
    try:
        return spec_class(**{key: types[key](val) for key, val in model.items()
                             if key != "kind"})
    except (ValueError, PTChainError) as exc:
        raise ConfigError(f"invalid {kind} model: {exc}") from exc


def _resolve_ells(task: dict, cells: int) -> list[int]:
    if "ells" in task:
        ells = sorted({int(e) for e in task["ells"]})
    else:
        grid = task["ell_grid"]
        lo, hi, num = grid["lo"], min(grid["hi"], cells), grid["num"]
        if grid.get("spacing", "log") == "log":
            raw = np.geomspace(max(lo, 1), hi, num)
        else:
            raw = np.linspace(lo, hi, num)
        ells = sorted({int(round(x)) for x in raw})
    ells = [e for e in ells if 1 <= e <= cells]
    if not ells:
        raise ConfigError("no valid subsystem sizes after resolution")
    return ells


def _resolve_trim(task: dict, default):
    trim = task.get("trim")
    if trim is None:
        return default
    if trim["policy"] == "fixed":
        return FixedCount(int(trim.get("n", 0)))
    if trim["policy"] == "until_sse":
        return UntilSSE(float(trim.get("threshold", 1e-4)))
    return UntilRMSE(float(trim.get("threshold", 1e-4)))


class _Run(NamedTuple):
    """Run-wide settings a runner may read."""

    tolerances: ToleranceSet
    tol_zero: float
    tol_sym: float
    tol_zak: float
    seed: int
    jobs: int


def _resolve_run(config: dict, jobs: int | None) -> _Run:
    tol = config.get("tolerances", {})
    return _Run(
        tolerances=ToleranceSet(
            tol_real=float(tol.get("tol_real", DEFAULT_TOLERANCES.tol_real)),
            tol_edge=float(tol.get("tol_edge", DEFAULT_TOLERANCES.tol_edge)),
            tol_pair=float(tol.get("tol_pair", DEFAULT_TOLERANCES.tol_pair)),
        ),
        tol_zero=float(tol.get("tol_zero", TOL_ZERO)),
        tol_sym=float(tol.get("tol_sym", TOL_SYM)),
        tol_zak=float(tol.get("tol_zak", TOL_ZAK)),
        seed=int(config.get("seed", 0)),
        jobs=int(jobs or config.get("jobs", 1)),
    )


def _fmt(x) -> str:
    return f"{x:.17g}"


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ptchain-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Task table
#
# A runner maps (spec, task block, _Run) to (csv, summary fields), where csv
# is (stem, header, rows) or None. Runners reach the library through this
# module's globals, so patching ptchain.cli.<function> reaches them.
# ---------------------------------------------------------------------------


def _run_spectrum(spec, task, run):
    system = biorthogonal_diagonalize(build_real_space(spec))
    rows = [[i, float(e.real), float(e.imag)] for i, e in enumerate(system.energies)]
    return ("spectrum", ["index", "re_E", "im_E"], rows), {
        "n_modes": system.n,
        "biorth_residual": system.biorth_residual,
        "pt_class": classify_pt(spec).value if spec.is_translation_invariant else None,
    }


def _run_entropy_scan(spec, task, run, max_ell=None):
    prescription = _PRESCRIPTIONS[task.get("prescription", "branch_cut")]
    ells = _resolve_ells(task, spec.cells if max_ell is None else max_ell)
    prof = entropy_profile(spec, ells, prescription, run.tolerances, run.tol_zero)
    rows = [
        [int(ell), float(val.real), float(val.imag), int(ne), int(nq), int(nr)]
        for ell, val, ne, nq, nr in zip(
            prof.ells, prof.values, prof.n_edge_pairs, prof.n_quartets, prof.n_residual
        )
    ]
    header = ["ell", "re_S", "im_S", "n_edge_pairs", "n_quartets", "n_residual"]
    return ("entropy", header, rows), {
        "prescription": prescription.value, "n_points": len(rows),
    }


def _run_cc_fit(spec, task, run):
    csv, fields = _run_entropy_scan(spec, task, run, spec.cells // 2)
    ells, re_s = [row[0] for row in csv[2]], [row[1] for row in csv[2]]
    if spec.boundary is Boundary.PBC:
        fit = cc_fit_pbc(ells, re_s, spec.cells, _resolve_trim(task, UntilSSE()))
    else:
        fit = cc_fit_obc(ells, re_s, spec.cells, _resolve_trim(task, UntilRMSE()))
    return csv, {"prescription": fields["prescription"], "fit": fit}


def _run_casimir(spec, task, run):
    sizes, energies = casimir_energy_table(spec, task["sizes"], tol_zero=run.tol_zero)
    fit = casimir_fit(sizes, energies, spec.boundary.value, task.get("delta_L"))
    rows = [[int(L), float(e)] for L, e in zip(sizes, energies)]
    return ("casimir", ["L", "re_E0"], rows), {"fit": fit}


def _run_winding(spec, task, run):
    return None, {
        "winding": winding_number(spec, int(task.get("n_k", 4096))),
        "pt_class": classify_pt(spec).value,
    }


def _run_zak(spec, task, run):
    result = characterize(spec, int(task.get("n_k", 4096)), run.tol_zak)
    return None, {
        "winding": result.winding,
        "re_Q": result.zak.real,
        "im_Q": result.zak.imag,
        "re_zak_deviation": result.re_zak_deviation,
        "pt_class": result.pt_class.value,
    }


def _run_interface(spec, task, run):
    state = interface_lattice_solve(spec)
    continuum = interface_continuum(spec.w - spec.v1, spec.u)
    return None, {
        "lattice_E": state.E,
        "beta_l": state.beta_l,
        "beta_r": state.beta_r,
        "matching_residual": state.residual,
        "continuum_E": continuum.E,
        "continuum_a": continuum.a,
    }


def _run_density(spec, task, run):
    if isinstance(spec, InterfaceSpec):
        profile, state = interface_density(spec)
        fields = {"mode_E": state.E}
    else:
        system = biorthogonal_diagonalize(build_real_space(spec))
        profile = density_profile(system, select_half_filling(system, run.tol_zero))
        fields = {}
    rows = [
        [i + 1, a.real, a.imag, b.real, b.imag, c.real, c.imag]
        for i, (a, b, c) in enumerate(zip(profile.site_a, profile.site_b, profile.cell))
    ]
    header = ["cell", "re_n_A", "im_n_A", "re_n_B", "im_n_B", "re_n_cell", "im_n_cell"]
    return ("density", header, rows), fields


def _run_disorder(spec, task, run):
    prescription = _PRESCRIPTIONS[task.get("prescription", "regularized")]
    stats = disorder_ensemble(
        spec,
        float(task["delta_bound"]),
        int(task["n_realizations"]),
        run.seed,
        _resolve_ells(task, spec.cells),
        prescription,
        jobs=run.jobs,
        tolerances=run.tolerances,
        tol_zero=run.tol_zero,
    )
    rows = [
        [int(e), float(mr), float(sr), float(mi), float(si)]
        for e, mr, sr, mi, si in zip(
            stats.ells, stats.mean_re, stats.sem_re, stats.mean_im, stats.sem_im
        )
    ]
    header = ["ell", "mean_re_S", "sem_re_S", "mean_im_S", "sem_im_S"]
    return ("disorder", header, rows), {
        "n_realizations": stats.n_realizations,
        "base_seed": stats.base_seed,
        "im_min": float(stats.im_values.min()),
        "im_max": float(stats.im_values.max()),
    }


def _run_symmetry_check(spec, task, run):
    ell = int(task["ell"])
    M, route = _subsystem_correlation(spec, ell, run.tol_zero)
    report = symmetry_closure(_ungauge(M), run.tol_sym)
    # the singular-mode and dense routes both work in real space
    provenance = Provenance.K_SPACE if route == "k_space" else Provenance.REAL_SPACE
    return None, {
        "ell": ell,
        "provenance": provenance.value,
        "t_plus_residual": report.t_plus_residual,
        "ph_residual": report.ph_residual,
        "t_plus_ok": report.t_plus_ok,
        "ph_ok": report.ph_ok,
    }


class _Task(NamedTuple):
    """Model kinds a task accepts, its task keys besides ``name``, the
    tolerance keys its runner reads, its runner."""

    kinds: tuple[str, ...]
    optional: set[str]
    required: set[str]
    tolerances: set[str]
    run: Callable[[ChainSpec | InterfaceSpec, dict, _Run], tuple[tuple | None, dict]]


_CHAIN = ("chain",)
_ENTROPY_KEYS = {"ells", "ell_grid", "prescription"}
_ENTROPY_TOLERANCES = _CLASSIFICATION_KEYS | {"tol_zero"}

TASKS: dict[str, _Task] = {
    "spectrum": _Task(_CHAIN, set(), set(), set(), _run_spectrum),
    "entropy-scan": _Task(_CHAIN, _ENTROPY_KEYS, set(), _ENTROPY_TOLERANCES,
                          _run_entropy_scan),
    "cc-fit": _Task(_CHAIN, _ENTROPY_KEYS | {"trim"}, set(), _ENTROPY_TOLERANCES,
                    _run_cc_fit),
    "casimir": _Task(_CHAIN, {"delta_L"}, {"sizes"}, {"tol_zero"}, _run_casimir),
    "winding": _Task(_CHAIN, {"n_k"}, set(), set(), _run_winding),
    "zak": _Task(_CHAIN, {"n_k"}, set(), {"tol_zak"}, _run_zak),
    "interface": _Task(("interface",), set(), set(), set(), _run_interface),
    "disorder": _Task(_CHAIN, _ENTROPY_KEYS, {"n_realizations", "delta_bound"},
                      _ENTROPY_TOLERANCES, _run_disorder),
    "density": _Task(("chain", "interface"), set(), set(), {"tol_zero"},
                     _run_density),
    "symmetry-check": _Task(_CHAIN, set(), {"ell"}, {"tol_zero", "tol_sym"},
                            _run_symmetry_check),
}


def execute(config: dict, out_dir: str | None = None, jobs: int | None = None) -> dict:
    """Run one validated config; returns the JSON summary dict."""
    name = config["task"]["name"]
    run = _resolve_run(config, jobs)
    out = out_dir or config["output"]["dir"]
    base = os.path.join(out, config["output"].get("prefix", name.replace("-", "_")))
    os.makedirs(out, exist_ok=True)
    csv, fields = TASKS[name].run(_build_model(config["model"]), config["task"], run)

    outputs: list[str] = []
    if csv is not None:
        stem, header, rows = csv
        _write_csv(f"{base}_{stem}.csv", header, rows)
        outputs.append(f"{base}_{stem}.csv")
    summary = _jsonable({"task": name, **fields})
    _atomic_write(f"{base}_summary.json", json.dumps(summary, indent=2) + "\n")
    outputs.append(f"{base}_summary.json")
    summary["outputs"] = outputs
    return summary


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _write_manifest(out: str, config: dict, status: dict, outputs: list[str],
                    wall: float, error: str | None):
    manifest = {
        "config_hash": config_hash(config),
        "artifact_version": __version__,
        "wall_time_s": wall,
        "tasks": status,
        "outputs": outputs,
        "error": error,
    }
    try:
        os.makedirs(out, exist_ok=True)
        _atomic_write(
            os.path.join(out, "run_manifest.json"),
            json.dumps(manifest, indent=2) + "\n",
        )
    except OSError as exc:
        # the run's own exit code stands; the missing manifest is reported
        print(f"i/o error: run manifest not written: {exc}", file=sys.stderr)


def _run_config(config: dict, out_dir: str | None, jobs: int | None) -> int:
    try:
        validate_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = out_dir or config["output"]["dir"]
    name = config["task"]["name"]
    start = time.monotonic()
    try:
        summary = execute(config, out_dir=out_dir, jobs=jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        _write_manifest(out, config, {name: f"error:{type(exc).__name__}"}, [],
                        time.monotonic() - start, str(exc))
        return 2
    except PTChainError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        _write_manifest(out, config, {name: f"error:{type(exc).__name__}"}, [],
                        time.monotonic() - start, str(exc))
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        _write_manifest(out, config, {name: "error:OSError"}, [],
                        time.monotonic() - start, str(exc))
        return 4
    _write_manifest(out, config, {name: "ok"}, summary["outputs"],
                    time.monotonic() - start, None)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptchain",
        description="Simulate gain/loss SSH chains and their complex entanglement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.add_argument("--jobs", type=int, default=None, help="worker cap")

    p_fig = sub.add_parser("fig", help="run a bundled preset")
    p_fig.add_argument("name", help=f"one of: {', '.join(figure_names())}")
    p_fig.add_argument("--scale", type=int, default=1,
                       help="divide lattice sizes by this factor")
    p_fig.add_argument("--out", default=".", help="output directory")
    p_fig.add_argument("--jobs", type=int, default=None)

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")

    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            config = _load_config(args.config)
            validate_config(config)
        except (ConfigError, OSError, json.JSONDecodeError) as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 2
        print("ok")
        return 0

    if args.command == "fig":
        try:
            config = figure_cookbook(args.name)
        except PTChainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.scale > 1:
            config = scale_config(config, args.scale)
        return _run_config(config, args.out, args.jobs)

    try:
        config = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _run_config(config, args.out, args.jobs)


def _load_config(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":
    console_main()
