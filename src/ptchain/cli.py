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

import numpy as np

from . import __version__
from .cookbook import figure_cookbook, figure_names, scale_config
from .entanglement import (
    DEFAULT_TOLERANCES,
    Prescription,
    ToleranceSet,
    correlation_k_space,
    correlation_matrix,
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
from .topology import TOL_SYM, TOL_ZAK, characterize, symmetry_closure

TASKS = (
    "spectrum",
    "entropy-scan",
    "cc-fit",
    "casimir",
    "winding",
    "zak",
    "interface",
    "disorder",
    "density",
    "symmetry-check",
)

_PRESCRIPTIONS = {p.value: p for p in Prescription}


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
    model = config["model"]
    if not isinstance(model, dict):
        raise ConfigError("config.model must be an object")
    kind = model.get("kind")
    if kind == "chain":
        _require_keys(
            model,
            {"kind", "alpha", "v", "w", "u", "cells", "boundary", "detuning",
             "disorder_bound"},
            {"kind", "v", "w", "u", "cells", "boundary"},
            "model",
        )
        _check_num(model, "alpha", "model", int, positive=True)
        _check_num(model, "v", "model")
        _check_num(model, "w", "model")
        _check_num(model, "u", "model", nonneg=True)
        _check_num(model, "cells", "model", int, positive=True)
        _check_num(model, "detuning", "model", nonneg=True)
        if model["boundary"] not in ("pbc", "obc"):
            raise ConfigError("model.boundary must be 'pbc' or 'obc'")
    elif kind == "interface":
        _require_keys(
            model,
            {"kind", "v1", "v2", "w", "u", "cells_left", "cells_right"},
            {"kind", "v1", "v2", "w", "u", "cells_left", "cells_right"},
            "model",
        )
        for key in ("v1", "v2", "w"):
            _check_num(model, key, "model")
        _check_num(model, "u", "model", nonneg=True)
        _check_num(model, "cells_left", "model", int, positive=True)
        _check_num(model, "cells_right", "model", int, positive=True)
    else:
        raise ConfigError("model.kind must be 'chain' or 'interface'")

    task = config["task"]
    if not isinstance(task, dict):
        raise ConfigError("config.task must be an object")
    name = task.get("name")
    if name not in TASKS:
        raise ConfigError(f"task.name must be one of {TASKS}, got {name!r}")
    allowed = {"name"}
    required: set[str] = set()
    if name in ("entropy-scan", "cc-fit", "disorder"):
        allowed |= {"ells", "ell_grid", "prescription"}
        if not ("ells" in task or "ell_grid" in task):
            raise ConfigError(f"task {name} needs 'ells' or 'ell_grid'")
    if name == "cc-fit":
        allowed |= {"trim"}
    if name == "casimir":
        allowed |= {"sizes", "delta_L"}
        required |= {"sizes"}
    if name in ("winding", "zak"):
        allowed |= {"n_k"}
    if name == "disorder":
        allowed |= {"n_realizations", "delta_bound"}
        required |= {"n_realizations", "delta_bound"}
    if name == "symmetry-check":
        allowed |= {"ell"}
        required |= {"ell"}
    _require_keys(task, allowed, required | {"name"}, "task")
    if "ell_grid" in task:
        grid = task["ell_grid"]
        if not isinstance(grid, dict):
            raise ConfigError("task.ell_grid must be an object")
        _require_keys(grid, {"num", "lo", "hi", "spacing"}, {"num", "lo", "hi"},
                      "task.ell_grid")
        for key in ("num", "lo", "hi"):
            _check_num(grid, key, "task.ell_grid", int, positive=True)
        if grid.get("spacing", "log") not in ("log", "linear"):
            raise ConfigError("task.ell_grid.spacing must be 'log' or 'linear'")
    if "ells" in task:
        if not isinstance(task["ells"], list) or not task["ells"]:
            raise ConfigError("task.ells must be a non-empty list of integers")
        for e in task["ells"]:
            if isinstance(e, bool) or not isinstance(e, int) or e < 1:
                raise ConfigError(f"task.ells entries must be positive integers, got {e!r}")
    if "sizes" in task:
        for s in task["sizes"]:
            if isinstance(s, bool) or not isinstance(s, int) or s < 4:
                raise ConfigError(f"task.sizes entries must be integers >= 4, got {s!r}")
    if "prescription" in task and task["prescription"] not in _PRESCRIPTIONS:
        raise ConfigError(
            f"task.prescription must be one of {sorted(_PRESCRIPTIONS)}"
        )
    if "trim" in task:
        trim = task["trim"]
        if not isinstance(trim, dict) or trim.get("policy") not in (
            "fixed", "until_sse", "until_rmse",
        ):
            raise ConfigError(
                "task.trim must be {'policy': 'fixed'|'until_sse'|'until_rmse', ...}"
            )
        _require_keys(trim, {"policy", "n", "threshold"}, {"policy"}, "task.trim")
    if "delta_L" in task and task["delta_L"] is not None:
        _check_num(task, "delta_L", "task", int)
    if "n_k" in task:
        _check_num(task, "n_k", "task", int, positive=True)
    if "n_realizations" in task:
        _check_num(task, "n_realizations", "task", int, positive=True)
    if "delta_bound" in task:
        _check_num(task, "delta_bound", "task", positive=True)
    if "ell" in task:
        _check_num(task, "ell", "task", int, positive=True)

    output = config["output"]
    if not isinstance(output, dict):
        raise ConfigError("config.output must be an object")
    _require_keys(output, {"dir", "prefix"}, {"dir"}, "output")
    if "seed" in config:
        _check_num(config, "seed", "config", int, nonneg=True)
    if "jobs" in config:
        _check_num(config, "jobs", "config", int, positive=True)
    if "tolerances" in config:
        tol = config["tolerances"]
        if not isinstance(tol, dict):
            raise ConfigError("config.tolerances must be an object")
        _require_keys(
            tol,
            {"tol_real", "tol_edge", "tol_pair", "tol_zero", "tol_sym", "tol_zak"},
            set(),
            "tolerances",
        )
        for key in tol:
            _check_num(tol, key, "tolerances", positive=True)
    return config


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _build_chain(model: dict) -> ChainSpec:
    try:
        return ChainSpec(
            alpha=int(model.get("alpha", 1)),
            v=float(model["v"]),
            w=float(model["w"]),
            u=float(model["u"]),
            cells=int(model["cells"]),
            boundary=Boundary(model["boundary"]),
            detuning=model.get("detuning"),
        )
    except (ValueError, PTChainError) as exc:
        raise ConfigError(f"invalid chain model: {exc}") from exc


def _build_interface_spec(model: dict) -> InterfaceSpec:
    try:
        return InterfaceSpec(
            v1=float(model["v1"]),
            v2=float(model["v2"]),
            w=float(model["w"]),
            u=float(model["u"]),
            cells_left=int(model["cells_left"]),
            cells_right=int(model["cells_right"]),
        )
    except (ValueError, PTChainError) as exc:
        raise ConfigError(f"invalid interface model: {exc}") from exc


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


def _resolve_trim(task: dict):
    trim = task.get("trim")
    if trim is None:
        return None
    if trim["policy"] == "fixed":
        return FixedCount(int(trim.get("n", 0)))
    if trim["policy"] == "until_sse":
        return UntilSSE(float(trim.get("threshold", 1e-4)))
    return UntilRMSE(float(trim.get("threshold", 1e-4)))


def _resolve_tolerances(config: dict) -> tuple[ToleranceSet, float, float, float]:
    """Spectrum classification tolerances, then tol_zero, tol_sym, tol_zak."""
    tol = config.get("tolerances", {})
    classification = ToleranceSet(
        tol_real=float(tol.get("tol_real", DEFAULT_TOLERANCES.tol_real)),
        tol_edge=float(tol.get("tol_edge", DEFAULT_TOLERANCES.tol_edge)),
        tol_pair=float(tol.get("tol_pair", DEFAULT_TOLERANCES.tol_pair)),
    )
    return (
        classification,
        float(tol.get("tol_zero", TOL_ZERO)),
        float(tol.get("tol_sym", TOL_SYM)),
        float(tol.get("tol_zak", TOL_ZAK)),
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


def _fit_summary(fit) -> dict:
    return {
        "coefficients": fit.coefficients,
        "stderr": fit.stderr,
        "sse": fit.sse,
        "rmse": fit.rmse,
        "trim_count": fit.trim_count,
        "n_points": fit.n_points,
        "model": fit.model,
    }


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Task execution
# ---------------------------------------------------------------------------


def _entropy_rows(spec, ells, prescription, tolerances, tol_zero):
    prof = entropy_profile(spec, ells, prescription, tolerances, tol_zero)
    rows = [
        [int(ell), float(val.real), float(val.imag), int(ne), int(nq), int(nr)]
        for ell, val, ne, nq, nr in zip(
            prof.ells, prof.values, prof.n_edge_pairs, prof.n_quartets, prof.n_residual
        )
    ]
    return prof, rows


_ENTROPY_HEADER = ["ell", "re_S", "im_S", "n_edge_pairs", "n_quartets", "n_residual"]


def execute(config: dict, out_dir: str | None = None, jobs: int | None = None) -> dict:
    """Run one validated config; returns the JSON summary dict."""
    model = config["model"]
    task = config["task"]
    name = task["name"]
    tolerances, tol_zero, tol_sym, tol_zak = _resolve_tolerances(config)
    seed = int(config.get("seed", 0))
    jobs = int(jobs or config.get("jobs", 1))
    out = out_dir or config["output"]["dir"]
    prefix = config["output"].get("prefix", name.replace("-", "_"))
    os.makedirs(out, exist_ok=True)
    path = lambda stem, ext: os.path.join(out, f"{prefix}_{stem}.{ext}")

    outputs: list[str] = []
    summary: dict = {"task": name}

    def save_csv(stem, header, rows):
        p = path(stem, "csv")
        _write_csv(p, header, rows)
        outputs.append(p)

    if name == "spectrum":
        spec = _build_chain(model)
        system = biorthogonal_diagonalize(build_real_space(spec))
        rows = [
            [i, float(e.real), float(e.imag)] for i, e in enumerate(system.energies)
        ]
        save_csv("spectrum", ["index", "re_E", "im_E"], rows)
        summary |= {
            "n_modes": system.n,
            "biorth_residual": system.biorth_residual,
            "pt_class": classify_pt(spec).value if spec.is_translation_invariant else None,
        }
    elif name == "entropy-scan":
        spec = _build_chain(model)
        prescription = _PRESCRIPTIONS[task.get("prescription", "branch_cut")]
        ells = _resolve_ells(task, spec.cells)
        _, rows = _entropy_rows(spec, ells, prescription, tolerances, tol_zero)
        save_csv("entropy", _ENTROPY_HEADER, rows)
        summary |= {"prescription": prescription.value, "n_points": len(rows)}
    elif name == "cc-fit":
        spec = _build_chain(model)
        prescription = _PRESCRIPTIONS[task.get("prescription", "branch_cut")]
        ells = _resolve_ells(task, spec.cells // 2)
        prof, rows = _entropy_rows(spec, ells, prescription, tolerances, tol_zero)
        save_csv("entropy", _ENTROPY_HEADER, rows)
        trim = _resolve_trim(task)
        re_s = prof.values.real
        if spec.boundary is Boundary.PBC:
            fit = cc_fit_pbc(prof.ells, re_s, spec.cells, trim or UntilSSE())
        else:
            fit = cc_fit_obc(prof.ells, re_s, spec.cells, trim or UntilRMSE())
        summary |= {"prescription": prescription.value, "fit": _fit_summary(fit)}
    elif name == "casimir":
        spec = _build_chain(model)
        sizes, energies = casimir_energy_table(
            spec, task["sizes"], tol_zero=tol_zero
        )
        save_csv("casimir", ["L", "re_E0"],
                 [[int(L), float(e)] for L, e in zip(sizes, energies)])
        fit = casimir_fit(sizes, energies, spec.boundary.value, task.get("delta_L"))
        summary |= {"fit": _fit_summary(fit)}
    elif name == "winding":
        spec = _build_chain(model)
        result = characterize(spec, int(task.get("n_k", 4096)), tol_zak)
        summary |= {"winding": result.winding, "pt_class": result.pt_class.value}
    elif name == "zak":
        spec = _build_chain(model)
        result = characterize(spec, int(task.get("n_k", 4096)), tol_zak)
        summary |= {
            "winding": result.winding,
            "re_Q": result.zak.real,
            "im_Q": result.zak.imag,
            "re_zak_deviation": result.re_zak_deviation,
            "pt_class": result.pt_class.value,
        }
    elif name == "interface":
        spec = _build_interface_spec(model)
        state = interface_lattice_solve(spec)
        continuum = interface_continuum(spec.w - spec.v1, spec.u)
        summary |= {
            "lattice_E": state.E,
            "beta_l": state.beta_l,
            "beta_r": state.beta_r,
            "matching_residual": state.residual,
            "continuum_E": continuum.E,
            "continuum_a": continuum.a,
        }
    elif name == "density":
        if model.get("kind") == "interface":
            spec = _build_interface_spec(model)
            profile, state = interface_density(spec)
            summary |= {"mode_E": state.E}
        else:
            spec = _build_chain(model)
            system = biorthogonal_diagonalize(build_real_space(spec))
            occ = select_half_filling(system, tol_zero)
            profile = density_profile(system, occ)
        rows = [
            [i + 1, a.real, a.imag, b.real, b.imag, c.real, c.imag]
            for i, (a, b, c) in enumerate(
                zip(profile.site_a, profile.site_b, profile.cell)
            )
        ]
        save_csv(
            "density",
            ["cell", "re_n_A", "im_n_A", "re_n_B", "im_n_B", "re_n_cell", "im_n_cell"],
            rows,
        )
    elif name == "disorder":
        spec = _build_chain(model)
        prescription = _PRESCRIPTIONS[task.get("prescription", "regularized")]
        ells = _resolve_ells(task, spec.cells)
        stats = disorder_ensemble(
            spec,
            float(task["delta_bound"]),
            int(task["n_realizations"]),
            seed,
            ells,
            prescription,
            jobs=jobs,
            tolerances=tolerances,
            tol_zero=tol_zero,
        )
        rows = [
            [int(e), float(mr), float(sr), float(mi), float(si)]
            for e, mr, sr, mi, si in zip(
                stats.ells, stats.mean_re, stats.sem_re, stats.mean_im, stats.sem_im
            )
        ]
        save_csv(
            "disorder",
            ["ell", "mean_re_S", "sem_re_S", "mean_im_S", "sem_im_S"],
            rows,
        )
        summary |= {
            "n_realizations": stats.n_realizations,
            "base_seed": stats.base_seed,
            "im_min": float(stats.im_values.min()),
            "im_max": float(stats.im_values.max()),
        }
    elif name == "symmetry-check":
        spec = _build_chain(model)
        ell = int(task["ell"])
        if spec.is_translation_invariant and spec.boundary is Boundary.PBC:
            corr = correlation_k_space(spec, ell)
        else:
            system = biorthogonal_diagonalize(build_real_space(spec))
            occ = select_half_filling(system, tol_zero)
            corr = correlation_matrix(system, occ, ell)
        report = symmetry_closure(corr.matrix, tol_sym)
        summary |= {
            "ell": ell,
            "provenance": corr.provenance.value,
            "t_plus_residual": report.t_plus_residual,
            "ph_residual": report.ph_residual,
            "t_plus_ok": report.t_plus_ok,
            "ph_ok": report.ph_ok,
        }
    else:  # pragma: no cover - guarded by validate_config
        raise ConfigError(f"unhandled task {name}")

    summary_path = path("summary", "json")
    _atomic_write(summary_path, json.dumps(_jsonable(summary), indent=2) + "\n")
    outputs.append(summary_path)
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
