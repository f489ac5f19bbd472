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
keys, and its runner. One pass, ``_resolve``, turns a config into a run:
``validate_config`` and ``execute`` both take it, so a config validates
exactly when it runs. The model kinds and their keys are the table
``_MODELS``; the spec classes check their own ranges.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (module
error name recorded in the manifest), 4 I/O error; ``_EXITS`` maps each
failure to its code.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .cookbook import figure_cookbook, figure_names, scale_config
from .entanglement import (
    Prescription,
    ToleranceSet,
    _subsystem_correlation,
    _ungauge,
    entropy_profile,
)
from .errors import ConfigError, PTChainError
from .fits import (
    _CASIMIR_MIN_SIZES,
    _CC_OBC_MIN_POINTS,
    _CC_PBC_MIN_POINTS,
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
from .spectral import biorthogonal_diagonalize, density_profile, select_half_filling
from .edge import interface_continuum, interface_density, interface_lattice_solve
from .topology import characterize, symmetry_closure, winding_number

#: model kind -> (spec class, required keys, optional keys)
_MODELS = {
    "chain": (ChainSpec, {"v", "w", "u", "cells", "boundary"}, {"alpha", "detuning"}),
    "interface": (InterfaceSpec,
                  {"v1", "v2", "w", "u", "cells_left", "cells_right"}, set()),
}

_CLASSIFICATION_KEYS = {"tol_real", "tol_edge", "tol_pair"}
_TOLERANCE_KEYS = {*_CLASSIFICATION_KEYS, "tol_zero", "tol_sym", "tol_zak"}
#: model kind -> the tolerance keys any task reads on it; an interface
#: selects no half filling
_MODEL_TOLERANCES = {"chain": _TOLERANCE_KEYS, "interface": set()}

#: trim policy -> (its policy class, its keys besides ``policy``); boundary
#: -> the policies its fit takes, the default first (cc_fit_pbc trims by
#: SSE, cc_fit_obc by RMSE).
_TRIMS = {"fixed": (FixedCount, {"n"}), "until_sse": (UntilSSE, {"threshold"}),
          "until_rmse": (UntilRMSE, {"threshold"})}
_TRIM_POLICIES = {Boundary.PBC: ("until_sse", "fixed"),
                  Boundary.OBC: ("until_rmse", "fixed")}
#: boundary -> the fewest points its cc fit takes after trimming
_CC_MIN_POINTS = {Boundary.PBC: _CC_PBC_MIN_POINTS, Boundary.OBC: _CC_OBC_MIN_POINTS}
_SPACINGS = {"log": np.geomspace, "linear": np.linspace}

#: numeric keys -> _number options, the same in whichever block they occur.
#: The model's ranges are its spec class's own, so its keys get a type only.
_NUMBERS = {
    **dict.fromkeys(("alpha", "cells", "cells_left", "cells_right"), {"kind": int}),
    **dict.fromkeys(("ell", "num", "lo", "hi", "jobs"), {"kind": int, "low": 1}),
    **dict.fromkeys(("seed", "n"), {"kind": int, "low": 0}),
    "n_k": {"kind": int, "low": 8},
    # a standard error needs two realizations
    "n_realizations": {"kind": int, "low": 2},
    "delta_L": {"kind": int, "nullable": True},
    **dict.fromkeys(("v", "w", "v1", "v2", "u", "detuning"), {}),
    **dict.fromkeys(("delta_bound", "threshold", *_TOLERANCE_KEYS), {"positive": True}),
}


# ---------------------------------------------------------------------------
# Resolution: one pass from a config to a run
# ---------------------------------------------------------------------------


def _require_keys(block: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _number(val, where: str, kind=float, low=None, positive=False, nullable=False):
    if val is None and nullable:
        return None
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or isinstance(val, float) and not math.isfinite(val)):
        raise ConfigError(f"{where} must be a finite number, got {val!r}")
    if kind is int and isinstance(val, float) and not val.is_integer():
        raise ConfigError(f"{where} must be an integer, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(f"{where} must be > 0, got {val!r}")
    if low is not None and val < low:
        raise ConfigError(f"{where} must be >= {low}, got {val!r}")
    return kind(val)


def _values(block: dict, where: str) -> dict:
    """The block with every number checked and converted per ``_NUMBERS``."""
    return {key: _number(val, f"{where}.{key}", **_NUMBERS[key]) if key in _NUMBERS
            else val for key, val in block.items()}


def _object(block: dict, key: str, where: str) -> dict:
    if not isinstance(block[key], dict):
        raise ConfigError(f"{where}.{key} must be an object")
    return block[key]


def _ints(block: dict, key: str, low: int) -> list[int]:
    """A non-empty list of integers >= low."""
    if not isinstance(block[key], list) or not block[key]:
        raise ConfigError(f"task.{key} must be a non-empty list of integers")
    return [_number(x, f"task.{key} entries", int, low) for x in block[key]]


def _member(enum_class, val, where: str):
    try:
        return enum_class(val)
    except ValueError:
        choices = [m.value for m in enum_class]
        raise ConfigError(f"{where} must be one of {choices}, got {val!r}") from None


def _build_model(model: dict) -> ChainSpec | InterfaceSpec:
    """The spec of a model block; the spec class checks the ranges."""
    kind = model.get("kind")
    if kind not in tuple(_MODELS):
        raise ConfigError(f"model.kind must be one of {list(_MODELS)}, got {kind!r}")
    spec_class, required, optional = _MODELS[kind]
    _require_keys(model, {"kind", *required, *optional}, {"kind", *required}, "model")
    fields = _values(model, "model")
    del fields["kind"]
    if "boundary" in fields:
        fields["boundary"] = _member(Boundary, fields["boundary"], "model.boundary")
    try:
        spec = spec_class(**fields)
    except (ValueError, PTChainError) as exc:
        raise ConfigError(f"invalid {kind} model: {exc}") from exc
    if kind == "interface" and not (spec.u > 0 and spec.w != 0):
        raise ConfigError(
            "an interface needs u > 0 (the gain/loss side) and w != 0 (the bond "
            f"joining the two sides), got u = {spec.u}, w = {spec.w}")
    return spec


def _resolve_ells(task: dict, cells: int) -> list[int]:
    """Explicit ``ells`` must all fit in ``cells``; an ``ell_grid`` is
    clipped to it."""
    if "ells" in task:
        ells = sorted(set(_ints(task, "ells", 1)))
        beyond = [e for e in ells if e > cells]
        if beyond:
            raise ConfigError(f"task.ells {beyond} exceed the largest subsystem, "
                              f"{cells} cells")
    elif "ell_grid" in task:
        grid = _values(_object(task, "ell_grid", "task"), "task.ell_grid")
        _require_keys(grid, {"num", "lo", "hi", "spacing"}, {"num", "lo", "hi"},
                      "task.ell_grid")
        spacing = grid.get("spacing", "log")
        if spacing not in tuple(_SPACINGS):
            raise ConfigError(f"task.ell_grid.spacing must be one of {list(_SPACINGS)}")
        raw = _SPACINGS[spacing](grid["lo"], min(grid["hi"], cells), grid["num"])
        ells = sorted({int(round(x)) for x in raw})
    else:
        raise ConfigError(f"task {task['name']} needs 'ells' or 'ell_grid'")
    ells = [e for e in ells if 1 <= e <= cells]
    if not ells:
        raise ConfigError(f"no subsystem sizes in 1..{cells} after resolution")
    return ells


def _resolve_trim(trim, boundary: Boundary):
    policies = _TRIM_POLICIES[boundary]
    if not isinstance(trim, dict) or trim.get("policy") not in policies:
        raise ConfigError(
            f"task.trim on a {boundary.value} chain must be "
            f"{{'policy': {'|'.join(map(repr, policies))}, ...}}")
    policy_class, keys = _TRIMS[trim["policy"]]
    _require_keys(trim, {"policy", *keys}, {"policy"}, "task.trim")
    return policy_class(**{k: v for k, v in _values(trim, "task.trim").items()
                           if k != "policy"})


class _Run(NamedTuple):
    """A resolved config: the task, its spec, its runner's keyword arguments
    (the library's own defaults stand for every key left out, except the
    ``cc-fit`` trim of a periodic chain: ``UntilSSE()`` where ``cc_fit_pbc``
    defaults to ``FixedCount(0)``) and the output directory and path prefix."""

    name: str
    spec: ChainSpec | InterfaceSpec
    args: dict
    out: str
    base: str


def _resolve(config, out_dir: str | None = None, jobs: int | None = None) -> _Run:
    """The one pass from a config to a run; raises ConfigError for every
    config that cannot run."""
    if not isinstance(config, dict):
        raise ConfigError("top-level config must be an object")
    _require_keys(config, {"model", "task", "output", "seed", "tolerances", "jobs"},
                  {"model", "task", "output"}, "config")
    top = _values({**config, **({} if jobs is None else {"jobs": jobs})}, "config")
    output = _object(config, "output", "config")
    _require_keys(output, {"dir", "prefix"}, {"dir"}, "output")
    for key, val in output.items():
        if not isinstance(val, str):
            raise ConfigError(f"output.{key} must be a string, got {val!r}")
    spec = _build_model(_object(config, "model", "config"))

    task = _object(config, "task", "config")
    name = task.get("name")
    if name not in tuple(TASKS):
        raise ConfigError(f"task.name must be one of {tuple(TASKS)}, got {name!r}")
    entry = TASKS[name]
    kind = config["model"]["kind"]
    if kind not in entry.kinds:
        raise ConfigError(
            f"task {name} needs a model of kind {' or '.join(entry.kinds)}, got {kind!r}")
    _require_keys(task, {"name", *entry.optional, *entry.required},
                  {"name", *entry.required}, "task")
    args = _values(task, "task")
    del args["name"]
    if "ells" in entry.optional:
        args.pop("ell_grid", None)
        # a cc fit runs over half the chain
        args["ells"] = _resolve_ells(task, spec.cells // (2 if name == "cc-fit" else 1))
    if "prescription" in args:
        args["prescription"] = _member(Prescription, args["prescription"],
                                       "task.prescription")
    if "trim" in entry.optional:
        default = {"policy": _TRIM_POLICIES[spec.boundary][0]}
        args["trim"] = _resolve_trim(task.get("trim", default), spec.boundary)
        trimmed = args["trim"].n if isinstance(args["trim"], FixedCount) else 0
        need = _CC_MIN_POINTS[spec.boundary] + trimmed
        if len(args["ells"]) < need:
            raise ConfigError(
                f"the cc fit of a {spec.boundary.value} chain needs >= {need} "
                f"subsystem sizes ({trimmed} trimmed), got {args['ells']}")
    if "sizes" in args:
        args["sizes"] = _ints(task, "sizes", max(4, spec.alpha + 1))
        if len(args["sizes"]) < _CASIMIR_MIN_SIZES:
            raise ConfigError(f"the Casimir fit needs >= {_CASIMIR_MIN_SIZES} "
                              f"sizes, got {args['sizes']}")
    if args.get("delta_L") is not None and spec.boundary is Boundary.PBC:
        raise ConfigError("task.delta_L applies to open chains; the periodic "
                          "Casimir fit has no extrapolation length")
    if args.get("ell", 0) > spec.cells:
        raise ConfigError(f"task.ell must be <= model.cells = {spec.cells}, "
                          f"got {args['ell']!r}")
    if "delta_bound" in args and not args["delta_bound"] < min(spec.v, spec.u):
        raise ConfigError(f"task.delta_bound must lie in (0, min(v, u)) = "
                          f"(0, {min(spec.v, spec.u)}), got {args['delta_bound']!r}")
    if name == "disorder":  # the one task that draws realizations
        args["seed"] = top.get("seed", 0)
        if "jobs" in top:
            args["jobs"] = top["jobs"]

    if "tolerances" in config:
        tol = _values(_object(config, "tolerances", "config"), "tolerances")
        readable = entry.tolerances & _MODEL_TOLERANCES[kind]
        ignored = (set(tol) & _TOLERANCE_KEYS) - readable
        if ignored:
            raise ConfigError(f"task {name} on a {kind} model reads no tolerances "
                              f"{sorted(ignored)}")
        _require_keys(tol, readable, set(), "tolerances")
        classification = {k: tol.pop(k) for k in _CLASSIFICATION_KEYS & set(tol)}
        if classification:
            tol["tolerances"] = ToleranceSet(**classification)
        args.update(tol)

    out = out_dir or output["dir"]
    base = os.path.join(out, output.get("prefix", name.replace("-", "_")))
    return _Run(name, spec, args, out, base)


def validate_config(config) -> dict:
    """Resolve the config as a run would, without running; returns it
    unchanged."""
    _resolve(config)
    return config


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


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
# A runner maps a spec and the keyword arguments ``_resolve`` gives it to
# (csv, summary fields), where csv is (stem, header, rows) or None. Runners
# reach the library through this module's globals, so patching
# ptchain.cli.<function> reaches them.
# ---------------------------------------------------------------------------


def _run_spectrum(spec):
    system = biorthogonal_diagonalize(build_real_space(spec))
    rows = [[i, float(e.real), float(e.imag)] for i, e in enumerate(system.energies)]
    return ("spectrum", ["index", "re_E", "im_E"], rows), {
        "n_modes": system.n,
        "biorth_residual": system.biorth_residual,
        "pt_class": classify_pt(spec).value if spec.is_translation_invariant else None,
    }


def _run_entropy_scan(spec, ells, **opts):
    prof = entropy_profile(spec, ells, **opts)
    rows = [
        [int(ell), float(val.real), float(val.imag), int(ne), int(nq), int(nr)]
        for ell, val, ne, nq, nr in zip(
            prof.ells, prof.values, prof.n_edge_pairs, prof.n_quartets, prof.n_residual
        )
    ]
    header = ["ell", "re_S", "im_S", "n_edge_pairs", "n_quartets", "n_residual"]
    return ("entropy", header, rows), {
        "prescription": prof.prescription.value, "n_points": len(rows),
        "route": prof.route,
    }


def _run_cc_fit(spec, ells, trim, **opts):
    csv, fields = _run_entropy_scan(spec, ells, **opts)
    fit = cc_fit_pbc if spec.boundary is Boundary.PBC else cc_fit_obc
    ells, re_s = [row[0] for row in csv[2]], [row[1] for row in csv[2]]
    return csv, {"prescription": fields["prescription"],
                 "fit": fit(ells, re_s, spec.cells, trim),
                 "route": fields["route"]}


def _run_casimir(spec, sizes, delta_L=None, **tol):
    sizes, energies = casimir_energy_table(spec, sizes, **tol)
    fit = casimir_fit(sizes, energies, spec.boundary.value, delta_L)
    rows = [[int(L), float(e)] for L, e in zip(sizes, energies)]
    return ("casimir", ["L", "re_E0"], rows), {"fit": fit}


def _run_winding(spec, **opts):
    return None, {
        "winding": winding_number(spec, **opts),
        "pt_class": classify_pt(spec).value,
    }


def _run_zak(spec, **opts):
    result = characterize(spec, **opts)
    return None, {
        "winding": result.winding,
        "re_Q": result.zak.real,
        "im_Q": result.zak.imag,
        "re_zak_deviation": result.re_zak_deviation,
        "pt_class": result.pt_class.value,
    }


def _run_interface(spec):
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


def _run_density(spec, **tol):
    if isinstance(spec, InterfaceSpec):
        profile, state = interface_density(spec)
        fields = {"mode_E": state.E}
    else:
        system = biorthogonal_diagonalize(build_real_space(spec))
        profile = density_profile(system, select_half_filling(system, **tol))
        fields = {}
    rows = [
        [i + 1, a.real, a.imag, b.real, b.imag, c.real, c.imag]
        for i, (a, b, c) in enumerate(zip(profile.site_a, profile.site_b, profile.cell))
    ]
    header = ["cell", "re_n_A", "im_n_A", "re_n_B", "im_n_B", "re_n_cell", "im_n_cell"]
    return ("density", header, rows), fields


def _run_disorder(spec, ells, delta_bound, n_realizations, seed, **opts):
    stats = disorder_ensemble(spec, delta_bound, n_realizations, seed, ells, **opts)
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
        # every realization is a disordered chain: the dense route
        "route": "dense",
        "workers": stats.workers,
    }


def _run_symmetry_check(spec, ell, **tol):
    zero = {"tol_zero": tol.pop("tol_zero")} if "tol_zero" in tol else {}
    M, route = _subsystem_correlation(spec, ell, **zero)
    report = symmetry_closure(_ungauge(M), **tol)
    return None, {
        "ell": ell,
        "route": route,
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
    run: Callable[..., tuple[tuple | None, dict]]


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
    """Resolve and run one config; returns the JSON summary dict."""
    run = _resolve(config, out_dir, jobs)
    os.makedirs(run.out, exist_ok=True)
    csv, fields = TASKS[run.name].run(run.spec, **run.args)

    outputs: list[str] = []
    if csv is not None:
        stem, header, rows = csv
        _write_csv(f"{run.base}_{stem}.csv", header, rows)
        outputs.append(f"{run.base}_{stem}.csv")
    summary = _jsonable({"task": run.name, **fields})
    _atomic_write(f"{run.base}_summary.json", json.dumps(summary, indent=2) + "\n")
    outputs.append(f"{run.base}_summary.json")
    summary["outputs"] = outputs
    return summary


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

#: failure -> (exit code, what stderr calls it); the first match wins, so a
#: ConfigError, itself a PTChainError, exits 2. Any other exception is
#: re-raised with its traceback once the manifest is written.
_EXITS = ((ConfigError, 2, "config error"), (PTChainError, 3, "numerical failure"),
          (OSError, 4, "i/o error"))


def _get(config, block: str, key: str):
    """config[block][key], or None where the config lacks that shape."""
    part = config.get(block) if isinstance(config, dict) else None
    return part.get(key) if isinstance(part, dict) else None


def _write_manifest(config, out_dir: str | None, status: str, outputs: list[str],
                    wall: float, error: str | None):
    out = out_dir or _get(config, "output", "dir")
    if not isinstance(out, str):
        print("i/o error: run manifest not written: the config names no output "
              "directory", file=sys.stderr)
        return
    manifest = {
        "config_hash": config_hash(config),
        "artifact_version": __version__,
        "wall_time_s": wall,
        "tasks": {str(_get(config, "task", "name")): status},
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


def _run_config(config, out_dir: str | None, jobs: int | None) -> int:
    start = time.monotonic()
    try:
        summary = execute(config, out_dir=out_dir, jobs=jobs)
    except BaseException as exc:
        _write_manifest(config, out_dir, f"error:{type(exc).__name__}", [],
                        time.monotonic() - start, str(exc))
        for failure, code, label in _EXITS:
            if isinstance(exc, failure):
                named = f"{type(exc).__name__}: " if type(exc) is not failure else ""
                print(f"{label}: {named}{exc}", file=sys.stderr)
                return code
        raise
    _write_manifest(config, out_dir, "ok", summary["outputs"],
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
        if args.scale < 1:
            print(f"error: --scale must be >= 1, got {args.scale}", file=sys.stderr)
            return 2
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
