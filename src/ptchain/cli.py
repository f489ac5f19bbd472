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
keys, and its runner; each task key has one rule in the table ``_RULES``,
and each number or enum one type in ``_TYPES``. One pass, ``_resolve``,
turns a config into a run: ``validate_config`` and ``execute`` both take
it, so a config validates exactly when it runs. The model kinds and their
keys are the table ``_MODELS``; the spec classes check their own ranges.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (module
error name recorded in the manifest), 4 I/O error; ``_EXITS`` maps each
failure to its code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import os
import sys
import time
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .cookbook import figure_cookbook, figure_names, scale_config
from .entanglement import (
    Prescription,
    ToleranceSet,
    _correlation_block,
    _correlation_diagonal,
    _ungauge,
    entropy_profile,
)
from .errors import ConfigError, PTChainError
from .fits import (
    _CASIMIR_RULE,
    _CC_RULES,
    FixedCount,
    UntilRMSE,
    UntilSSE,
    casimir_energy_table,
    casimir_fit,
    cc_fit_obc,
    cc_fit_pbc,
    disorder_ensemble,
)
from .lattice import Boundary, ChainSpec, InterfaceSpec, classify_pt
from .spectral import _levels, _mode_amplitudes
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


def _choice(choices: dict, val, where: str):
    """choices[val]: an enum's member by value, or an entry of a table."""
    if not isinstance(val, str) or val not in choices:
        raise ConfigError(f"{where} must be one of {list(choices)}, got {val!r}")
    return choices[val]


#: trim policy -> (its policy class, its keys besides ``policy``)
_TRIMS = {"until_sse": (UntilSSE, {"threshold"}), "until_rmse": (UntilRMSE, {"threshold"}),
          "fixed": (FixedCount, {"n"})}

#: key -> its type, the same in whichever block it occurs. The model's
#: ranges are its spec class's own, so its keys get a type only.
_INT = partial(_number, kind=int)
_TYPES = {
    **dict.fromkeys(("alpha", "cells", "cells_left", "cells_right"), _INT),
    **dict.fromkeys(("ell", "num", "lo", "hi", "jobs"), partial(_INT, low=1)),
    **dict.fromkeys(("seed", "n"), partial(_INT, low=0)),
    "n_k": partial(_INT, low=8),
    # a standard error needs two realizations
    "n_realizations": partial(_INT, low=2),
    "delta_L": partial(_INT, nullable=True),
    **dict.fromkeys(("v", "w", "v1", "v2", "u", "detuning"), _number),
    **dict.fromkeys(("delta_bound", "threshold", *_TOLERANCE_KEYS),
                    partial(_number, positive=True)),
    **{key: partial(_choice, {m.value: m for m in enum})
       for key, enum in (("boundary", Boundary), ("prescription", Prescription))},
    "spacing": partial(_choice, {"log": np.geomspace, "linear": np.linspace}),
}


def _values(block: dict, where: str) -> dict:
    """The block with every key of ``_TYPES`` typed."""
    return {key: _TYPES[key](val, f"{where}.{key}") if key in _TYPES else val
            for key, val in block.items()}


def _object(block: dict, key: str, where: str) -> dict:
    if not isinstance(block[key], dict):
        raise ConfigError(f"{where}.{key} must be an object")
    return block[key]


def _build_model(model: dict) -> ChainSpec | InterfaceSpec:
    """The spec of a model block; the spec class checks the ranges."""
    kind = model.get("kind")
    if kind not in tuple(_MODELS):
        raise ConfigError(f"model.kind must be one of {list(_MODELS)}, got {kind!r}")
    spec_class, required, optional = _MODELS[kind]
    _require_keys(model, {"kind", *required, *optional}, {"kind", *required}, "model")
    fields = _values(model, "model")
    del fields["kind"]
    try:
        spec = spec_class(**fields)
    except (ValueError, PTChainError) as exc:
        raise ConfigError(f"invalid {kind} model: {exc}") from exc
    if kind == "interface" and not (spec.u > 0 and spec.w != 0):
        raise ConfigError(
            "an interface needs u > 0 (the gain/loss side) and w != 0 (the bond "
            f"joining the two sides), got u = {spec.u}, w = {spec.w}")
    return spec


def _bounded(where: str, op: str, name: str, limit: Callable):
    """The rule value ``op`` limit(spec), a bound the spec sets."""
    holds = {"<=": operator.le, "<": operator.lt}[op]

    def rule(value, spec, task):
        if not holds(value, limit(spec)):
            raise ConfigError(f"{where} must be {op} {name} = {limit(spec)}, got {value!r}")
        return value
    return rule


def _int_list(where: str, low: Callable, fewest: int = 1):
    """The rule of a list of integers >= low(spec), at least ``fewest`` of
    them distinct."""
    def rule(values, spec, task):
        ints = [_number(x, f"{where} entries", int, low(spec))
                for x in (values if isinstance(values, list) else [])]
        if len(set(ints)) < fewest:  # a value that is not a list holds none
            raise ConfigError(f"{where} must be a list of >= {fewest} distinct "
                              f"integers, got {values!r}")
        return ints
    return rule


def _ells(ells, spec, task):
    """Explicit ``ells``, each within the largest subsystem (half the chain
    for a cc fit), or an ``ell_grid`` clipped to it; not both."""
    cells = spec.cells // (2 if task["name"] == "cc-fit" else 1)
    if ells is not None and task.get("ell_grid") is not None:
        raise ConfigError(f"task {task['name']} takes 'ells' or 'ell_grid', not both")
    if ells is not None:
        ells = sorted(set(_int_list("task.ells", lambda spec: 1)(ells, spec, task)))
        if ells[-1] > cells:
            raise ConfigError(f"task.ells {[e for e in ells if e > cells]} exceed the "
                              f"largest subsystem, {cells} cells")
        return ells
    if task.get("ell_grid") is None:
        raise ConfigError(f"task {task['name']} needs 'ells' or 'ell_grid'")
    grid = _values(_object(task, "ell_grid", "task"), "task.ell_grid")
    _require_keys(grid, {"num", "lo", "hi", "spacing"}, {"num", "lo", "hi"}, "task.ell_grid")
    raw = grid.get("spacing", np.geomspace)(grid["lo"], min(grid["hi"], cells), grid["num"])
    ells = sorted({int(round(x)) for x in raw} & set(range(1, cells + 1)))
    if not ells:
        raise ConfigError(f"no subsystem sizes in 1..{cells} after resolution")
    return ells


def _trim(trim, spec, task):
    """A policy the chain's cc fit takes (``_CC_RULES``): by default until_sse
    on a periodic chain (cc_fit_pbc's is FixedCount(0)), cc_fit_obc's on an
    open one. The ells must leave the fit its fewest points after it."""
    rule = _CC_RULES[spec.boundary]
    names = [name for name, (policy, _) in _TRIMS.items() if policy in rule.trims]
    if trim is None and spec.boundary is Boundary.PBC:
        trim = {"policy": "until_sse"}
    if trim is not None:
        if not isinstance(trim, dict) or trim.get("policy") not in names:
            raise ConfigError(f"task.trim on a {spec.boundary.value} chain must be "
                              f"{{'policy': {'|'.join(map(repr, names))}, ...}}")
        policy, keys = _TRIMS[trim["policy"]]
        _require_keys(trim, {"policy", *keys}, {"policy"}, "task.trim")
        trim = policy(**{k: v for k, v in _values(trim, "task.trim").items()
                         if k != "policy"})
    trimmed = getattr(trim, "n", 0)
    if len(task["ells"]) < rule.min_points + trimmed:
        raise ConfigError(f"the cc fit of a {spec.boundary.value} chain needs >= "
                          f"{rule.min_points + trimmed} subsystem sizes ({trimmed} "
                          f"trimmed), got {task['ells']}")
    return trim


def _delta_L(delta_L, spec, task):
    if delta_L is not None and spec.boundary is Boundary.PBC:
        raise ConfigError("task.delta_L applies to open chains; the periodic "
                          "Casimir fit has no extrapolation length")
    return delta_L


#: task key -> its rule: (value as typed, spec, task block) -> the runner's
#: argument, None for the library's default; ConfigError where the task
#: cannot run. A block resolves in this order, so a rule sees the keys above
#: it resolved. ``seed`` and ``jobs`` are top-level keys (``_Task.config``).
_RULES = {
    # as typed
    **dict.fromkeys(("ell_grid", "prescription", "n_k", "n_realizations", "seed", "jobs"),
                    lambda value, spec, task: value),
    "ells": _ells,
    "trim": _trim,
    "sizes": _int_list("task.sizes", lambda spec: max(4, spec.alpha + 1),
                       _CASIMIR_RULE.min_points),
    "delta_L": _delta_L,
    "ell": _bounded("task.ell", "<=", "model.cells", lambda spec: spec.cells),
    "delta_bound": _bounded("task.delta_bound", "<", "min(v, u)",
                            lambda spec: min(spec.v, spec.u)),
}


class _Run(NamedTuple):
    """A resolved config: the task, its spec, its runner's keyword arguments
    (``_RULES``) and the output directory and path prefix."""

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
    keys = entry.optional | entry.required | entry.config
    block = {**_values(task, "task"), **{key: top[key] for key in entry.config & top.keys()}}
    for key in sorted(keys, key=list(_RULES).index):
        block[key] = _RULES[key](block.get(key), spec, block)
    # the ells hold the grid's sizes
    args = {key: block[key] for key in keys - {"ell_grid"} if block[key] is not None}

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


def _atomic_write(path: str, text: str):
    """``text`` to ``path`` through a fresh file in its directory and one
    rename. The fresh file is created with mode 0o666 less the umask, as
    ``open`` creates one (``tempfile.mkstemp`` makes 0o600), and the rename
    keeps that mode."""
    directory = os.path.dirname(path) or "."
    while True:
        tmp = os.path.join(directory, f".ptchain-{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # another name, as mkstemp would take
            continue
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, columns: dict) -> None:
    """Equal-length columns, a complex column x as re_x and im_x."""
    split = {}
    for name, col in columns.items():
        col = np.asarray(col)
        split.update({f"re_{name}": col.real, f"im_{name}": col.imag}
                     if np.iscomplexobj(col) else {name: col})
    lines = [",".join(split)]
    for row in zip(*(col.tolist() for col in split.values())):
        lines.append(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.generic, np.ndarray)):
        return _jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _sha256():
    """CPython's own SHA-256 (``_sha2`` from 3.12, ``_sha256`` before):
    ``hashlib`` loads OpenSSL's libcrypto, about 3.6 MB resident, to hash a
    config of a few hundred bytes. ``hashlib`` only where neither exists;
    the digest is the same."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return _sha256()(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Task table
#
# A runner maps a spec and the keyword arguments ``_resolve`` gives it to
# (csv, summary fields), where csv is (stem, columns) or None. Runners
# reach the library through this module's globals, so patching
# ptchain.cli.<function> reaches them.
# ---------------------------------------------------------------------------


def _run_spectrum(spec):
    # every CLI chain is clean: E = -+e per mode amplitude, in (Re, Im,
    # index) order by a stable sort; + 0.0 writes no signed zero
    e = _levels(_mode_amplitudes(spec), spec.u_eff)
    energies = sorted((np.concatenate([-e, e]) + 0.0).tolist(), key=lambda z: (z.real, z.imag))
    return ("spectrum", {"index": range(len(energies)), "E": energies}), {
        "n_modes": len(energies),
        # no eigenvector is formed, so no biorthogonality to report
        "biorth_residual": None,
        "pt_class": classify_pt(spec).value,
        "route": "k_space" if spec.boundary is Boundary.PBC else "singular_mode",
    }


def _run_entropy_scan(spec, ells, **opts):
    prof = entropy_profile(spec, ells, **opts)
    return ("entropy", {"ell": prof.ells, "S": prof.values, "n_edge_pairs": prof.n_edge_pairs,
                        "n_quartets": prof.n_quartets, "n_residual": prof.n_residual}), {
        "prescription": prof.prescription.value, "n_points": len(prof.ells),
        "route": prof.route, "workers": prof.workers,
    }


def _run_cc_fit(spec, ells, trim=None, **opts):
    csv, fields = _run_entropy_scan(spec, ells, **opts)
    fit = cc_fit_pbc if spec.boundary is Boundary.PBC else cc_fit_obc
    columns, policy = csv[1], {} if trim is None else {"trim": trim}
    return csv, {"prescription": fields["prescription"],
                 "fit": fit(columns["ell"], columns["S"].real, spec.cells, **policy),
                 "route": fields["route"], "workers": fields["workers"]}


def _run_casimir(spec, sizes, delta_L=None, **tol):
    sizes, energies = casimir_energy_table(spec, sizes, **tol)
    fit = casimir_fit(sizes, energies, spec.boundary.value, delta_L)
    return ("casimir", {"L": sizes, "re_E0": energies}), {"fit": fit}


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
        site, fields = profile.site, {"mode_E": state.E, "route": "dense"}
    else:
        # C_ii = 1/2 + (i/2) M_ii of the chain's correlation block
        diagonal, route = _correlation_diagonal(spec, **tol)
        site = 0.5 + 0.5j * diagonal
        fields = {"route": route}
    return ("density", {"cell": range(1, spec.cells + 1), "n_A": site[0::2],
                        "n_B": site[1::2], "n_cell": site[0::2] + site[1::2]}), fields


def _run_disorder(spec, ells, delta_bound, n_realizations, seed=0, **opts):
    stats = disorder_ensemble(spec, delta_bound, n_realizations, seed, ells, **opts)
    return ("disorder", {"ell": stats.ells, "mean_re_S": stats.mean_re,
                         "sem_re_S": stats.sem_re, "mean_im_S": stats.mean_im,
                         "sem_im_S": stats.sem_im}), {
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
    M, route = _correlation_block(spec, ell, **zero)
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
    tolerance keys its runner reads, its runner, the top-level keys it
    reads. Each task key and top-level key has its rule in ``_RULES``."""

    kinds: tuple[str, ...]
    optional: set[str]
    required: set[str]
    tolerances: set[str]
    run: Callable[..., tuple[tuple | None, dict]]
    config: set[str] = set()


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
                      _ENTROPY_TOLERANCES, _run_disorder, {"seed", "jobs"}),
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
        outputs.append(f"{run.base}_{csv[0]}.csv")
        _write_csv(outputs[0], csv[1])
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
