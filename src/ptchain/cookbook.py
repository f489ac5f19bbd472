"""Bundled experiment presets, version-pinned.

Each preset is a complete run configuration at its reference scale; the
``--scale k`` flag of the command line divides the chain sizes by k
while leaving every quantized output (windings, imaginary-entropy
plateaus) untouched; interface models keep their size.
"""

from __future__ import annotations

import copy

from .errors import UnknownFigure


def _chain(alpha, v, w, u, cells, boundary, detuning=None):
    model = {
        "kind": "chain",
        "alpha": alpha,
        "v": v,
        "w": w,
        "u": u,
        "cells": cells,
        "boundary": boundary,
    }
    if detuning is not None:
        model["detuning"] = detuning
    return model


def _log_grid(num, lo, hi):
    return {"num": num, "lo": lo, "hi": hi, "spacing": "log"}


_CC_PBC_TASK = {
    "name": "cc-fit",
    "ell_grid": _log_grid(24, 8, 2500),
    "prescription": "branch_cut",
    "trim": {"policy": "until_sse", "threshold": 1e-4},
}

_CASIMIR_SIZES = [64, 128, 192, 256, 320, 384, 448, 512]


def _obc_cc(alpha, v, w, u):
    # fit window: quarter chain, clear of the half-chain regime where the
    # single-boundary regularized entropy departs from the shifted form
    return {
        "model": _chain(alpha, v, w, u, 200, "obc"),
        "task": {
            "name": "cc-fit",
            "ell_grid": {"num": 50, "lo": 1, "hi": 50, "spacing": "linear"},
            "prescription": "regularized",
            "trim": {"policy": "until_rmse", "threshold": 1e-4},
        },
        "output": {"dir": "."},
    }


def _obc_casimir(alpha, v, w, delta_L):
    return {
        "model": _chain(alpha, v, w, 1.0, 512, "obc", detuning=1e-12),
        "task": {"name": "casimir", "sizes": list(_CASIMIR_SIZES), "delta_L": delta_L},
        "output": {"dir": "."},
    }


def _interface_density(v1):
    return {
        "model": {
            "kind": "interface",
            "v1": v1,
            "v2": 0.5,
            "w": 1.0,
            "u": 0.5,
            "cells_left": 20,
            "cells_right": 20,
        },
        "task": {"name": "density"},
        "output": {"dir": "."},
    }


_REGISTRY: dict[str, dict] = {
    # periodic-chain entropy scaling at the three reference critical points
    "fig2a": {
        "model": _chain(1, 2.0, 1.0, 1.0, 10000, "pbc", detuning=1e-12),
        "task": copy.deepcopy(_CC_PBC_TASK),
        "output": {"dir": "."},
    },
    "fig2b": {
        "model": _chain(1, 1.0, 2.0, 1.0, 10000, "pbc", detuning=1e-12),
        "task": copy.deepcopy(_CC_PBC_TASK),
        "output": {"dir": "."},
    },
    "fig2c": {
        "model": _chain(2, 1.0, 2.0, 1.0, 10000, "pbc", detuning=1e-12),
        "task": copy.deepcopy(_CC_PBC_TASK),
        "output": {"dir": "."},
    },
    # periodic Casimir scan
    "fig2d": {
        "model": _chain(1, 1.0, 2.0, 1.0, 512, "pbc", detuning=1e-12),
        "task": {"name": "casimir", "sizes": list(_CASIMIR_SIZES), "delta_L": None},
        "output": {"dir": "."},
    },
    # disorder ensemble at the topological critical point
    "fig4a": {
        "model": _chain(1, 1.0, 2.0, 1.0, 1000, "pbc", detuning=1e-10),
        "task": {
            "name": "disorder",
            "ell_grid": _log_grid(16, 4, 500),
            "n_realizations": 1000,
            "delta_bound": 0.999,
            "prescription": "regularized",
        },
        "seed": 1234,
        "output": {"dir": "."},
    },
    # complex Zak phase against the winding number
    "sm-s1": {
        "model": _chain(1, 1.0, 2.0, 0.5, 64, "pbc"),
        "task": {"name": "zak", "n_k": 4096},
        "output": {"dir": "."},
    },
    # small-gap chain where a quartet enters the spectrum
    "sm-s2": {
        "model": _chain(1, 2.0, 1.0, 1.0, 10000, "pbc", detuning=1e-7),
        "task": {
            "name": "entropy-scan",
            "ell_grid": {"num": 39, "lo": 2, "hi": 40, "spacing": "linear"},
            "prescription": "branch_cut",
        },
        "output": {"dir": "."},
    },
    "sm-s2-abs": {
        "model": _chain(1, 2.0, 1.0, 1.0, 10000, "pbc", detuning=1e-7),
        "task": {
            "name": "entropy-scan",
            "ell_grid": {"num": 39, "lo": 2, "hi": 40, "spacing": "linear"},
            "prescription": "absolute_value",
        },
        "output": {"dir": "."},
    },
    # open-chain Casimir, one preset per boundary class
    "sm-s4a": _obc_casimir(1, 2.0, 1.0, +2),
    "sm-s4b": _obc_casimir(1, 1.0, 2.0, -1),
    "sm-s4c": _obc_casimir(2, 2.0, 1.0, +1),
    "sm-s4d": _obc_casimir(2, 1.0, 2.0, -2),
    # open-chain entropy fits
    "sm-s5a": _obc_cc(1, 2.0, 1.0, 1.0),
    "sm-s5b": _obc_cc(1, 10.0, 9.0, 1.0),
    "sm-s5c": _obc_cc(1, 1.0, 2.0, 1.0),
    "sm-s5d": _obc_cc(1, 9.0, 10.0, 1.0),
    "sm-s5e": _obc_cc(2, 2.0, 1.0, 1.0),
    "sm-s5f": _obc_cc(2, 1.0, 2.0, 1.0),
    # interface densities
    "sm-s6a": _interface_density(100.0),
    "sm-s6b": _interface_density(1.5),
    "sm-s6d": _interface_density(1.1),
}
_REGISTRY["sm-s4"] = _REGISTRY["sm-s4b"]
_REGISTRY["sm-s5"] = _REGISTRY["sm-s5a"]
_REGISTRY["sm-s6"] = _REGISTRY["sm-s6b"]


def figure_names() -> list[str]:
    return sorted(_REGISTRY)


def figure_cookbook(name: str) -> dict:
    """Deep copy of the bundled configuration under ``name``."""
    try:
        return copy.deepcopy(_REGISTRY[name])
    except KeyError:
        raise UnknownFigure(
            f"unknown preset {name!r}; available: {', '.join(figure_names())}"
        ) from None


def scale_config(config: dict, k: int) -> dict:
    """Divide every lattice extent of a chain config by k (minimum sizes
    kept). An interface model keeps its cells: its mode leaves the bulk
    only from about 14 cells per side (``edge.interface_density``), and the
    bundled 20 + 20 (80 sites) take milliseconds."""
    if k < 1:
        raise ValueError("scale factor must be >= 1")
    cfg = copy.deepcopy(config)
    model = cfg.get("model", {})
    task = cfg.get("task", {})
    if model.get("kind") == "chain":
        alpha = int(model.get("alpha", 1))
        model["cells"] = max(model["cells"] // k, alpha + 1, 8)
    if "ell_grid" in task:
        grid = task["ell_grid"]
        grid["lo"] = max(grid["lo"] // k, 1)
        grid["hi"] = max(grid["hi"] // k, grid["lo"] + 1)
    if "ells" in task:
        scaled = sorted({max(e // k, 1) for e in task["ells"]})
        task["ells"] = scaled
    if "sizes" in task:
        task["sizes"] = sorted({max(s // k, 16) for s in task["sizes"]})
    return cfg
