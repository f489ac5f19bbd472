"""The benchmark's workloads: configs generated from the bundled presets,
the output checks each CLI run must pass, and the per-layer predictions.

Every config is built the way ``ptchain fig <name> --scale K`` builds it
(``figure_cookbook`` then ``scale_config``); the only edits are the ones a
workload documents (the disorder ensemble's realization count and seed).
Check tolerances are the acceptance gate's (tests/test_acceptance.py) and
never looser.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

from ptchain.cookbook import figure_cookbook, scale_config

#: Casimir amplitude of the open chain, pi * v_F * c / 24 with v_F = sqrt(2), c = 2.
A_OBC = math.pi * math.sqrt(2.0) * 2.0 / 24.0
LN2 = math.log(2.0)

#: Criterion-10 references for c/6 of the open-chain fits, per preset.
C6_REFS = {
    "sm-s5a": -0.3344,
    "sm-s5b": -0.3368,
    "sm-s5c": -0.3321,
    "sm-s5d": -0.3377,
    "sm-s5e": -0.3348,
    "sm-s5f": -0.3303,
}

DISORDER_REALIZATIONS = 12

#: (preset, scale) per workload, in execution order.
WORKLOADS: dict[str, list[tuple[str, int]]] = {
    "pbc_kspace": [("fig2a", 8), ("fig2b", 8), ("fig2c", 8), ("sm-s1", 1)],
    "obc_dense": (
        [(f"sm-s4{x}", 2) for x in "abcd"]
        + [(f"sm-s5{x}", 1) for x in "abcdef"]
        + [(f"sm-s6{x}", 1) for x in "abd"]
    ),
    "disorder_ensemble": [("fig4a", 5)],
}

#: Wrapped functions that must see no call on a workload. A call is a
#: contradicted prediction, reported by the traced run.
PREDICTED_ZERO_CALLS: dict[str, list[str]] = {
    "pbc_kspace": [
        "spectral.biorthogonal_diagonalize",
        "spectral.ground_state_energy",
        "spectral.occupied_correlation",
        "spectral.select_half_filling",
        "lattice.build_real_space",
        "fits.cc_fit_obc",
        "fits.disorder_ensemble",
    ],
    "obc_dense": [
        "fits.cc_fit_pbc",
        "fits.disorder_ensemble",
        "rng.disorder_offsets",
    ],
    "disorder_ensemble": [
        "spectral.ground_state_energy",
        "fits.cc_fit_obc",
        "fits.cc_fit_pbc",
        "fits.casimir_energy_table",
    ],
}

#: (workload, layer metric, "min" or "max", share of the traced pass wall
#: time). Bounds sit well outside the shares measured when the workloads
#: were chosen, so only a real shift of the work contradicts them.
PREDICTED_SHARES: list[tuple[str, str, str, float]] = [
    ("pbc_kspace", "entanglement.entropy_profile.self_s", "min", 0.80),
    ("disorder_ensemble", "spectral.biorthogonal_diagonalize.total_s", "min", 0.40),
    ("obc_dense", "spectral.ground_state_energy.total_s", "min", 0.40),
    ("obc_dense", "fits.cc_fit_obc.total_s", "max", 0.25),
    ("disorder_ensemble", "spectral.occupied_correlation.total_s", "max", 0.15),
    ("pbc_kspace", "entanglement.classify_spectrum.total_s", "max", 0.05),
    ("obc_dense", "entanglement.classify_spectrum.total_s", "max", 0.05),
    ("disorder_ensemble", "entanglement.classify_spectrum.total_s", "max", 0.05),
    ("pbc_kspace", "entanglement.entropy.total_s", "max", 0.05),
    ("obc_dense", "entanglement.entropy.total_s", "max", 0.05),
    ("disorder_ensemble", "entanglement.entropy.total_s", "max", 0.05),
    ("pbc_kspace", "cli.execute.self_s", "max", 0.01),
    ("obc_dense", "cli.execute.self_s", "max", 0.01),
    ("disorder_ensemble", "cli.execute.self_s", "max", 0.01),
    ("disorder_ensemble", "fits.disorder_ensemble.self_s", "max", 0.01),
]


def build_configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's (preset, config) pairs; ``seed`` reaches only fig4a."""
    configs = []
    for name, scale in WORKLOADS[workload]:
        config = figure_cookbook(name)
        if scale > 1:
            config = scale_config(config, scale)
        if name == "fig4a":
            # realization r draws its offsets from SplitMix64(seed + r)
            config["task"]["n_realizations"] = DISORDER_REALIZATIONS
            config["seed"] = seed
        configs.append((name, config))
    return configs


@dataclass(frozen=True)
class Check:
    """One output check. ``frac`` is |deviation| / tolerance, or None for a
    check without a tolerance (an exact count, an open interval)."""

    label: str
    frac: float | None
    ok: bool


def _within(label: str, deviation: float, tol: float) -> Check:
    frac = abs(deviation) / tol
    return Check(label, frac, frac <= 1.0)


def _entropy_rows(outputs: list[str]) -> list[dict]:
    path = next(p for p in outputs if p.endswith("_entropy.csv"))
    with open(path, newline="") as handle:
        return [
            {key: float(val) for key, val in row.items()}
            for row in csv.DictReader(handle)
        ]


def _edge_pair_imag(name: str, rows: list[dict]) -> Check:
    past = [r for r in rows if r["n_edge_pairs"] >= 1]
    if not past:
        return Check(f"{name} Im S = -pi n_edge_pairs (no edge-pair sizes)", None, False)
    dev = max(abs(r["im_S"] + math.pi * r["n_edge_pairs"]) for r in past)
    return _within(f"{name} Im S = -pi n_edge_pairs", dev, 1e-6)


def check_run(name: str, config: dict, summary: dict, outputs: list[str],
              earlier: dict[str, dict]) -> list[Check]:
    """Checks on one CLI run's written outputs.

    ``summary`` is the run's summary JSON as written; ``earlier`` maps the
    presets already run in this pass to theirs (the boundary-offset check
    compares two Casimir fits).
    """
    checks: list[Check] = []
    if name in ("fig2a", "fig2b", "fig2c"):
        c3 = summary["fit"]["coefficients"]["c_over_3"]
        tol = 0.02 if name == "fig2c" else 0.015
        checks.append(_within(f"{name} c/3 = -2/3", c3 + 2.0 / 3.0, tol))
        rows = _entropy_rows(outputs)
        if name == "fig2a":
            im_max = max(abs(r["im_S"]) for r in rows)
            checks.append(_within("fig2a max|Im S| = 0", im_max, 1e-8))
        else:
            checks.append(_edge_pair_imag(name, rows))
    elif name == "sm-s1":
        checks.append(Check("sm-s1 winding = 1", None, summary["winding"] == 1))
        checks.append(_within("sm-s1 Re Zak = pi", summary["re_zak_deviation"], 1e-6))
    elif name.startswith("sm-s4"):
        slope = summary["fit"]["coefficients"]["slope"]
        checks.append(_within(f"{name} Casimir OBC slope", (slope - A_OBC) / A_OBC, 0.01))
        partner = {"sm-s4b": "sm-s4a", "sm-s4d": "sm-s4c"}.get(name)
        if partner is not None:
            b_top = summary["fit"]["coefficients"]["b"]
            b_triv = earlier[partner]["fit"]["coefficients"]["b"]
            offset = (b_top - b_triv) / 2.0
            checks.append(_within(f"{name}-{partner} boundary offset in [0.7, 1.3] ln2",
                                  offset - LN2, 0.3 * LN2))
    elif name in C6_REFS:
        c6 = summary["fit"]["coefficients"]["c_over_6"]
        checks.append(_within(f"{name} OBC c/6", c6 - C6_REFS[name], 0.01))
    elif name.startswith("sm-s6"):
        im_e = summary["mode_E"]["im"]
        u = config["model"]["u"]
        checks.append(Check(f"{name} 0 < Im E < u", None, 0.0 < im_e < u))
    elif name == "fig4a":
        for key in ("im_min", "im_max"):
            checks.append(_within(f"fig4a {key} = -pi", summary[key] + math.pi, 1e-6))
    else:
        raise KeyError(f"no checks defined for preset {name!r}")
    return checks


def load_summary(outputs: list[str]) -> dict:
    path = next(p for p in outputs if p.endswith("_summary.json"))
    with open(path) as handle:
        return json.load(handle)
