"""In-memory span recorder for the traced benchmark run.

Wrappers are installed around the layers' public functions at every
ptchain module attribute bound to them (``biorthogonal_diagonalize`` is
bound in ``spectral``, ``entanglement``, ``edge``, ``cli`` and the package
itself), so a call is recorded whichever module makes it. Nothing is
installed in untraced runs: they import ptchain untouched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: module -> public functions wrapped in the traced run.
WRAPPED: dict[str, list[str]] = {
    "cli": ["execute", "validate_config"],
    "fits": ["cc_fit_pbc", "cc_fit_obc", "casimir_energy_table", "casimir_fit",
             "disorder_ensemble"],
    "entanglement": ["entropy_profile", "classify_spectrum", "entropy"],
    "spectral": ["biorthogonal_diagonalize", "ground_state_energy",
                 "occupied_correlation", "select_half_filling"],
    "lattice": ["build_real_space", "build_interface"],
    "topology": ["characterize"],
    "edge": ["interface_density", "interface_lattice_solve"],
    "rng": ["disorder_offsets"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


#: span name -> work count derived from the call's first argument.
DIM3 = {
    "spectral.biorthogonal_diagonalize": lambda a, kw: len(_first_arg(a, kw)) ** 3,
    "spectral.ground_state_energy": lambda a, kw: (2 * _first_arg(a, kw).cells) ** 3,
    "entanglement.classify_spectrum": lambda a, kw: len(_first_arg(a, kw)) ** 3,
}


class Recorder:
    """Spans of wrapped calls: (name, start, end, parent, run id, self time, raised)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.dim3: dict[str, int] = {name: 0 for name in DIM3}
        self.run_id: str | None = None
        self._stack: list[list] = []  # [span index, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        dim3 = DIM3.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if dim3 is not None:
                self.dim3[name] += dim3(args, kwargs)
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            span = {"name": name, "run": self.run_id, "parent": parent,
                    "start": time.perf_counter(), "end": None, "self_s": None,
                    "raised": False}
            self.spans.append(span)
            self._stack.append([index, 0.0])
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span["raised"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                _, child = self._stack.pop()
                duration = span["end"] - span["start"]
                span["self_s"] = duration - child
                if self._stack:
                    self._stack[-1][1] += duration

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ptchain" or n.startswith("ptchain.")]
        for mod_name, fns in WRAPPED.items():
            home = importlib.import_module(f"ptchain.{mod_name}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s, self_s and errors per span name, zeros included."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
               for name in SPAN_NAMES}
        for span in self.spans:
            row = out[span["name"]]
            row["calls"] += 1
            row["total_s"] += span["end"] - span["start"]
            row["self_s"] += span["self_s"]
            row["errors"] += span["raised"]
        return out
