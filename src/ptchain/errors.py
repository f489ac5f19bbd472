"""Exception and warning types shared across the package."""

import sys


class PTChainError(Exception):
    """Base class for all errors raised by this package."""


class DisorderPresent(PTChainError):
    """A momentum-space operation was requested on a disordered chain."""


class SpecTooSmall(PTChainError):
    """The chain is too short to host the requested hopping range."""


class DefectiveMatrix(PTChainError):
    """Left/right eigenvector pairing failed; the matrix sits at or near an
    exceptional point. Increasing the detuning usually resolves this."""


class AmbiguousFilling(PTChainError):
    """Half filling is not uniquely defined (real zero modes present)."""


class GaplessWinding(PTChainError):
    """The off-diagonal Bloch amplitude vanishes on the grid; the winding
    number is undefined."""


class GridTooCoarse(PTChainError):
    """A momentum-grid quantity did not converge under grid refinement."""


class OddDimension(PTChainError):
    """A per-cell symmetry check received a matrix of odd dimension."""


class UnpairedMode(PTChainError):
    """The branch-cut prescription found an eigenvalue without the symmetry
    partners it requires."""


class ResidualNeedsRegularized(PTChainError):
    """The spectrum carries only the particle-hole pairing (conjugation
    symmetry broken); use the regularized prescription instead."""


class DegenerateEigenvalue(PTChainError):
    """An entanglement energy was requested at a correlation eigenvalue of
    exactly 0 or 1."""


class InsufficientPoints(PTChainError):
    """Too few data points remain for the requested fit."""


class NoConvergence(PTChainError):
    """An iterative solver or outer optimization failed to converge."""


class DegenerateW(PTChainError):
    """The inter-cell coupling vanishes; the edge characteristic equation
    degenerates."""


class ExtraneousRoot(PTChainError):
    """The interface bound-state formula was evaluated on the branch that is
    an artifact of squaring; no bound state exists there."""


class NoBoundState(PTChainError):
    """No normalizable interface mode exists at this mass."""


class NoRootInDisk(PTChainError):
    """No root of a bulk dispersion quadratic lies strictly inside the unit
    disk (an extended state), or its leading coefficient v w vanishes."""


class NoLocalizedMode(PTChainError):
    """Dense diagonalization found no interface candidate above the
    inverse-participation-ratio threshold."""


class UnknownFigure(PTChainError):
    """No bundled experiment preset under that name."""


class ConfigError(PTChainError):
    """An experiment configuration failed schema validation."""


class UnsupportedCouplings(UserWarning):
    """v*w <= 0 lies outside the validated coupling family; results are
    flagged but not refused."""


def _caller_stacklevel() -> int:
    """``stacklevel`` for ``warnings.warn`` in the function that calls this
    one, naming the first frame outside the package: the user's line, not
    the line of a package function (or a dataclass ``__init__`` generated
    in a package module) that led to the warning."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").startswith("ptchain."):
        frame, level = frame.f_back, level + 1
    return level
