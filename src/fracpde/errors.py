"""Error types shared across the toolkit.

Every failure mode that a caller can sensibly branch on gets its own class;
the CLI prints the class name on stderr, so the names are part of the
interface and must stay stable.
"""

from __future__ import annotations

__all__ = [
    "FracpdeError",
    "NonConvergent",
    "DomainOrder",
    "WrongSign",
    "NotSmoothEnough",
    "NotAnalytic",
    "DCUndefined",
    "EdgeLeakage",
    "DimensionMismatch",
    "NotElliptic",
    "NoRFound",
    "CutoffExceedsNyquist",
    "TooFewBands",
    "UnknownCheckId",
    "UnknownCatalogEntry",
    "PoleHitWarning",
    "EdgeLeakageWarning",
    "UnreliableFitWarning",
]


class FracpdeError(Exception):
    """Base class for all toolkit errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


class NonConvergent(FracpdeError):
    """Integral cannot converge for the given input (e.g. growth at -inf)."""


class DomainOrder(FracpdeError):
    """Evaluation point does not lie above the base point."""


class WrongSign(FracpdeError):
    """Re(nu) has the wrong sign for the requested operation."""


class NotSmoothEnough(FracpdeError):
    """Input lacks the derivatives the formula samples."""


class NotAnalytic(FracpdeError):
    """Contour evaluation requested for a non-analytic input."""


class DCUndefined(FracpdeError):
    """Zero-frequency coefficient cannot be divided by 0^nu."""


class EdgeLeakage(FracpdeError):
    """Samples do not decay at the box boundary."""


class DimensionMismatch(FracpdeError):
    """Operands live on different dimensions or grids."""


class NotElliptic(FracpdeError):
    """Principal symbol vanishes on the unit sphere."""


class NoRFound(FracpdeError):
    """No radius with a positive lower-bound infimum up to scan_max."""


class CutoffExceedsNyquist(FracpdeError):
    """Requested cutoff plateau does not fit on the frequency grid."""


class TooFewBands(FracpdeError):
    """Not enough populated shell bands for a slope fit."""


class UnknownCheckId(FracpdeError):
    """Identity-suite selector named a check that does not exist."""


class UnknownCatalogEntry(FracpdeError):
    """Catalog lookup for a name the catalog does not carry."""

    def __init__(self, name: str, known: tuple[str, ...]):
        super().__init__(f"unknown catalog entry {name!r}; known: {', '.join(known)}")
        self.requested = name
        self.known = known


class PoleHitWarning(UserWarning):
    """Gamma pole in a closed form produced an exact zero coefficient."""


class EdgeLeakageWarning(UserWarning):
    """Operator applied to samples with visible boundary magnitude."""


class UnreliableFitWarning(UserWarning):
    """Regularity fit did not meet the reliability bar."""
