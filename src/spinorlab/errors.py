"""Exception types raised across the package, ``raise_first`` and ``one_row``."""

import numpy as np


class SpinorlabError(Exception):
    """Base class for all spinorlab errors."""


class DegenerateXi(SpinorlabError):
    """The supplied Xi operator is not an involution (Xi^2 != 1)."""


class NullCurrent(SpinorlabError):
    """The current J vanishes where a non-null J is required."""


class AmbiguousScale(SpinorlabError):
    """The spinor norm is below threshold; zero-tests are meaningless."""


class ZeroDecomposition(SpinorlabError):
    """Both plane coordinates vanish (the zero spinor is not decomposable)."""


class InvalidBase(SpinorlabError):
    """The reference spinor fails the regular-base constraints."""


class IntegrabilityViolation(SpinorlabError):
    """Re(a) != Re(b): the derivative condition is not integrable."""


class DegenerateB(SpinorlabError):
    """Im(b) = 0 makes the axial potential diverge."""


class DegenerateRealPart(SpinorlabError):
    """Re(a) = 0: the coefficient formulas divide by Re(a)."""


class ZeroCoefficient(SpinorlabError):
    """A map coefficient vanishes and cannot be inverted."""


class NonInvertible(SpinorlabError):
    """Block-scalar operator with a vanishing scalar has no inverse."""


class NotInPlane(SpinorlabError):
    """Spinor is not proportional, block by block, to the reference spinor."""


class DegenerateBasis(SpinorlabError):
    """A chiral block of the reference spinor vanishes."""


class BasisMismatch(SpinorlabError):
    """Coordinate pairs refer to different bases."""


class DegenerateParameter(SpinorlabError):
    """Homotopy parameter hits a vanishing-coefficient point."""


class NonFiniteMomentum(SpinorlabError):
    """A finite momentum whose Xi or spinor overflows."""


class InconsistentBilinears(SpinorlabError):
    """A hand-built bilinear record violates the algebraic constraints."""


class NonFiniteValue(SpinorlabError, ValueError):
    """A finite input whose covariants, residuals or report values overflow."""


def raise_first(bad, error: type[Exception], template: str, *values) -> None:
    """Raise ``error`` when the boolean scalar or (n,) array ``bad`` is set
    anywhere: with ``template`` formatted with ``values`` at the first failing
    row, whose index starts the message of an array."""
    bad = np.asarray(bad)
    if not bad.any():
        return
    at = int(np.argmax(bad)) if bad.ndim else ()
    message = template.format(*(np.broadcast_to(v, bad.shape)[at].item() for v in values))
    raise error(message if bad.ndim == 0 else f"row {at}: {message}")


def one_row(value, one: bool, scalar=lambda row: row.item()):
    """``value`` computed over rows, or its row 0 where ``one`` marks a call
    lifted to one row: item by item in a tuple, list or dict, and a 0-d row
    as ``scalar(row)``, by default the Python number ``row.item()``."""
    if not one:
        return value
    if isinstance(value, (tuple, list)):
        return type(value)(one_row(v, True, scalar) for v in value)
    if isinstance(value, dict):
        return {key: one_row(v, True, scalar) for key, v in value.items()}
    row = np.asarray(value)[0]
    return row if row.ndim else scalar(row)
