"""Exception hierarchy shared by all pdo modules.

Every domain failure raises a subclass of :class:`PDOError` so the CLI can
map them uniformly to exit code 1.  Malformed external input is signalled
with :class:`ParseError` (exit code 2 in the CLI).
"""

from __future__ import annotations


class PDOError(Exception):
    """Base class for all domain errors."""


class NotAUnit(PDOError):
    """Inversion requested for a coefficient that is not invertible."""


class DivisionByZero(NotAUnit):
    """Inversion of the zero element of a coefficient ring (zero is not a unit)."""


class NotHomogeneous(PDOError):
    """A graded-ring element mixes terms of different weights."""


class ZeroElement(PDOError):
    """Weight of the zero element is undefined."""


class ExponentOverflow(PDOError):
    """A graded monomial's exponent could leave the packed range |e| < 2^62."""


class RingMismatch(PDOError):
    """Operands live over different coefficient rings."""


class NotInvertible(PDOError):
    """Series inversion needs a unit leading coefficient."""


class OddValuation(PDOError):
    """Square roots exist only at even valuation."""


class BadRoot(PDOError):
    """Supplied leading root does not square to the leading coefficient."""


class NegativeOddWeight(PDOError):
    """No lifting map exists at negative odd weight."""


class ValuationTooLow(PDOError):
    """Projection index below the valuation of the series."""


class NotInvariant(PDOError):
    """Series is not weight-homogeneous (coefficient weight != exponent)."""


class EdgeCaseA1(PDOError):
    """Kronecker-delta evaluation of the tuple coefficients needs k >= 2."""


class EdgeCaseWeightZero(PDOError):
    """Free coefficient extraction is not available at weight zero."""


class ParityMismatch(PDOError):
    """Closed-pair conversion applied to a family of the wrong parity."""


class OrderUnresolvable(PDOError):
    """Exact operands generate an infinite series; a truncation order is required."""


class ParseError(PDOError):
    """Malformed external input (JSON or CLI value); names the offending field."""
