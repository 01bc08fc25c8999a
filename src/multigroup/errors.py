"""Exception types shared across the workbench, and its one integer rule.

The library raises a WorkbenchError for every value it cannot take, so
callers (notably the CLI) can tell domain failures from programming bugs. An
object of the wrong kind (an int where a carrier goes) is a programming bug
and may raise TypeError or AttributeError: direct_product(cyclic_group(2), 3)
does. A value is an integer when operator.index accepts it (bools and numpy
integers, not 1.5, 2.0 or "1"); as_integer reads every integer parameter,
and integer_text formats every integer that a label or message may hold.
"""

import math
import operator


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class NotAnIntegerError(WorkbenchError, TypeError):
    """A parameter that must be an integer is not one."""


class ChoiceError(WorkbenchError, ValueError):
    """An argument is none the call takes: an unknown choice, an empty input, or out of range."""


def as_integer(value, what: str) -> int:
    """value as an int by operator.index; NotAnIntegerError names what and the value otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise NotAnIntegerError(f"{what} {value!r} is not an integer") from None


def is_integer(value) -> bool:
    """Whether as_integer accepts value."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def integer_text(value, show=str) -> str:
    """show(value), or "<N-digit integer>" for an int that Python refuses to convert.

    Python converts an int of more than 4300 digits to decimal text only
    when sys.set_int_max_str_digits allows it, and raises ValueError
    otherwise; the digit count is found without converting. A tuple holding
    such an int is written item by item, each as its repr would be.
    """
    try:
        return show(value)
    except ValueError:
        if type(value) is tuple:
            items = ", ".join(integer_text(item, repr) for item in value)
            return f"({items},)" if len(value) == 1 else f"({items})"
        if not isinstance(value, int):
            raise
    size = abs(value)
    digits = int((size.bit_length() - 1) * math.log10(2))  # at most the count
    while size >= 10**digits:
        digits += 1
    return f"{'-' if value < 0 else ''}<{digits}-digit integer>"


def error_message(err: Exception) -> str:
    """The text to report for a WorkbenchError or MemoryError.

    numpy's MemoryError names the refused size; a bare one has no message.
    """
    return str(err) or "out of memory"


class NotPrimeError(WorkbenchError, ValueError):
    """A prime field was requested for a modulus that is not prime."""


class JobsError(WorkbenchError, ValueError):
    """A count of jobs is not an integer of at least 1."""


class NotAnElementError(WorkbenchError, KeyError):
    """A carrier was asked for the index of a value that is not one of its elements."""

    def __init__(self, element, label):
        self.element = element
        super().__init__(f"{integer_text(element, repr)} is not an element of {label}")

    __str__ = Exception.__str__  # KeyError's would print the message as a quoted key


class ZeroInverseError(WorkbenchError):
    """Multiplicative inverse of zero requested in a prime field."""


class DimensionMismatchError(WorkbenchError):
    """Matrix or vector operands have incompatible shapes."""


class ModulusMismatchError(WorkbenchError):
    """Operands live over different prime fields."""


class SingularMatrixError(WorkbenchError):
    """Matrix inverse requested for a matrix with zero determinant."""


class TooLargeError(WorkbenchError):
    """Requested enumeration exceeds the carrier size guard."""


class UnsupportedCarrierError(WorkbenchError):
    """Carrier description is syntactically valid but not supported."""


class ActionMismatchError(WorkbenchError):
    """Vector length, matrix dimension, or modulus do not line up for a group action."""


class NotHomomorphismError(WorkbenchError):
    """Candidate automorphism fails f(ab) = f(a)f(b) somewhere."""


class NotBijectiveError(WorkbenchError):
    """Candidate automorphism is not a bijection of the carrier."""


class NotClosedError(WorkbenchError):
    """An operation rule produced a result outside the carrier."""

    def __init__(self, x, y, result):
        self.x, self.y, self.result = x, y, result
        super().__init__(f"operation not closed: {x!r} * {y!r} = {integer_text(result, repr)} "
                         "is outside the carrier")


class CarrierMismatchError(WorkbenchError):
    """A check received operation tables over different carriers."""


class NotAUnitError(WorkbenchError):
    """Element passed as a unit is not a two-sided unit of the table."""


class NotAGroupError(WorkbenchError):
    """A table that must be a group table is not one; `which` names the table."""

    def __init__(self, which, report):
        self.which = which
        self.report = report
        super().__init__(f"{which} is not a group ({report.reason or report.axiom})")


class NoUnitError(WorkbenchError):
    """Construction requires a carrier with a two-sided unit."""


class NotAnActionError(WorkbenchError):
    """Supplied map is not a group action (identity or compatibility fails)."""


class OddModulusError(UnsupportedCarrierError):
    """Parity-dependent construction got a carrier other than an even-order cyclic group."""


class UnknownClaimError(WorkbenchError):
    """Demo claim id is not in the registry."""


class SpecError(WorkbenchError):
    """A spec document failed to parse or compile; carries diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0] if self.diagnostics else None
        super().__init__(str(first) if first else "invalid spec")
