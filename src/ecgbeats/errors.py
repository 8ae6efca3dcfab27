"""Exception types shared across the package, and ``validate``, the one
collector of parameter checks, which lists every failure in one error.

The CLI maps these onto exit codes: ValidationError -> 1 (bad configuration
or inputs that violate a contract), DataError -> 2 (unreadable or malformed
data files, missing stage inputs).
"""

import math
import numbers


class ValidationError(ValueError):
    """Input violates a documented invariant or precondition."""


class DataError(RuntimeError):
    """A data file is missing, truncated, or malformed."""


class ParseError(DataError):
    """A text file failed to parse; carries file and line context."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def validate(checks) -> None:
    """checks: iterable of (ok, message); report every failure at once."""
    problems = [msg for ok, msg in checks if not ok]
    if problems:
        raise ValidationError(
            "invalid configuration:\n  - " + "\n  - ".join(problems))


def is_int(value) -> bool:
    """An integer (numpy integers included), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number finite as a float (integers included), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:    # an integer with no float, such as 10**400
        return False


# checks for validate(), each stating what must hold, so NaN and inf fail
def int_at_least(name: str, value, low: int, optional: bool = False):
    ok = (optional and value is None) or (is_int(value) and value >= low)
    return ok, f"{name} must be {'null or ' * optional}an integer >= {low}, got {value!r}"


def real_above(name: str, value, low: float):
    ok = is_real(value) and value > low
    return ok, f"{name} must be a finite number > {low}, got {value!r}"


def real_at_least(name: str, value, low: float):
    ok = is_real(value) and value >= low
    return ok, f"{name} must be a finite number >= {low}, got {value!r}"
