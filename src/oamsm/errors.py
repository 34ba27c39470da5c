"""Exception types shared across the package, and the one validation path,
``require``: a scalar against a rule, or every entry of an array against
the rule's "in every entry" form."""

import cmath
import math

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration: bad key, constraint violation, or a parameter
    combination the model cannot support (e.g. no matching beam waist)."""


class NumericError(RuntimeError):
    """A numerical routine failed to reach its accuracy target.

    Carries the best available estimate and an error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: float, bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, bound={bound!r})")
        self.estimate = estimate
        self.bound = bound


def _every(rule):
    """The array form of a real rule that holds on an interval: real entries
    whose min and max (NaN reaches both) meet it; an empty array passes."""
    return lambda v: (a := np.asarray(v)).dtype.kind in "biuf" and (a.size == 0 or (rule(a.min()) and rule(a.max())))


def _scalar(rule):
    """``rule`` on a number: an array of one dimension or more fails, even one
    of a single entry, which math would read as that entry."""
    return lambda v: not (isinstance(v, np.ndarray) and v.ndim) and rule(v)


# Rule: what a value must be; the key is also the message's wording.  The
# scalar rules use math, so they stay cheap, and refuse any array; the
# integer rules take a plain int, not a NumPy integer.  No rule takes a bool,
# an int subclass but no number: ``_meets`` refuses it before any rule.
_RULES = {
    "finite": _scalar(math.isfinite),
    "finite and > 0": _scalar(lambda v: math.isfinite(v) and v > 0.0),
    "finite and >= 0": _scalar(lambda v: math.isfinite(v) and v >= 0.0),
    "a finite number": _scalar(cmath.isfinite),  # real or complex
    "an integer": lambda v: type(v) is int,
    "a positive integer": lambda v: type(v) is int and v >= 1,
    "a nonnegative integer": lambda v: type(v) is int and v >= 0,
    "a nonzero integer": lambda v: type(v) is int and v != 0,
    "a power of two": lambda v: type(v) is int and v >= 1 and v & (v - 1) == 0,
}
_RULES |= {f"{rule} in every entry": _every(_RULES[rule]) for rule in ("finite", "finite and >= 0")}
_RULES["a finite number in every entry"] = lambda v: (a := np.asarray(v)).dtype.kind in "biufc" and np.isfinite(a).all()


def require(name: str, value, rule, error=ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` meets ``rule``: a key of
    ``_RULES``, or the tuple of allowed values.  A wrong type, or an int too
    large for a float, fails it."""
    choices = isinstance(rule, tuple)
    if _meets(rule.__contains__ if choices else _RULES[rule], value):
        return
    if choices:
        raise error(f"{name} must be {'|'.join(rule)}, got {value!r}")
    raise error(f"{name} must be {rule}, got {value!r}{_first_failing_entry(value, rule)}")


def _meets(check, value) -> bool:
    try:
        return not isinstance(value, bool) and bool(check(value))
    except (TypeError, ValueError, OverflowError):
        return False


def _first_failing_entry(value, rule: str) -> str:
    """Under an "in every entry" rule, the first entry of an array that fails
    on its own, by index: numpy's repr shows only the ends of a long array."""
    if not rule.endswith(" in every entry"):
        return ""
    entry_rule = _RULES[rule.removesuffix(" in every entry")]
    try:
        a = np.asarray(value)
        i = next(i for i in range(a.size if a.ndim else 0) if not _meets(entry_rule, a.item(i)))
    except (ValueError, StopIteration):  # ragged, or no entry fails on its own
        return ""
    return f"; first failing entry [{', '.join(map(str, np.unravel_index(i, a.shape)))}] = {a.item(i)!r}"
