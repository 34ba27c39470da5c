"""The one validation path, ``errors.require``."""

import math

import numpy as np
import pytest

from oamsm import ConfigError
from oamsm.errors import _RULES, require

# Rule: (values that meet it, values that fail it).  A bool is an int
# subclass, but neither a number nor an integer value.
CASES = {
    "finite": ((0.0, -3, np.float64(2.5)), (math.nan, math.inf, "1", None, 1j, True, False)),
    "finite and > 0": ((1e-300, 7), (0.0, -1.0, math.inf, "5", 10**400, True, False)),
    "finite and >= 0": ((0.0, 2), (-1e-300, math.nan, "0", True, False)),
    "a finite number": ((1.0, 1 + 2j, 3), (complex(math.nan), complex(0.0, math.inf), "x", True, False)),
    "an integer": ((0, -7), (1.5, "3", np.int64(3), True, False)),
    "a positive integer": ((1, 20000), (0, -5, 2.5, "4", True, False)),
    "a nonnegative integer": ((0, 3), (-1, 2.0, True, False)),
    "a nonzero integer": ((1, -4), (0, 1.0, True, False)),
    "a power of two": ((1, 2, 1024, 2**70), (0, -2, 3, 6, 2.0, "4", np.int64(4), None, True, False)),
    # The array forms: an empty array passes, and one bad entry fails it.
    "finite in every entry": (
        (np.empty(0), np.array([-1.0, 0.0, 2.5]), [1, 2], 3.0, np.float64(-4.0)),
        (np.array([0.0, math.nan]), np.array([math.inf]), np.array([[1.0], [-math.inf]]), "1", 1j),
    ),
    "finite and >= 0 in every entry": (
        (np.empty((0, 3)), np.array([0.0, 1e300]), (0, 2), 0.0),
        (np.array([1.0, -1e-300]), np.array([math.nan, 1.0]), np.array([2.0, math.inf]), [-1], math.nan),
    ),
    "a finite number in every entry": (
        (np.empty(0, dtype=complex), np.array([1 + 2j, -3.0]), np.array([0.0, 1.0]), 1j),
        (np.array([1.0, complex(math.nan)]), np.array([complex(0.0, math.inf)]), np.array([-math.inf]), "x"),
    ),
}


def test_every_rule_is_tested():
    assert set(CASES) == set(_RULES)


@pytest.mark.parametrize("rule", CASES)
def test_rule(rule):
    good, bad = CASES[rule]
    for value in good:
        require("v", value, rule)
    for value in bad:
        with pytest.raises(ValueError, match=f"^v must be {rule}, got "):
            require("v", value, rule)


def test_error_class_and_message():
    with pytest.raises(ConfigError) as info:
        require("distance_m", -1, "finite and > 0", ConfigError)
    assert str(info.value) == "distance_m must be finite and > 0, got -1"


def test_array_rule_names_the_first_failing_entry():
    # Only an "in every entry" rule on an array adds the entry, by its index.
    message = r"(?s)^v must be finite in every entry, got array\(.*\); first failing entry \[1, 0\] = -inf$"
    with pytest.raises(ValueError, match=message):
        require("v", np.array([[1.0, 2.0], [-math.inf, math.nan]]), "finite in every entry")
    with pytest.raises(ValueError, match=r"; first failing entry \[1\] = \(nan\+0j\)$"):
        require("v", np.array([1.0, complex(math.nan)]), "a finite number in every entry")
    for value, rule in ((math.nan, "finite in every entry"), ([-1.0], "finite")):
        with pytest.raises(ValueError) as info:
            require("v", value, rule)
        assert "first failing entry" not in str(info.value)


def test_choices_rule():
    # A tuple rule is the allowed values; the message lists them.
    require("detector", "ml", ("stepwise", "ml"))
    for value in ("walrus", None, 1, ["ml"]):
        with pytest.raises(ConfigError, match=r"^detector must be stepwise\|ml, got "):
            require("detector", value, ("stepwise", "ml"), ConfigError)


@pytest.mark.parametrize("rule", [r for r in CASES if not r.endswith("in every entry")])
def test_scalar_rule_rejects_an_array(rule):
    # Arrays opt in by the rule's name; a scalar site refuses one, even one
    # of a single entry, which math would read as that entry.
    for value in ([1.0, 2.0], [1.0], [[1.0]]):
        value = np.array(value, dtype=complex if rule == "a finite number" else float)
        with pytest.raises(ValueError, match=f"^rho must be {rule}, got array"):
            require("rho", value, rule)
