"""The one scalar check, ``errors.require``."""

import math

import numpy as np
import pytest

from oamsm import ConfigError
from oamsm.errors import _RULES, require

# Rule: (values that meet it, values that fail it).
CASES = {
    "finite": ((0.0, -3, np.float64(2.5)), (math.nan, math.inf, "1", None, 1j)),
    "finite and > 0": ((1e-300, 7), (0.0, -1.0, math.inf, "5", 10**400)),
    "finite and >= 0": ((0.0, 2), (-1e-300, math.nan, "0")),
    "a finite number": ((1.0, 1 + 2j, 3), (complex(math.nan), complex(0.0, math.inf), "x")),
    "an integer": ((0, -7), (1.5, "3", np.int64(3))),
    "a positive integer": ((1, 20000), (0, -5, 2.5, "4")),
    "a nonnegative integer": ((0, 3), (-1, 2.0)),
    "a nonzero integer": ((1, -4), (0, 1.0)),
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


def test_choices_rule():
    # A tuple rule is the allowed values; the message lists them.
    require("detector", "ml", ("stepwise", "ml"))
    for value in ("walrus", None, 1, ["ml"]):
        with pytest.raises(ConfigError, match=r"^detector must be stepwise\|ml, got "):
            require("detector", value, ("stepwise", "ml"), ConfigError)
