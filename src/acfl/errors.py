"""Exception types shared across the package, and its one table of range rules.

A single-value range check is ``check(name, value, rule)``: it returns
``value`` when it meets ``rule``, a key of :data:`RULES` and the wording of
the message, and otherwise raises ``ParameterError("<name>: must <rule>, got
<value>")``.  NaN meets no rule.  The config reader prefixes the dotted path
of the object a field sits in (``noise.sigma1_sq: must be finite and
nonnegative, got -1.0``).  Finite means in float range, so an int past the
largest double is refused too; one too long to print shows its bit length.
"""

import sys


class ParameterError(ValueError):
    """An argument or configuration value violates a documented precondition."""


class NumericError(ArithmeticError):
    """A numerical run failed (a diverged iterate, a probe that saw only zero norms)."""


RULES = {
    "be positive": lambda x: x > 0,
    "be nonnegative": lambda x: x >= 0,
    "be finite and positive": lambda x: 0 < x <= sys.float_info.max,
    "be finite and nonnegative": lambda x: 0 <= x <= sys.float_info.max,
    "lie in [0, 1)": lambda x: 0 <= x < 1,
    "lie in [0, 1]": lambda x: 0 <= x <= 1,
}


def check(name: str, value, rule: str):
    """``value`` if it meets ``rule``; otherwise a :class:`ParameterError` naming ``name``."""
    if not RULES[rule](value):
        try:
            shown = f"{value}"
        except ValueError:  # an int past the interpreter's digit limit for str
            shown = f"an integer of {value.bit_length()} bits"
        raise ParameterError(f"{name}: must {rule}, got {shown}")
    return value
