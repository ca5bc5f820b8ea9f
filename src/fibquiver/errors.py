"""Shared exception types, each one of the two kinds that set the exit
status: a ValueError is a refused input (exit 2), an ArithmeticError a
failed check (exit 1)."""

import sys


def digit_limit_error(what: str, limit: int) -> ValueError:
    """The refusal of `what`, a number of more than `limit` decimal digits."""
    return ValueError(f"{what} has more than {limit} digits, Python's int -> str limit; "
                      f"raise it with PYTHONINTMAXSTRDIGITS (0 lifts it)")


class OracleCapExceeded(ValueError):
    """A brute-force tree computation was requested beyond the step cap."""

    def __init__(self, t, cap):
        super().__init__(f"step {t} exceeds the oracle cap {cap}")
        self.t = t
        self.cap = cap


class NotSymmetric(ValueError):
    """The vector does not have the symmetry required for compression.

    Carries a witness: two vertices of the same distance class holding
    unequal entries.
    """

    def __init__(self, cls, v1, val1, v2, val2):
        super().__init__(
            f"class {cls}: vertex {v1!r} has entry {val1} "
            f"but vertex {v2!r} has entry {val2}"
        )
        self.cls = cls
        self.witness = ((v1, val1), (v2, val2))


class SequenceMismatch(ArithmeticError):
    """A generated sequence value disagrees with the fixture."""

    def __init__(self, n, expected, actual):
        try:  # the fixture's value was parsed, so only the generator's can be past the digit limit
            produced = str(actual)
        except ValueError:
            produced = f"a number of more than {sys.get_int_max_str_digits()} digits (Python's int -> str limit)"
        super().__init__(f"mismatch at index {n}: fixture has {expected}, generator produced {produced}")
        self.n = n
        self.expected = expected
        self.actual = actual
