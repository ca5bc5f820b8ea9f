"""Shared exception types."""


class NotNeighbors(ValueError):
    """The operation requires two adjacent tree vertices."""


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


class BFileParseError(ValueError):
    """Malformed b-file content."""


class SequenceMismatch(Exception):
    """A generated sequence value disagrees with the fixture."""

    def __init__(self, n, expected, actual):
        super().__init__(f"mismatch at index {n}: fixture has {expected}, generator produced {actual}")
        self.n = n
        self.expected = expected
        self.actual = actual
