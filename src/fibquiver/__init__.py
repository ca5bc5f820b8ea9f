"""Exact integer arithmetic for Fibonacci vectors on the 3-regular tree.

The package has two routes to every quantity: a literal, exponential
reflection oracle on explicit tree vectors (`reflect`), and compressed
per-distance-class profiles (`profiles`) that reproduce it in O(t^2).
On top sit the pair classifier over the form x^2 + y^2 - 3xy (`fibcore`),
exact-sequence style vector identities (`catident`), b-file cross-checks
(`oeis`) and a CLI (`cli`).
"""

from .errors import (
    BFileParseError,
    NotNeighbors,
    NotSymmetric,
    OracleCapExceeded,
    SequenceMismatch,
)
from .fibcore import (
    DimPair,
    PairClass,
    Witness,
    check_three_term,
    classify_pair,
    euler_form,
    fib,
    fib_pair,
    fib_range,
    sigma_minus,
    sigma_plus,
)
from .profiles import (
    PartitionReport,
    Profile,
    compress_biradial,
    compress_radial,
    expand_biradial,
    expand_radial,
    partition_report,
    radial_step,
    radial_sums,
    u_step,
    u_sums,
    u_table,
)
from .reflect import (
    ORACLE_CAP,
    TreeVector,
    big_sigma,
    edge_unit,
    parity_sums,
    r_vec,
    s_vec,
    sigma,
    unit,
)
from .tree import BASE, distance, neighbors

__version__ = "0.1.0"
