"""Exact integer arithmetic for Fibonacci vectors on the 3-regular tree.

The package has two routes to every quantity: a literal, exponential
reflection oracle on explicit tree vectors (`reflect`), and compressed
per-distance-class profiles (`profiles`) that reproduce it in O(t^2).
On top sit the pair classifier over the form x^2 + y^2 - 3xy (`fibcore`),
exact-sequence style vector identities (`catident`), b-file cross-checks
(`oeis`) and a CLI (`cli`).
"""

__version__ = "0.1.0"
