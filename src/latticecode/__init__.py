"""Constrained-lattice capacity and coding toolkit.

Subpackages:
  spectral    - weight graphs, dominant eigenpairs, entropy-maximizing chains
  ans         - asymmetric-numeral-system coders (two-symbol formulas and
                tabled multi-symbol variant) plus the stream container
  lattice     - translation-invariant lattice models, counting, descriptions,
                exact column-by-column uniform sampling and single-site
                thermalization
  strip       - strip decomposition of 2D models and the lattice codec
  experiments - reference experiments and published-value reproduction
  cli         - command line entry point
"""

__version__ = "0.1.0"
