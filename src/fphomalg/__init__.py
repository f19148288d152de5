"""Exact computational homological algebra over prime fields.

Subpackages cover graded F_p linear algebra (`linalg`), tensor-algebra
realizations of free shifted restricted Lie algebras (`freelie`), free
W1-algebra bookkeeping (`w1`), resolutions and derived functors over
monomial algebras (`homalg`) with the word complex under its bar and
Hochschild complexes (`wordcomplex`), diagrams over finite direct categories
(`diagrams`), and the worked pipelines (`applications`).  `cli` exposes
everything as subcommands with JSON input and table/json/csv output.
"""

from ._kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"
__all__ = ["KERNEL_BACKEND", "__version__"]
