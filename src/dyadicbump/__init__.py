"""Numerical toolkit for one-sided Orlicz bump conditions on dyadic trees.

Subpackages cover the dyadic tree primitives, the bump-function calculus,
the explicit Bellman functions with their property sweeps, the positive
sparse operator with its testing and key-estimate checks, and the stopping
time obstruction construction.
"""

from .dyadic import (ROOT, CarlesonSequence, DyadicIndex, LeafWeight,
                     StepDistribution, L_intensity, dyadic_maximal,
                     stopping_family)

__version__ = "0.1.0"

__all__ = [
    "ROOT", "CarlesonSequence", "DyadicIndex", "LeafWeight",
    "StepDistribution", "L_intensity", "dyadic_maximal", "stopping_family",
    "__version__",
]
