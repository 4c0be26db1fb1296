"""Capacity of completely positive operators.

The package is organized around one quantity: for a completely positive
operator T(X) = sum_k A_k X A_k* the capacity is the infimum of
det(T(X))^(1/m) / det(X)^(1/n) over positive definite X. Restricting X to
diagonal matrices turns the problem into minimizing a weighted sum of
exponentials whose weights are the coefficients of det(T(diag(lam))), and
the full capacity is recovered by searching over unitary conjugations.
Alternating marginal scaling gives an independent route, and a probe
harness measures how the capacity responds to small perturbations of the
operator.
"""
from . import capacity, coeffs, cpop, errors, expsum, holderlab, linalg
from .capacity import *
from .coeffs import *
from .cpop import *
from .errors import *
from .expsum import *
from .holderlab import *
from .linalg import *

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
__all__ = [
    name
    for module in (capacity, coeffs, cpop, errors, expsum, holderlab, linalg)
    for name in module.__all__
] + ["__version__"]
