"""shiftlab: desk-scale experiments on hypercyclic and mixing operator dynamics.

Seven areas, one module each: tolerant/exact linear algebra (``linalg``,
``rational``), the nilpotent approach-pair solvers (``nilpotent``), the
operator zoo (``operators``), decision procedures with certificates
(``criteria``), the exact degree grading (``grading``), the density,
mixing and Volterra probes with the group-law residual (``dynamics``) and
the experiment runner (``cli``).
"""

from .errors import (
    DimensionError,
    DomainError,
    InputError,
    NumericError,
    PreconditionError,
    ShiftlabError,
)

__all__ = [
    "DimensionError",
    "DomainError",
    "InputError",
    "NumericError",
    "PreconditionError",
    "ShiftlabError",
]

__version__ = "0.1.0"
