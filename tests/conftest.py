"""Shared builders for the exact tensor-perturbation tests, and a scalar
reference for the vectorized weight logs."""

from fractions import Fraction

import numpy as np
import pytest

from shiftlab.operators import TensorElement


def log_abs(w, n: int):
    """log |w_n| of a WeightSequence as a longdouble, straight from the tail
    rule (no underflow); None if w_n = 0.  One index at a time: the reference
    for ``WeightSequence.log_abs_range``."""
    half = w.half
    if -half <= n <= half:
        v = abs(w.window[n + half])
        return np.log(np.longdouble(v)) if v > 0 else None
    if w.tail_kind == "zero":
        return None
    if w.tail_kind == "constant":
        v = abs(w.c_plus) if n > half else abs(w.c_minus)
        return np.log(np.longdouble(v)) if v > 0 else None
    edge = abs(w.window[-1] if n > half else w.window[0])
    r = abs(w.ratio)
    if edge == 0 or r == 0:
        return None
    return np.log(np.longdouble(edge)) + (abs(n) - half) * np.log(np.longdouble(r))


def pairing_value(xi: TensorElement, x, y):
    """b(x, y) for the pairing of the tensor element xi, exactly."""
    return sum(a * b for a, b in zip(x, xi.pairing @ list(y)))


def exact_unit(i: int, dim: int, c=Fraction(1)) -> np.ndarray:
    v = np.array([Fraction(0)] * dim, dtype=object)
    v[i] = Fraction(c)
    return v


def exact_identity_pairing(dim: int) -> np.ndarray:
    return np.array(
        [[Fraction(1) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)],
        dtype=object,
    )


def shaped_nilpotent_pairs(rng, dim: int, depth: int = 2):
    """``(pairs, pairing, x1, x2)`` of an exact tensor element with
    T^depth = 0 (depth 2 or 3) and enough room for the biorthogonal ladder
    of size 2*depth, plus targets x1, x2.

    The y-functionals read coordinates 0..depth-2, the x-vectors sit on a
    chain of later coordinates, so the nilpotency index is exactly depth.
    """
    if depth == 2:
        # T e_0 = c1 e_{d-5}; everything else dies
        c1 = Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        c2 = -Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        pairs = (
            (exact_unit(dim - 5, dim, c1), exact_unit(0, dim)),
            (exact_unit(dim - 4, dim, c2), exact_unit(1, dim)),
        )
        x1 = exact_unit(dim - 3, dim)
        x2 = exact_unit(dim - 2, dim)
    elif depth == 3:
        # chain e_0 -> e_2 -> e_4 (y-functionals on 0 and 2)
        c1 = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        c2 = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        pairs = (
            (exact_unit(2, dim, c1), exact_unit(0, dim)),
            (exact_unit(4, dim, c2), exact_unit(2, dim)),
        )
        x1 = exact_unit(dim - 2, dim)
        x2 = exact_unit(dim - 1, dim)
    else:
        raise ValueError("depth must be 2 or 3")
    return pairs, exact_identity_pairing(dim), x1, x2


def shaped_nilpotent_tensor(rng, dim: int, depth: int = 2):
    """``shaped_nilpotent_pairs`` as ``(TensorElement, x1, x2)``."""
    pairs, pairing, x1, x2 = shaped_nilpotent_pairs(rng, dim, depth)
    return TensorElement(pairs, pairing), x1, x2


@pytest.fixture
def rng():
    return np.random.default_rng(0)
