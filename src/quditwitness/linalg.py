"""Random matrices and states: Ginibre matrices, Haar unitaries, Haar pure states."""
from __future__ import annotations

import numpy as np


def ginibre(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix (i.i.d. standard complex Gaussian entries)."""
    shape = (dim, dim) if size is None else (size, dim, dim)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-distributed random unitary, via QR of a Ginibre matrix.

    The diagonal of the triangular factor is phase-corrected; plain QR output
    is not Haar-distributed.
    """
    z = ginibre(dim, rng, size=size)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phase = diag / np.abs(diag)
    return q * phase[..., None, :]


def haar_state(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random pure state vector(s): normalised complex Gaussian vectors.

    Identical in distribution to applying a Haar unitary to any fixed
    reference vector.
    """
    shape = (dim,) if size is None else (size, dim)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)
