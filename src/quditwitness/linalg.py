"""Random matrices and states: Ginibre matrices, Haar unitaries, Haar pure states.

All three draw their complex Gaussians through one fill, _complex_normal:
item after item (one matrix or vector), its real parts and then its
imaginary parts, in place in slices of SLICE_ENTRIES entries.  So a stack of
n equals n single draws in sequence, and any run of rows can be drawn alone
with the values it has inside the whole stack.  haar_unitary then factors
its stack and haar_state normalises its vectors in place, in slices of the
same budget, so a draw holds its result and no other array of that size.
"""
from __future__ import annotations

import math

import numpy as np

SLICE_ENTRIES = 1 << 15  # per slice of the fill, normalisation and a random-sweep chunk
# per QR slice: 112 KiB of complex entries, so each of numpy.linalg.qr's temporaries stays
# under glibc's default 128 KiB mmap threshold and is not mapped and faulted in per slice
QR_ENTRIES = 7 << 10


def row_slices(n: int, row_entries: int, budget: int | None = None):
    """Slices of rows 0..n-1 of row_entries entries: budget (default SLICE_ENTRIES) entries
    or one row each."""
    step = max(1, (SLICE_ENTRIES if budget is None else budget) // max(row_entries, 1))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _complex_normal(rng: np.random.Generator, item: tuple[int, ...],
                    size: int | None) -> np.ndarray:
    """Standard complex Gaussians of shape item, or (size, *item): per item, the
    values and draw order of rng.standard_normal(item) + 1j * rng.standard_normal(item).

    The items are drawn one after another, so a stack of n equals n single draws.
    """
    n, entries = 1 if size is None else size, math.prod(item)
    z = np.empty((n, entries), dtype=complex)
    for s in row_slices(n, entries):
        zs = z[s]
        zs.real, zs.imag = rng.standard_normal((len(zs), 2, entries)).transpose(1, 0, 2)
    return z.reshape(item if size is None else (size, *item))


def ginibre(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix (i.i.d. standard complex Gaussian entries)."""
    return _complex_normal(rng, (dim, dim), size)


def _phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Q of the QR of each matrix of g, each column times the phase of R's
    diagonal entry; plain QR output is not Haar-distributed.  R, and the
    diagonal view into it, are freed on return."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def haar_unitary(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-distributed random unitary, via the phase-fixed QR of a Ginibre matrix.

    Each matrix's QR is its own, so a stack is factored in slices of
    QR_ENTRIES entries (at least one matrix) and each Q is written back over
    its Ginibre matrix: the values of one QR of the whole stack, holding one
    slice's Q and R at a time.  A slice's arrays then stay under glibc's
    default mmap threshold (up to d = 90, where one matrix is 127 KiB), so
    they reuse heap memory instead of being mapped and faulted in per slice.
    """
    g = ginibre(dim, rng, size=size)
    stack = g if g.ndim == 3 else g[None]
    for s in row_slices(len(stack), dim * dim, QR_ENTRIES):
        stack[s] = _phase_fixed_q(stack[s])
    return g


def haar_state(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random pure state vector(s): normalised complex Gaussian vectors.

    Identical in distribution to applying a Haar unitary to any fixed
    reference vector.
    """
    z = _complex_normal(rng, (dim,), size)
    rows = z if z.ndim == 2 else z[None]
    for s in row_slices(len(rows), dim):
        zs = rows[s]
        zs /= np.linalg.norm(zs, axis=-1, keepdims=True)
    return z
