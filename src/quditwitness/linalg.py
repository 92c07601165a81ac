"""Random matrices and states: Ginibre matrices, Haar unitaries, Haar pure states.

All three draw their complex Gaussians through one fill, _fill: item after
item (one matrix or vector), its real parts and then its imaginary parts,
in slices of SLICE_ENTRIES entries.  So a stack of n equals n single draws in
sequence, and any run of rows can be drawn alone with the values it has
inside the whole stack.  haar_unitary factors its stack in place in QR
slices.  haar_state_slices draws and normalises Haar states one slice at a
time in two slice-sized complex arrays (256 KiB each), allocated once per
call and refilled by every slice: the states, and a scratch array whose
memory holds the fill's normals, then the norms' squares, then whatever the
caller puts there.  random-sweep streams a chunk through it, so its slices
allocate no arrays of their own; haar_state copies a stack out of it.
"""
from __future__ import annotations

import math

import numpy as np

SLICE_ENTRIES = 1 << 14  # complex entries (256 KiB) per slice of a fill or random-sweep chunk
# per QR slice: 112 KiB of complex entries, so each of numpy.linalg.qr's temporaries stays
# under glibc's default 128 KiB mmap threshold and is not mapped and faulted in per slice
QR_ENTRIES = 7 << 10


def slice_rows(row_entries: int, budget: int | None = None) -> int:
    """Rows per slice of row_entries-entry rows: budget (default SLICE_ENTRIES) entries, or one."""
    return max(1, (SLICE_ENTRIES if budget is None else budget) // max(row_entries, 1))


def row_slices(n: int, row_entries: int, budget: int | None = None):
    """Slices of rows 0..n-1, slice_rows(row_entries, budget) rows each (the last may be short)."""
    step = slice_rows(row_entries, budget)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _fill(rng: np.random.Generator, z: np.ndarray, work: np.ndarray) -> None:
    """Writes standard complex Gaussians over z (rows, entries): per row, the values and
    draw order of rng.standard_normal(entries) + 1j * rng.standard_normal(entries), drawn
    as one (rows, 2, entries) float block into the memory of work[:rows] (z's row shape)."""
    normals = rng.standard_normal(out=work[:len(z)].view(float).reshape(len(z), 2, z.shape[1]))
    z.real, z.imag = normals.transpose(1, 0, 2)


def _normalise(z: np.ndarray, work: np.ndarray) -> None:
    """Divides each row of z (rows, dim) by its norm, bit for bit as
    z /= np.linalg.norm(z, axis=-1, keepdims=True) does: numpy's own
    sqrt(add.reduce((x.conj() * x).real, axis=-1)), its squares written into work[:rows].
    A one-entry z gets a fresh product: numpy multiplies a single element in place by
    another loop, whose real part can differ in the last bit."""
    conj = np.conjugate(z, out=work[:len(z)])
    sq = np.multiply(conj, z, out=conj if z.size > 1 else None)
    norm = np.add.reduce(sq.real, axis=-1, keepdims=True)
    z /= np.sqrt(norm, out=norm)


def _complex_normal(rng: np.random.Generator, item: tuple[int, ...],
                    size: int | None) -> np.ndarray:
    """Standard complex Gaussians of shape item, or (size, *item): per item, the
    values and draw order of rng.standard_normal(item) + 1j * rng.standard_normal(item).

    The items are drawn one after another, so a stack of n equals n single draws.
    """
    n, entries = 1 if size is None else size, math.prod(item)
    z = np.empty((n, entries), dtype=complex)
    work = np.empty((min(n, slice_rows(entries)), entries), dtype=complex)
    for s in row_slices(n, entries):
        _fill(rng, z[s], work)
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


def haar_state_slices(dim: int, rng: np.random.Generator, n: int):
    """The n states of haar_state(dim, rng, size=n), one row_slices(n, dim) slice at a time.

    Yields (s, z, work) per slice s: z (rows, dim) holds the slice's states and work, of
    z's shape, is scratch the caller may overwrite.  Both are views of two arrays allocated
    once per call and refilled by every slice, so a slice's values last until the next is
    drawn.
    """
    z, work = np.empty((2, min(n, slice_rows(dim)), dim), dtype=complex)
    for s in row_slices(n, dim):
        rows = len(range(n)[s])
        zs, ws = z[:rows], work[:rows]
        _fill(rng, zs, ws)
        _normalise(zs, ws)
        yield s, zs, ws


def haar_state(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random pure state vector(s): normalised complex Gaussian vectors.

    Identical in distribution to applying a Haar unitary to any fixed
    reference vector.  A stack is copied slice by slice out of haar_state_slices.
    """
    z = np.empty((1 if size is None else size, dim), dtype=complex)
    for s, zs, _ in haar_state_slices(dim, rng, len(z)):
        z[s] = zs
    return z[0] if size is None else z
