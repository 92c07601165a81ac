"""Vectorised, deterministically chunked kernels behind the ensemble sweeps.

Work is split into chunks sized from n and d alone (chunk_sizes); chunk c of
a task draws every random number it needs, in a fixed order, from
substream(seed, tag, ..., c).  Chunk results are integer count vectors, so
aggregate results are bit-identical for any worker count.

icps and grid chunks share one Schmidt-form kernel (_schmidt_amps): with
(U, V) from transforms._local_unitaries, M = U diag(s) V^T splits into two
terms, and shared unitaries are gathered from a two-term table.  icps and
quasi chunks draw their states once for every mode (and noise level).  Every
sampled state is pure plus white noise, so no score is computed: a sample is
detected when witness.pure_noise_detected accepts its largest |det M| over
level pairs (_max_det).  Which icps samples count as entangled is decided
only by oracles.conditioning_threshold.  Which Haar (quasi) samples are NPT
is decided by _npt_masks: Cauchy-Binet bounds on lam0 lam1 from the Gram
matrix settle most rows, and only the rows they leave open get an SVD.
"""
from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .constants import NPT_TOL
from .linalg import ginibre
from .oracles import IcpsGroundTruth, conditioning_threshold
from .rng import substream
from .states import InvalidParamsError, last_schmidt_coefficient
from .transforms import LutKind, LutStrategy, _local_unitaries, block_indices
from .witness import pure_noise_detected

CHUNK = 16384
CHUNK_ENTRIES = CHUNK * 16 * 16  # rows * d^2 cap: a complex (n, d, d) stack is <= 64 MiB
_GT_ROWS = 2048  # rows per slice of the NPT ground truth's Gram matrices and SVD

_TAG_ICPS = 0
_TAG_QUASI = 1
_TAG_GRID = 2


def _selections(rng: np.random.Generator, d: int, n: int, mode: str) -> np.ndarray:
    """Uniform level selections, shape (n, pairs, 4) with rows (a0, a1, b0, b1).

    Single mode: one ordered distinct pair per side.  Parallel mode: one
    permutation per side whose columns 2k, 2k+1 form pair k, i.e. d // 2
    disjoint pairs.  Side A is drawn before side B.
    """
    def draw() -> np.ndarray:
        if mode == "parallel":
            perm = rng.permuted(np.tile(np.arange(d), (n, 1)), axis=1)
            return perm[:, : d // 2 * 2].reshape(n, -1, 2)
        i = rng.integers(0, d, size=n)
        j = rng.integers(0, d - 1, size=n)
        return np.stack([i, j + (j >= i)], axis=1)[:, None, :]
    return np.concatenate([draw(), draw()], axis=2)


def _schmidt_amps(sel: np.ndarray, alpha: np.ndarray, d: int, r: int,
                  u: np.ndarray | None, v: np.ndarray | None):
    """Yields, per level pair of sel, the (n, 4) selected entries of M = U diag(s) V^T.

    s = alpha 1_{<r-1} + alpha_r e_{r-1}, so M = alpha K0 + alpha_r K1 with
    K0 = U P_{r-1} V^T and K1 = u_{r-1} v_{r-1}^T (columns r-1 of U and V).
    u, v as returned by transforms._local_unitaries (None is the identity).
    Shared (d, d) unitaries: one einsum builds the table (K0, K1), gathered at
    block_indices.  Per-sample (n, d, d) stacks (random_both): one einsum over
    the selected rows of U and V per pair.
    """
    alpha_r = last_schmidt_coefficient(r, alpha)
    levels = np.arange(d)
    basis = np.array([levels < r - 1, levels == r - 1], dtype=float)
    if u is None or u.ndim == 2:
        eye = np.eye(d)
        k0, k1 = np.einsum("qk,jk,pk->jqp", eye if u is None else u, basis,
                           eye if v is None else v).reshape(2, d * d)
        idx = block_indices(sel, d)
        for p in range(sel.shape[1]):
            yield k0[idx[:, p]] * alpha[:, None] + k1[idx[:, p]] * alpha_r[:, None]
        return
    s = np.stack([alpha, alpha_r], axis=1) @ basis
    for p in range(sel.shape[1]):
        rows_u = np.take_along_axis(u, sel[:, p, :2, None], axis=1)
        rows_v = np.take_along_axis(v, sel[:, p, 2:, None], axis=1)
        yield np.einsum("nqk,nk,npk->nqp", rows_u, s, rows_v).reshape(len(alpha), 4)


def _max_det(amps) -> np.ndarray:
    """Largest |det M| (n,) over level pairs; amps yields each pair's (n, 4) amplitudes."""
    return np.max([np.abs(m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2]) for m in amps], axis=0)


def _schmidt_detections(rng: np.random.Generator, alpha: np.ndarray, vis: np.ndarray,
                        ent: np.ndarray, d: int, r: int, kinds: tuple[LutKind, ...],
                        mode: str, shared: bool) -> list[int]:
    """Detections [per strategy..., combined] among the samples in the mask ent.

    Sample i has Schmidt coefficients (alpha_i, ..., alpha_i, alpha_r, 0, ...)
    and visibility vis_i.  Draw order: shared selections (if shared), then per
    strategy its local unitaries (Haar U then V for random_both) and its
    selections (if not shared).
    """
    n = len(alpha)
    shared_sel = _selections(rng, d, n, mode) if shared else None
    counts = []
    any_hit = np.zeros(n, dtype=bool)
    for kind in kinds:
        u, v = _local_unitaries(d, LutStrategy(kind), rng, size=n)
        sel = shared_sel if shared else _selections(rng, d, n, mode)
        hit = pure_noise_detected(_max_det(_schmidt_amps(sel, alpha, d, r, u, v)), vis, d * d)
        counts.append(int((hit & ent).sum()))
        any_hit |= hit
    counts.append(int((any_hit & ent).sum()))
    return counts


def _icps_chunk(seed: int, chunk_idx: int, n: int, d: int, r: int,
                kinds: tuple[LutKind, ...], modes: tuple[str, ...], shared: bool,
                ground_truth: IcpsGroundTruth) -> np.ndarray:
    """Counts [sampled, entangled, (det_per_strategy..., det_combined) per mode...].

    A sample is entangled when v exceeds oracles.conditioning_threshold.
    alpha, v and that mask are drawn once for every mode; each mode draws its
    unitaries and selections from the generator state right after that draw,
    so its counts equal a chunk run for that mode alone.
    """
    rng = substream(seed, _TAG_ICPS, chunk_idx)
    alpha = rng.uniform(0.0, 1.0 / np.sqrt(r - 1), n)
    vis = rng.uniform(0.0, 1.0, n)
    after_draw = rng.bit_generator.state
    ent = vis > conditioning_threshold(d, r, alpha, ground_truth)
    counts = []
    for mode in modes:
        rng.bit_generator.state = after_draw
        counts += _schmidt_detections(rng, alpha, vis, ent, d, r, kinds, mode, shared)
    return np.array([n, int(ent.sum()), *counts], dtype=np.int64)


def _grid_chunk(seed: int, cell_idx: int, chunk_idx: int, n: int, d: int, r: int,
                alpha: float, vis: float, kinds: tuple[LutKind, ...],
                mode: str, shared: bool) -> np.ndarray:
    """Counts [trials, det_per_strategy..., det_combined] for one fixed state."""
    rng = substream(seed, _TAG_GRID, cell_idx, chunk_idx)
    counts = _schmidt_detections(rng, np.full(n, alpha), np.full(n, vis),
                                 np.ones(n, dtype=bool), d, r, kinds, mode, shared)
    return np.array([n, *counts], dtype=np.int64)


def _npt_masks(z: np.ndarray, d: int, vis: Sequence[float]) -> np.ndarray:
    """NPT flags (len(vis), n) of the states z (n, d, d) mixed with white noise.

    Row i at visibility v is NPT iff v lam0 lam1 - (1 - v) / d^2 > NPT_TOL,
    with lam0 >= lam1 the two largest singular values of z[i] (its Schmidt
    coefficients).  By Cauchy-Binet, e2 = sum_{j<k} lam_j^2 lam_k^2 is the
    squared norm of the second compound of z, and from G = z z^H it is
    ((tr G)^2 - |G|_F^2) / 2.  Its largest term is (lam0 lam1)^2, so
    e2 / (d(d-1)/2) <= (lam0 lam1)^2 <= e2.  The bounds are compared squared,
    so no sqrt of a tiny e2 magnifies its rounding, and with a slack of
    64 d^2 eps on e2 and on v lam0 lam1: e2 rounds within about d^2 eps, the
    SVD's product and the expression within about d eps.  A row the bounds
    settle at every level keeps those flags; every other row is scored by
    the expression above from an SVD.  Gram matrices and SVDs run over
    slices of _GT_ROWS rows, so their memory stays small.
    """
    v = np.asarray(vis, dtype=float)[:, None]
    floor = (1.0 - v) / (d * d) + NPT_TOL
    slack = 64 * d * d * np.finfo(float).eps
    pairs = d * (d - 1) / 2
    masks = []
    for lo in range(0, len(z), _GT_ROWS):
        zs = z[lo:lo + _GT_ROWS]
        g = zs @ zs.conj().transpose(0, 2, 1)
        tr = np.einsum("nii->n", g).real
        e2 = (tr * tr - (g.real ** 2 + g.imag ** 2).sum(axis=(1, 2))) / 2
        ent = v * v * (e2 - slack) > pairs * (floor + slack) ** 2  # NPT for sure
        ppt = v * v * (e2 + slack) < np.maximum(floor - slack, 0.0) ** 2  # PPT for sure
        open_rows = ~(ent | ppt).all(axis=0)
        lam = np.linalg.svd(zs[open_rows], compute_uv=False)
        ent[:, open_rows] = v * lam[:, 0] * lam[:, 1] - (1.0 - v) / (d * d) > NPT_TOL
        masks.append(ent)
    return np.concatenate(masks, axis=1)


def _quasi_chunk(seed: int, chunk_idx: int, n: int, d: int, noises: tuple[float, ...],
                 modes: tuple[str, ...]) -> np.ndarray:
    """Counts [sampled, (entangled, detected) per (noise, mode)...] for Haar states.

    Entries run noise-major.  One Haar draw and one ground-truth pass
    (_npt_masks) serve every noise level and mode, one _max_det per mode every
    noise level; each mode draws its selections from the generator state right
    after the state draw, so an entry equals a chunk run for its (noise, mode)
    alone.
    """
    rng = substream(seed, _TAG_QUASI, chunk_idx)
    z = ginibre(d, rng, size=n)
    z /= np.linalg.norm(z, axis=(1, 2), keepdims=True)
    after_draw = rng.bit_generator.state
    vis = [1.0 - noise for noise in noises]
    ent = _npt_masks(z, d, vis)
    counts = np.zeros((len(noises), len(modes), 2), dtype=np.int64)
    flat = z.reshape(n, d * d)
    for j, mode in enumerate(modes):
        rng.bit_generator.state = after_draw
        idx = block_indices(_selections(rng, d, n, mode), d)
        det = _max_det(np.take_along_axis(flat, idx[:, p], axis=1) for p in range(idx.shape[1]))
        for i, v in enumerate(vis):
            hit = pure_noise_detected(det, v, d * d)
            counts[i, j] = ent[i].sum(), (hit & ent[i]).sum()
    return np.concatenate([[n], counts.ravel()])


def run_tasks(chunk_fn, tasks: list[tuple], workers: int = 1) -> list[np.ndarray]:
    """chunk_fn(*task) for every task, possibly across processes; order-preserving."""
    if workers <= 1 or len(tasks) <= 1:
        return [chunk_fn(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk_fn, *zip(*tasks),
                             chunksize=max(1, len(tasks) // (4 * workers))))


def chunk_sizes(n: int, d: int) -> list[int]:
    """Chunks covering n >= 1 samples: CHUNK rows, or fewer (at least 1) where
    rows * d^2 would pass CHUNK_ENTRIES, i.e. for d > 16; the last may be short."""
    if n < 1:
        raise InvalidParamsError(f"n_samples must be >= 1, got {n}")
    rows = max(1, min(CHUNK, CHUNK_ENTRIES // (d * d)))
    return [min(rows, n - start) for start in range(0, n, rows)]
