"""Vectorised, deterministically chunked kernels behind the ensemble sweeps.

Work is split into chunks sized from n and d alone (chunk_sizes); chunk c of
a task draws every random number it needs, in a fixed order, from
substream(seed, tag, ..., c).  Chunk results are integer count vectors and
addition is commutative, so aggregate results are bit-identical for any
worker count.

icps and grid chunks share one Schmidt-form counting kernel, which gathers
the selected entries of M = U diag(s) V^T with (U, V) from
transforms._local_unitaries.  A quasi chunk draws its Haar states and their
SVD once for a whole table of noise levels and modes.  Every sampled state is
pure plus white noise, so scores_from_amplitudes scores each reduction in
closed form.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .constants import NPT_TOL, WITNESS_TOL
from .linalg import ginibre
from .oracles import npt_threshold, visibility_thresholds
from .rng import substream
from .states import InvalidParamsError, last_schmidt_coefficient
from .transforms import LutKind, LutStrategy, _local_unitaries
from .witness import scores_from_amplitudes

CHUNK = 16384
CHUNK_ENTRIES = CHUNK * 16 * 16  # rows * d^2 cap: a complex (n, d, d) stack is <= 64 MiB

_TAG_ICPS = 0
_TAG_QUASI = 1
_TAG_GRID = 2


def _selections(rng: np.random.Generator, d: int, n: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Uniform level selections (pa, pb) for n samples; columns 2k, 2k+1 form pair k.

    Single mode: one ordered distinct pair per side, shape (n, 2).  Parallel
    mode: one permutation per side, shape (n, d), i.e. d // 2 disjoint pairs.
    """
    def draw() -> np.ndarray:
        if mode == "parallel":
            return rng.permuted(np.tile(np.arange(d), (n, 1)), axis=1)
        i = rng.integers(0, d, size=n)
        j = rng.integers(0, d - 1, size=n)
        return np.stack([i, j + (j >= i)], axis=1)
    return draw(), draw()


def _rows(m: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows idx (n, 2) of a shared (d, d) matrix or of per-sample (n, d, d) ones."""
    return m[idx] if m.ndim == 2 else np.take_along_axis(m, idx[:, :, None], axis=1)


def _schmidt_amps(a: np.ndarray, b: np.ndarray, s: np.ndarray,
                  u: np.ndarray | None, v: np.ndarray | None) -> np.ndarray:
    """Amplitudes of (U_A x V_B)|psi> on the four selected components.

    a, b: (n, 2) selected levels; s: (n, d) Schmidt coefficients; u, v as
    returned by transforms._local_unitaries (None is the identity).  The
    amplitude matrix is U diag(s) V^T.
    """
    n, d = s.shape
    if u is None:
        # diag(s) V^T: entry (i, j) = s_i V[j, i]
        v = np.eye(d, dtype=complex) if v is None else v
        s_a = np.take_along_axis(s, a, axis=1)
        return (s_a[:, :, None] * v[b[:, None, :], a[:, :, None]]).reshape(n, 4)
    return np.einsum("nqk,nk,npk->nqp", _rows(u, a), s, _rows(v, b)).reshape(n, 4)


def _pairs(sel: tuple[np.ndarray, np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (a, b) level pairs of a selection: columns 2k, 2k+1 of each side."""
    pa, pb = sel
    return [(pa[:, 2 * k:2 * k + 2], pb[:, 2 * k:2 * k + 2]) for k in range(pa.shape[1] // 2)]


def _detected(vis: np.ndarray, d: int, amps) -> np.ndarray:
    """Flags (n,): the witness detects on some pair.

    amps yields, per pair, the (n, 4) pure-component amplitudes on that pair.
    """
    hit = np.zeros(len(vis), dtype=bool)
    for m in amps:
        scores, _ = scores_from_amplitudes(m, vis, d * d)
        hit |= scores > WITNESS_TOL
    return hit


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
    s = np.zeros((n, d))
    s[:, : r - 1] = alpha[:, None]
    s[:, r - 1] = last_schmidt_coefficient(r, alpha)
    shared_sel = _selections(rng, d, n, mode) if shared else None
    counts = []
    any_hit = np.zeros(n, dtype=bool)
    for kind in kinds:
        u, v = _local_unitaries(d, LutStrategy(kind), rng, size=n)
        sel = shared_sel if shared else _selections(rng, d, n, mode)
        hit = _detected(vis, d, (_schmidt_amps(a, b, s, u, v) for a, b in _pairs(sel)))
        counts.append(int((hit & ent).sum()))
        any_hit |= hit
    counts.append(int((any_hit & ent).sum()))
    return counts


def _icps_entangled_mask(alpha: np.ndarray, v: np.ndarray, d: int, r: int,
                         ground_truth: str) -> np.ndarray:
    """Conditioning rule for the sampled states; see montecarlo.IcpsGroundTruth."""
    if ground_truth == "npt":
        thr = npt_threshold(d, r, alpha)
    elif ground_truth == "piecewise":
        v_a, v_b = visibility_thresholds(d, r, alpha)
        thr = np.where(alpha > 1.0 / np.sqrt(r), v_a, v_b)
    elif ground_truth == "rank2":
        thr = np.minimum(*visibility_thresholds(d, 2, alpha))
    else:
        raise ValueError(f"unknown ground truth rule {ground_truth!r}")
    return v > thr


def _icps_chunk(seed: int, chunk_idx: int, n: int, d: int, r: int,
                kinds: tuple[LutKind, ...], mode: str, shared: bool,
                ground_truth: str) -> np.ndarray:
    """Counts [sampled, entangled, det_per_strategy..., det_combined]."""
    rng = substream(seed, _TAG_ICPS, chunk_idx)
    alpha = rng.uniform(0.0, 1.0 / np.sqrt(r - 1), n)
    vis = rng.uniform(0.0, 1.0, n)
    ent = _icps_entangled_mask(alpha, vis, d, r, ground_truth)
    counts = _schmidt_detections(rng, alpha, vis, ent, d, r, kinds, mode, shared)
    return np.array([n, int(ent.sum()), *counts], dtype=np.int64)


def _grid_chunk(seed: int, cell_idx: int, chunk_idx: int, n: int, d: int, r: int,
                alpha: float, vis: float, kinds: tuple[LutKind, ...],
                mode: str, shared: bool) -> np.ndarray:
    """Counts [trials, det_per_strategy..., det_combined] for one fixed state."""
    rng = substream(seed, _TAG_GRID, cell_idx, chunk_idx)
    counts = _schmidt_detections(rng, np.full(n, alpha), np.full(n, vis),
                                 np.ones(n, dtype=bool), d, r, kinds, mode, shared)
    return np.array([n, *counts], dtype=np.int64)


def _quasi_chunk(seed: int, chunk_idx: int, n: int, d: int, noises: tuple[float, ...],
                 modes: tuple[str, ...]) -> np.ndarray:
    """Counts [sampled, (entangled, detected) per (noise, mode)...] for Haar states.

    Entries run noise-major.  One Haar draw and one SVD serve every noise
    level and mode; each mode draws its selections from the generator state
    right after the state draw, so an entry equals a chunk run for its
    (noise, mode) alone.
    """
    rng = substream(seed, _TAG_QUASI, chunk_idx)
    z = ginibre(d, rng, size=n)
    z /= np.linalg.norm(z, axis=(1, 2), keepdims=True)
    after_draw = rng.bit_generator.state
    # NPT iff vis * (product of two largest Schmidt coefficients) beats the
    # noise floor; the Schmidt coefficients are the singular values of the
    # amplitude matrix.
    lam = np.linalg.svd(z, compute_uv=False)
    vis = [1.0 - noise for noise in noises]
    ent = [v * lam[:, 0] * lam[:, 1] - (1.0 - v) / (d * d) > NPT_TOL for v in vis]
    counts = np.zeros((len(noises), len(modes), 2), dtype=np.int64)
    rows = np.arange(n)[:, None, None]
    for j, mode in enumerate(modes):
        rng.bit_generator.state = after_draw
        amps = [z[rows, a[:, :, None], b[:, None, :]].reshape(n, 4)  # selected entries of z
                for a, b in _pairs(_selections(rng, d, n, mode))]
        for i, v in enumerate(vis):
            hit = _detected(np.full(n, v), d, amps)
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
    sizes = [rows] * (n // rows)
    if n % rows:
        sizes.append(n % rows)
    return sizes
