"""Vectorised, deterministically chunked kernels behind the ensemble sweeps.

Work is split into chunks sized from n and d alone (chunk_sizes); chunk c of
a task draws every random number it needs, in a fixed order, from
substream(seed, tag, ..., c).  A task is one chunk or, for a grid, a run of
whole cells (_hits) of one chunk's rows at most, each cell with its own
substream.  A flags function (_icps_flags, _grid_flags, _quasi_flags) draws a
task's states once and returns (rows, ent, hit), one hit row of per-sample
flags per output entry; _counts reduces them in the worker to one integer
vector [rows, entangled per entry..., detected per entry...], so results are
bit-identical for any worker count.  run_tasks forks W workers, each computing every W-th task, and only
these vectors cross a pipe back.

One kernel, _hits, decides detection for icps and grid.  Each mode replays
the generator from the state right after the chunk's state draw, so its flags
equal a one-mode chunk's; each strategy draws its unitaries (U, V) from
transforms._local_unitaries (random_both alone draws; the fixed kinds' are
read once per process, by _fixed_terms) and its level selections by
transforms.random_selections' draw, as detection.run_trial does, so a one-sample
chunk gives run_trial's flags.  Every sampled state is pure plus white noise,
so a sample is detected when witness.pure_noise_detected accepts its largest
|det M| over level pairs (_schmidt_dets, at Schmidt weights _hits computes once
per task) on RUN_ROWS rows at a time.  _pair_max is the one loop over level
pairs: a running maximum over blocks of max(1, CHUNK // (4 rows)) pairs, each
block's |det M| written pairs first and C-ordered, so a RUN_ROWS slice takes
two pairs per numpy call, the few-row chunks above TABLE_MAX_D take many, and
no fixed-kind block's temporaries reach glibc's 128 KiB mmap threshold.
random-sweep (_quasi_flags) draws each mode's selections from a second
substream of its chunk, streams its Haar states one slice at a time (a stack
is its single draws in sequence) and gathers their entries under the identity
strategy.  icps samples are entangled by oracles.conditioning_threshold alone,
Haar samples by _npt_masks: Cauchy-Binet bounds on lam0 lam1 settle most rows,
and an SVD scores only the rows they leave open (none, in most slices).

A grid run holds as many rows as an icps chunk at its d (chunk_sizes(CHUNK, d)[0]),
so the bounds below hold for both.  Each holds its states (alpha and v), its flags
and one strategy's draws at a time: random_both's two (rows, d, d) unitary
stacks, QR'd in place by linalg.haar_unitary (a run's cells each draw theirs and
copy them in, _stacked), and per mode one (rows, pairs, 4) selection array of
one-byte levels (two bytes above d = 256) that each of its cells fills in turn
and every fresh draw refills (transforms._fill_selections), its parallel-mode
permutations sharing one (rows of a cell, d) intp buffer per draw.  A
random-sweep chunk holds every mode's selections, its flags and three arrays
of one slice's linalg.SLICE_ENTRIES complex entries (256 KiB each),
allocated once per chunk and refilled by every slice: the states, their
scratch (the fill's normals, the norms' squares, conj(z), then |G|_F's
squares) and the Gram matrices G.  A slice's other arrays are row vectors,
level-pair blocks (52 KiB at most at d = 9) and numpy's 128 KiB ufunc
buffer, so a chunk maps and faults in no memory per slice once its first
chunk has run.  Other working arrays are built per RUN_ROWS rows, per block
of level pairs or per slice (random_both's block: r columns of U and V), so
none grows with the chunk.  A fixed-kind icps chunk of n rows thus holds
about n (10 d + 24) bytes in parallel mode (permutations, selections, states
and flags) plus the kernel's RUN_ROWS-sized temporaries; since
n <= CHUNK_ENTRIES / d^2 above TABLE_MAX_D, that is largest at d = 16, where
tracemalloc peaks at 3.0 MiB (1.9 MiB at d = 9, 2.8 MiB at d = 17, 0.5 MiB at d = 256;
0.7 MiB for a d = 5 grid run of 16 cells of 1000 trials).  random_both adds its two
stacks, up to 2 x 64 MiB in a grid run as in an icps chunk (a d = 9 parallel run of
16 cells of 1000 trials peaks at 45.5 MiB).
"""
from __future__ import annotations

import os
import pickle
import signal
from contextlib import suppress
from functools import lru_cache, partial, reduce
from typing import BinaryIO

import numpy as np

from .constants import NPT_TOL
from . import linalg
from .oracles import IcpsGroundTruth, conditioning_threshold
from .rng import substream
from .states import InvalidParamsError, last_schmidt_coefficient
from .transforms import (LutKind, LutStrategy, _fill_selections, _local_unitaries,
                         _selection_array, block_indices, level_index, random_selections)
from .witness import pure_noise_detected

CHUNK = 16384
TABLE_MAX_D = 16  # largest d with a _fixed_terms class table (32 d^4 bytes, 2 MiB), full CHUNK rows
CHUNK_ENTRIES = CHUNK * TABLE_MAX_D ** 2  # rows * d^2 cap: a complex (n, d, d) stack <= 64 MiB
RUN_ROWS = 2048  # rows of each slice _hits evaluates: the kernel's temporaries stay small and
# reused, not chunk-sized

_TAG_ICPS = 0
_TAG_QUASI = 1
_TAG_GRID = 2


def _class_terms(k0: np.ndarray, k1: np.ndarray, d: int, a0, a1, b0, b1):
    """(a, c) with det M_k = alpha (alpha a + alpha_r c) for the classes
    k = (a0, a1, b0, b1) (broadcasting integer arrays) of M = alpha K0 + alpha_r K1,
    from the flat (d^2,) tables k0, k1.

    a is the 2x2 minor of K0 and c the mixed term; the alpha_r^2 term vanishes
    because K1 has rank 1.  Both paths of _fixed_terms (the class table and the
    drawn classes) evaluate these expressions, so their values agree bit for bit.
    """
    i00, i01, i10, i11 = (level_index(d, a, b) for a in (a0, a1) for b in (b0, b1))
    a = k0[i00] * k0[i11] - k0[i01] * k0[i10]
    c = k0[i00] * k1[i11] + k1[i00] * k0[i11] - k0[i01] * k1[i10] - k1[i01] * k0[i10]
    return a, c


@lru_cache(maxsize=16)
def _fixed_terms(d: int, r: int, kind: LutKind):
    """The map (a0, a1, b0, b1) -> (a, c) of _class_terms under a strategy with fixed
    unitaries (U, V), built once per process and (d, r, kind) from the flat read-only
    tables K0 = U P_{r-1} V^T and K1 = u_{r-1} v_{r-1}^T (columns r-1 of U and V).  Up to
    TABLE_MAX_D it takes (a, c) from a read-only (2, d^4) table of every class
    k = ((a0 d + a1) d + b0) d + b1; above it, it evaluates _class_terms at the given levels."""
    u, v = _local_unitaries(d, LutStrategy(kind), None)
    basis = np.vstack([np.arange(d) < r - 1, np.eye(d)[r - 1]])  # diag P_{r-1}, e_{r-1}
    k = np.einsum("qk,jk,pk->jqp", u, basis, v).reshape(2, -1)
    k.setflags(write=False)
    if d > TABLE_MAX_D:
        return partial(_class_terms, *k, d)
    lv = np.arange(d)
    table = np.stack(_class_terms(*k, d, lv[:, None, None, None], lv[:, None, None], lv[:, None],
                                  lv)).reshape(2, -1)
    table.setflags(write=False)
    return lambda a0, a1, b0, b1: np.take(table, level_index(d, a0, a1, b0, b1), axis=1)


def _pair_max(det, sel: np.ndarray) -> np.ndarray:
    """Each row's max over the level pairs of sel (rows, pairs, 4) of det(block), the
    (k, rows) |det M| of a block of k pairs (pairs first: a max over whole rows): the one
    level-pair loop, in blocks of max(1, CHUNK // (4 rows)) pairs.  A fixed kind's block of
    k rows entries makes float64 and intp temporaries of 8 k rows bytes (the class table's
    (a, c) twice that): at CHUNK // 4 entries, 64 KiB at most, under glibc's 128 KiB mmap
    threshold, so they are not mapped and faulted in again block after block.  A maximum
    is exact, so the block size changes no bit."""
    step = max(1, CHUNK // (4 * len(sel)))
    return reduce(np.maximum, (det(sel[:, i:i + step]).max(axis=0)
                               for i in range(0, sel.shape[1], step)))


def _det2(m: np.ndarray) -> np.ndarray:
    """|m0 m3 - m1 m2| of the 2x2 blocks m[..., (a0b0, a0b1, a1b0, a1b1)], written C-ordered
    whatever m's strides, so a block's (pairs, rows) maxima run over whole rows."""
    return np.abs(m[..., 0] * m[..., 3] - m[..., 1] * m[..., 2], out=np.empty(m.shape[:-1]))


def _schmidt_dets(sel: np.ndarray, kind: LutKind, u, v, alpha, alpha_r, d: int, r: int):
    """Each row's max |det M| over the level pairs of sel, for M = U diag(s) V^T under the
    local unitaries of kind and s = alpha 1_{<r-1} + alpha_r e_{r-1} (alpha_r from _hits):
    random_both's drawn (rows, d, d) stacks (u, v), read at each sample's selected rows and
    first r columns (s is 0 past them) and contracted by one einsum per block of pairs; a
    kind with unitaries fixed by d ignores (u, v).  There M = alpha K0 + alpha_r K1 and
    |det M_k| = alpha |alpha a_k + alpha_r c_k|, with (a_k, c_k) from _fixed_terms at a
    C-ordered copy of each block's levels, so each max over pairs runs over whole rows.
    """
    if kind is LutKind.RANDOM_BOTH:
        s = np.where(np.arange(r) < r - 1, alpha[:, None], alpha_r[:, None])
        rows, u, v = np.arange(len(sel))[:, None, None], u[..., :r], v[..., :r]

        def det(b):  # each (rows, k) block's M read pairs first, so _det2 writes (k, rows)
            m = np.einsum("nyqk,nk,nypk->nyqp", u[rows, b[..., :2]], s, v[rows, b[..., 2:]])
            return _det2(m.reshape(b.shape).swapaxes(0, 1))
        return _pair_max(det, sel)
    terms = _fixed_terms(d, r, kind)

    def det(block):  # |alpha a + alpha_r c| at the block's levels a0, ..., b1, copied C-ordered
        a, c = terms(*block.T.copy())  # so (a, c) are (k, rows) C-ordered, and every loop runs
        m = alpha * a  # over whole rows, not over the k pairs of a rows-first view
        m += alpha_r * c
        return np.abs(m, out=m)
    return alpha * _pair_max(det, sel)


def _stacked(draw, rngs: list[np.random.Generator], n: int) -> list[np.ndarray]:
    """Each array of draw(rng, n) for a run's members, stacked over its rows; a member's draw is
    copied and freed before the next member draws (a one-member run's is returned as is)."""
    if len(rngs) == 1:
        return draw(rngs[0], n)
    out = None
    for i, rng in enumerate(rngs):
        parts = draw(rng, n)
        out = out or [np.empty((len(rngs) * n, *p.shape[1:]), p.dtype) for p in parts]
        for o, p in zip(out, parts):
            o[i * n:(i + 1) * n] = p
    return out


def _hits(rngs: list[np.random.Generator], n: int, alpha: np.ndarray, vis: np.ndarray, d: int,
          r: int, kinds: tuple[LutKind, ...], modes: tuple[str, ...], shared: bool) -> np.ndarray:
    """Detection flags (modes, strategies + 1, rows): per mode, each strategy then their OR.

    A run is len(rngs) members of n rows (an icps chunk is one), each drawing from its
    own generator what it would draw alone.  A row of state (alpha, vis) is detected when
    witness.pure_noise_detected accepts its _schmidt_dets at vis.  Draw order per mode:
    shared selections (if shared), then per strategy its local unitaries (Haar U then
    V for random_both) and its selections (if not shared); a second mode replays each
    member's generator from its state at the call.  Each mode's selections are written,
    member after member, into one run-sized array (transforms._fill_selections, as
    random_selections draws them), which every fresh draw of the mode refills.  Each
    strategy is evaluated over the run's rows RUN_ROWS at a time (each row's flag is its own,
    so no bit depends on the slicing) and its unitaries are freed before the next one's are
    drawn.
    """
    alpha_r = last_schmidt_coefficient(r, alpha)
    starts = [rng.bit_generator.state for rng in rngs] if len(modes) > 1 else []
    hit = np.empty((len(modes), len(kinds) + 1, len(rngs) * n), dtype=bool)
    for j, mode in enumerate(modes):
        for rng, start in zip(rngs, starts if j else ()):
            rng.bit_generator.state = start
        sel = _selection_array(d, len(alpha), mode)
        select = partial(_fill_selections, rngs, d, mode, sel)
        if shared:
            select()
        for k, kind in enumerate(kinds):
            u, v = (_stacked(partial(_local_unitaries, d, LutStrategy(kind)), rngs, n)
                    if kind is LutKind.RANDOM_BOTH else (None, None))  # fixed kinds draw nothing
            if not shared:
                select()
            for s in linalg.row_slices(len(alpha), 1, RUN_ROWS):
                hit[j, k, s] = pure_noise_detected(
                    _schmidt_dets(sel[s], kind, u if u is None else u[s], v if v is None else v[s],
                                  alpha[s], alpha_r[s], d, r), vis[s], d * d)
            del u, v  # freed before the next strategy draws its own
        del sel
        hit[j, -1] = hit[j, :-1].any(axis=0)
    return hit


def _icps_flags(seed: int, chunk_idx: int, n: int, d: int, r: int, kinds: tuple[LutKind, ...],
                modes: tuple[str, ...], shared: bool, ground_truth: IcpsGroundTruth):
    """(n, ent (n,), _hits) for alpha ~ U[0, 1/sqrt(r-1)] and v ~ U[0, 1]; a
    sample is entangled when v exceeds oracles.conditioning_threshold."""
    rng = substream(seed, _TAG_ICPS, chunk_idx)
    alpha = rng.uniform(0.0, 1.0 / np.sqrt(r - 1), n)
    vis = rng.uniform(0.0, 1.0, n)
    return (n, vis > conditioning_threshold(d, r, alpha, ground_truth),
            _hits([rng], n, alpha, vis, d, r, kinds, modes, shared))


def _grid_flags(seed: int, cells: range, chunk_idx: int, n: int, d: int, r: int, alphas: tuple,
                vis: tuple, kinds: tuple[LutKind, ...], mode: str, shared: bool):
    """(rows, True, hit (cells, strategies + 1, n)) of a run of cells: cell i, state (alphas[i],
    vis[i]), draws from substream(seed, _TAG_GRID, cells[i], chunk_idx); every trial counts."""
    rngs = [substream(seed, _TAG_GRID, cell, chunk_idx) for cell in cells]
    hit = _hits(rngs, n, np.repeat(alphas, n), np.repeat(vis, n), d, r, kinds, (mode,), shared)
    return len(cells) * n, True, hit[0].reshape(-1, len(cells), n).swapaxes(0, 1)


def _npt_masks(z: np.ndarray, d: int, vis: np.ndarray, work: np.ndarray | None = None,
               gram: np.ndarray | None = None) -> np.ndarray:
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
    settle at every level keeps those flags; the rows they leave open, if
    any, are scored by the expression above from an SVD.  Each row's flags
    are its own, so a caller may pass any run of rows: _quasi_flags passes
    one slice of at most linalg.SLICE_ENTRIES entries at a time, with work
    (for conj(z), then |G|_F's squares) and gram (for G), two complex arrays of
    z's shape that it allocates once per chunk; without them they are allocated here.
    """
    v = np.asarray(vis, dtype=float)[:, None]
    floor = (1.0 - v) / (d * d) + NPT_TOL
    slack = 64 * d * d * np.finfo(float).eps
    zc = np.conjugate(z, out=work)
    g = np.matmul(z, zc.transpose(0, 2, 1), out=gram)
    tr = np.einsum("nii->n", g).real
    sq = np.square(g.real, out=zc.reshape(-1).view(float)[:g.size].reshape(g.shape))
    sq += np.square(g.imag, out=g.imag)  # G's real squares, then its imaginary ones added
    e2 = (tr * tr - sq.sum(axis=(1, 2))) / 2
    ent = v * v * (e2 - slack) > (d * (d - 1) / 2) * (floor + slack) ** 2  # NPT for sure
    ppt = v * v * (e2 + slack) < np.maximum(floor - slack, 0.0) ** 2  # PPT for sure
    open_rows = ~(ent | ppt).all(axis=0)
    if open_rows.any():
        lam = np.linalg.svd(z[open_rows], compute_uv=False)
        ent[:, open_rows] = v * lam[:, 0] * lam[:, 1] - (1.0 - v) / (d * d) > NPT_TOL
    return ent


def _quasi_flags(seed: int, chunk_idx: int, n: int, d: int, noises: tuple[float, ...],
                 modes: tuple[str, ...]):
    """(n, ent (noises, 1, n), hit (noises, modes, n)) for n Haar states with white noise.

    Two streams: each mode draws its level selections from the start of
    substream(seed, _TAG_QUASI, chunk_idx, 1), as if it ran alone, and the
    states come from substream(seed, _TAG_QUASI, chunk_idx), one
    linalg.haar_state_slices slice at a time (a stack of Haar states equals
    its slices drawn in sequence).  Each slice serves every noise level and
    mode before the next is drawn over it: its ground truth (_npt_masks) and,
    per mode, the detection flags of each sample's _pair_max of |det M| over
    its level pairs, gathered at block_indices under the identity strategy
    (the Haar ensemble is invariant under local unitaries).  So a chunk holds
    every mode's selections, its flags and three slice-sized complex arrays,
    allocated once: the slice's states, its scratch and its Gram matrices.
    """
    sels = [random_selections(substream(seed, _TAG_QUASI, chunk_idx, 1), d, n, mode)
            for mode in modes]
    rng = substream(seed, _TAG_QUASI, chunk_idx)
    vis = 1.0 - np.array(noises)
    ent = np.empty((len(noises), 1, n), dtype=bool)
    hit = np.empty((len(noises), len(modes), n), dtype=bool)
    gram = np.empty((min(n, linalg.slice_rows(d * d)), d, d), dtype=complex)
    for s, z, work in linalg.haar_state_slices(d * d, rng, n):
        ent[:, 0, s] = _npt_masks(z.reshape(-1, d, d), d, vis, work.reshape(-1, d, d),
                                  gram[:len(z)])
        gather = lambda b: _det2(z[np.arange(len(z))[:, None], block_indices(b.swapaxes(0, 1), d)])
        for j, sel in enumerate(sels):
            hit[:, j, s] = pure_noise_detected(_pair_max(gather, sel[s]), vis[:, None], d * d)
    return n, ent, hit


def _counts(flags_fn, *task) -> np.ndarray:
    """[rows, entangled per entry..., detected per entry...] from (rows, ent, hit) =
    flags_fn(*task): rows is the task's sample count, hit (..., n) has one row of
    per-sample flags per entry, in row-major order, and ent broadcasts against it."""
    rows, ent, hit = flags_fn(*task)
    ent = np.broadcast_to(ent, hit.shape)
    return np.concatenate([[rows], ent.sum(axis=-1).ravel(),
                           (hit & ent).sum(axis=-1).ravel()], dtype=np.int64)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (a container's cpuset), else the host count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_share(count, share: list[tuple]) -> tuple[int, BinaryIO]:
    """(pid, read end of its pipe) of a forked child that writes the pickled list
    [count(*task) for task in share], or its pickled exception, to the pipe.

    The child leaves by os._exit: no atexit handler, stdio flush or
    interpreter teardown runs in it.  Its exit status is 0 only once the
    whole payload is written.  A child whose parent is gone (killed, so its
    finally never ran) has no reader: it exits 1 before its next task."""
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                counts = []
                for task in share:
                    if os.getppid() != parent:
                        os._exit(1)
                    counts.append(count(*task))
                payload = pickle.dumps(counts, pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # handed to the parent, which re-raises it
                payload = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _share_result(pid: int, status: int, payload: bytes) -> list[np.ndarray]:
    """The counts a reaped child wrote; raises the exception it wrote, or
    ChildProcessError when it ended without a result (killed by a signal)."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise ChildProcessError(f"sweep worker {pid} ended without a result ({how})")
    result = pickle.loads(payload)  # bytes this function's own child wrote
    if isinstance(result, BaseException):
        raise result
    return result


def run_tasks(flags_fn, tasks: list[tuple], workers: int = 1) -> list[np.ndarray]:
    """_counts(flags_fn, *task) per task, in order.

    W = min(workers, tasks, usable CPUs) forked children compute every W-th
    task each (child w computes tasks[w::W]) and send only their count
    vectors back through a pipe; the parent computes nothing, so its memory
    stays that of the imports.  With W <= 1, or where os has no fork, the
    tasks run serially in this process.  A child's exception is re-raised
    here; if this process raises while waiting (Ctrl-C), every child still
    running is killed and reaped.
    """
    count = partial(_counts, flags_fn)
    workers = min(workers, len(tasks), usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [count(*t) for t in tasks]
    children = []  # (pid, pipe) per child not yet reaped, in share order
    results: list = [None] * len(tasks)
    try:
        for w in range(workers):
            children.append(_fork_share(count, tasks[w::workers]))
        for w in range(workers):
            pid, pipe = children[0]
            payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            pipe.close()
            results[w::workers] = _share_result(pid, status, payload)
    finally:
        for pid, pipe in children:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            pipe.close()
    return results


def chunk_sizes(n: int, d: int) -> list[int]:
    """Chunks covering n >= 1 samples: CHUNK rows, or fewer (at least 1) where
    rows * d^2 would pass CHUNK_ENTRIES, i.e. for d > TABLE_MAX_D; the last may be short."""
    if n < 1:
        raise InvalidParamsError(f"n_samples must be >= 1, got {n}")
    rows = max(1, min(CHUNK, CHUNK_ENTRIES // (d * d)))
    return [min(rows, n - start) for start in range(0, n, rows)]

