import os

import numpy as np
import pytest

from quditwitness import DensityMatrix
from quditwitness.linalg import ginibre
from quditwitness.witness import PAULI


def random_density(rng: np.random.Generator, dim_a: int, dim_b: int) -> DensityMatrix:
    """Random full-rank mixed state (Ginibre construction)."""
    g = ginibre(dim_a * dim_b, rng)
    mat = g @ g.conj().T
    return DensityMatrix(dim_a, dim_b, mat / mat.trace())


def two_qubit(mat) -> DensityMatrix:
    """A 4x4 matrix as a two-qubit DensityMatrix, unvalidated."""
    return DensityMatrix(2, 2, np.asarray(mat, dtype=complex))


def conjugated_by_kron(mat: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(U (x) V) rho (U (x) V)^dag by the explicit d^2 x d^2 Kronecker operator."""
    w = np.kron(u, v)
    return w @ mat @ w.conj().T


def ordered_classes(d: int) -> list[tuple[int, int, int, int]]:
    """Every ordered selection class (a0, a1, b0, b1), a0 != a1 and b0 != b1,
    in lexicographic order: d^2 (d-1)^2 of them."""
    return [(a0, a1, b0, b1) for a0 in range(d) for a1 in range(d) if a1 != a0
            for b0 in range(d) for b1 in range(d) if b1 != b0]


def two_copy_moments_reference(mat, ops):
    """m_ij = Tr[rho x rho . S_bb' (ops[i] x ops[j])_aa'] in the (a, b, a', b')
    order, by explicit 16x16 Kronecker products and S = sum_k sigma_k x sigma_k."""
    rho4 = np.kron(mat, mat)
    return np.array([[sum(np.trace(rho4 @ np.kron(np.kron(a, PAULI[k]), np.kron(b, PAULI[k]))).real
                          for k in range(3)) for b in ops] for a in ops])


def schmidt_amplitude_matrices(alpha, r, d, u, v):
    """(n, d, d) stack of U diag(s) V^T for the Schmidt-form s of each alpha."""
    n = len(alpha)
    s = np.zeros((n, d))
    s[:, : r - 1] = alpha[:, None]
    s[:, r - 1] = np.sqrt(np.maximum(1 - (r - 1) * alpha ** 2, 0))
    uu, vv = (np.broadcast_to(w, (n, d, d)) for w in (u, v))
    return uu @ (s[:, :, None] * np.swapaxes(vv, 1, 2))


def explicit_max_det(m, sel):
    """Per-sample max over the level pairs of sel (n, pairs, 4) of |det| of the
    2x2 blocks m[a_i, b_j] of m (n, d, d)."""
    rows = np.arange(len(m))[:, None, None, None]
    b = m[rows, sel[:, :, :2, None], sel[:, :, None, 2:]]
    return np.abs(b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]).max(axis=1)


def tiled_selections(rng, d: int, n: int, mode: str) -> np.ndarray:
    """random_selections with an np.tile'd (n, d) permutation array per side
    in parallel mode: the construction the one-buffer draw must reproduce."""
    parallel = mode == "parallel"
    pairs = d // 2 if parallel else 1
    sel = np.empty((n, pairs, 2, 2), dtype=np.int64)
    for side in range(2):
        if parallel:
            perm = np.tile(np.arange(d), (n, 1))
            rng.permuted(perm, axis=1, out=perm)
            sel[:, :, side] = perm[:, : 2 * pairs].reshape(n, pairs, 2)
        else:
            i = rng.integers(0, d, size=n)
            j = rng.integers(0, d - 1, size=n)
            sel[:, 0, side, 0] = i
            np.add(j, j >= i, out=sel[:, 0, side, 1])
    return sel.reshape(n, pairs, 4)


def one_call_haar_unitary(dim: int, rng, size) -> np.ndarray:
    """haar_unitary by one np.linalg.qr of the whole Ginibre stack: the
    construction the sliced, in-place QR must reproduce."""
    q, r = np.linalg.qr(ginibre(dim, rng, size=size))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="sweeps run serially without fork")


def set_usable_cpus(monkeypatch, cpus: int | None) -> None:
    """Make engine.usable_cpus() see cpus CPUs through the affinity set; None:
    no affinity set and an unknown CPU count, as on a platform that has neither."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def assert_no_child_left() -> None:
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pids of the children forked while the test runs: os.fork, the one
    function run_tasks forks through, is replaced by a stand-in that records
    each child and calls the real fork."""
    started, real_fork = [], os.fork

    def fork() -> int:
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    return started


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
