"""Local unitaries and the level-selection map from two qudits to two qubits.

A level selection keeps two levels per subsystem; only the first two images of
the underlying permutations matter, so selections are stored as the ordered
pairs (a0, a1) and (b0, b1).  That collapses the (d!)^2 permutation space to
the d^2 (d-1)^2 selection classes that actually drive the statistics.

The protocol's two draws, _local_unitaries and random_selections, live here
once for the sweep kernel and the scalar trial API alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .constants import HERMITICITY_TOL, ZERO_PROB_TOL
from .linalg import haar_unitary
from .states import DensityMatrix


class ZeroProbabilityError(ValueError):
    """Raised when a selection carries (numerically) no weight."""


@dataclass(frozen=True)
class LevelSelection:
    """Qudit levels mapped onto qubit levels 0 and 1, per subsystem."""

    a0: int
    a1: int
    b0: int
    b1: int

    def __post_init__(self):
        if self.a0 == self.a1 or self.b0 == self.b1:
            raise ValueError("selected levels must be distinct on each side")

    def indices(self, d: int) -> np.ndarray:
        """Row indices of the selected two-qubit block in the d*d product basis."""
        return block_indices(np.array([self.a0, self.a1, self.b0, self.b1]), d)


def level_index(d: int, first, *rest) -> np.ndarray:
    """The base-d index (..(first d + rest[0]) d + ..) d + rest[-1] of broadcasting level
    arrays, in intp: the one place levels become indices.  random_selections' levels are
    narrower, and under NEP 50 their products with d would wrap (or raise) in their dtype."""
    index = np.asarray(first, dtype=np.intp)
    for level in rest:
        index = index * d + level
    return index


def block_indices(sel: np.ndarray, d: int) -> np.ndarray:
    """Product-basis rows (a0 b0, a0 b1, a1 b0, a1 b1) of selections sel[..., (a0, a1, b0, b1)]."""
    a, b = sel[..., :2], sel[..., 2:]
    return level_index(d, a[..., :, None], b[..., None, :]).reshape(*sel.shape[:-1], 4)


class LutKind(str, Enum):
    """Local unitary applied before the level selection."""

    IDENTITY = "identity"
    HADAMARD_B = "hadamard_b"
    HADAMARD_BOTH = "hadamard_both"
    RANDOM_BOTH = "random_both"


@dataclass(frozen=True, eq=False)
class LutStrategy:
    """A LutKind (or its name) plus, for RANDOM_BOTH only, optionally pinned unitaries.
    Equal when the kinds are and each pinned array is np.array_equal (or both None)."""

    kind: LutKind
    u_a: np.ndarray | None = None
    v_b: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", LutKind(self.kind))
        for m in (self.u_a, self.v_b):
            if m is not None and self.kind is not LutKind.RANDOM_BOTH:
                raise ValueError(f"only random_both takes pinned unitaries, not {self.kind.value}")
            if m is not None and np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() > HERMITICITY_TOL:
                raise ValueError("stored local unitary is not unitary within tolerance")

    def __eq__(self, other):
        return (isinstance(other, LutStrategy) and self.kind is other.kind
                and np.array_equal(self.u_a, other.u_a) and np.array_equal(self.v_b, other.v_b))

    def __hash__(self):
        return hash(self.kind)

    @classmethod
    def identity(cls) -> "LutStrategy":
        return cls(LutKind.IDENTITY)

    @classmethod
    def hadamard_b(cls) -> "LutStrategy":
        return cls(LutKind.HADAMARD_B)

    @classmethod
    def hadamard_both(cls) -> "LutStrategy":
        return cls(LutKind.HADAMARD_BOTH)

    @classmethod
    def random_both(cls, u_a: np.ndarray | None = None, v_b: np.ndarray | None = None) -> "LutStrategy":
        return cls(LutKind.RANDOM_BOTH, u_a=u_a, v_b=v_b)


@lru_cache(maxsize=16)
def qudit_hadamard(d: int) -> np.ndarray:
    """d-level Hadamard gate H[k,l] = omega^(k l)/sqrt(d), omega = exp(2 pi i/d).

    Built once per process and d; every caller shares the read-only result.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    k = np.arange(d)
    h = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    h.setflags(write=False)
    return h


def _local_unitaries(d: int, s: LutStrategy, rng: np.random.Generator | None,
                     size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(U_A, V_B) of a strategy, np.eye(d) for an identity side: the one
    LutKind-to-unitary map.

    random_both draws what is not pinned, U before V; size gives (size, d, d) stacks.
    """
    if s.kind is LutKind.IDENTITY:
        return np.eye(d), np.eye(d)
    if s.kind is LutKind.HADAMARD_B:
        return np.eye(d), qudit_hadamard(d)
    if s.kind is LutKind.HADAMARD_BOTH:
        h = qudit_hadamard(d)
        return h, h
    u, v = s.u_a, s.v_b
    if u is None or v is None:
        if rng is None:
            raise ValueError("random_both without stored unitaries needs an rng")
        u = haar_unitary(d, rng, size=size) if u is None else u
        v = haar_unitary(d, rng, size=size) if v is None else v
    return u, v


def apply_lut(rho: DensityMatrix, s: LutStrategy, rng: np.random.Generator | None = None) -> DensityMatrix:
    """Conjugate by U_A (x) V_B in O(d^5), without the d^2 x d^2 operator: U, V, U*
    and V* act on one index each of rho as a (d, d, d, d) tensor, in that order."""
    if rho.dim_a != rho.dim_b:
        raise ValueError("local unitary strategies assume equal local dimensions")
    if s.kind is LutKind.IDENTITY:
        return rho
    d = rho.dim_a
    u, v = _local_unitaries(d, s, rng)
    t = (u @ rho.mat.reshape(d, d ** 3)).reshape(d, d, d * d)
    # U* and V* as U and V between two conjugations.  Ending in a complex ufunc, not a
    # zgemm, keeps the caller's next complex reduction fast: right after OpenBLAS's zgemm
    # the trace in witness._correlations ran about 7x slower (2-core Xeon VM, numpy 2.4).
    t = (v @ t).reshape(d * d, d, d).conj()
    t = (u @ t).reshape(d ** 3, d)
    return DensityMatrix(d, d, (t @ v.T).reshape(d * d, d * d).conj())


class Mode(str, Enum):
    SINGLE = "single"
    PARALLEL = "parallel"


def random_selections(rng: np.random.Generator, d: int, n: int, mode: Mode | str) -> np.ndarray:
    """Uniform level selections, shape (n, pairs, 4) with rows (a0, a1, b0, b1):
    the one selection draw of the sweeps and of detection.run_trial.

    Single mode: one ordered distinct pair per side.  Parallel mode: one
    permutation per side whose columns 2k, 2k+1 form pair k, i.e. d // 2
    disjoint pairs; both sides are permuted in one reused (n, d) intp buffer
    (rng.permuted runs about 1.5x slower on a narrow one).  Side A is drawn
    before side B, each straight into its half of one preallocated array.
    The levels are stored in np.min_scalar_type(d - 1), the narrowest
    unsigned dtype that holds d - 1 (uint8 up to d = 256): arithmetic on them
    wraps there, so level_index turns them into indices.  An unknown mode
    raises ValueError before any draw.
    """
    sel = _selection_array(d, n, mode)
    _fill_selections([rng], d, mode, sel)
    return sel


def _selection_array(d: int, rows: int, mode: Mode | str) -> np.ndarray:
    """An empty (rows, pairs, 4) selection array in np.min_scalar_type(d - 1); raises
    ValueError for d < 2 or an unknown mode."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    pairs = d // 2 if Mode(mode) is Mode.PARALLEL else 1
    return np.empty((rows, pairs, 4), dtype=np.min_scalar_type(d - 1))


def _fill_selections(rngs: list[np.random.Generator], d: int, mode: Mode | str,
                     sel: np.ndarray) -> None:
    """random_selections' draw from each generator of rngs in turn, written into its equal
    share of the rows of sel, a C-ordered _selection_array; in parallel mode every member
    permutes both sides in one (rows / members, d) intp buffer, freed on return."""
    n, pairs = len(sel) // len(rngs), sel.shape[1]
    perm = np.empty((n, d), dtype=np.intp) if Mode(mode) is Mode.PARALLEL else None
    for rng, member in zip(rngs, sel.reshape(len(rngs), n, pairs, 2, 2)):  # (.., pair, side, level)
        for side in range(2):
            if perm is not None:
                perm[:] = np.arange(d)
                rng.permuted(perm, axis=1, out=perm)
                member[:, :, side] = perm[:, : 2 * pairs].reshape(n, pairs, 2)
            else:
                i = rng.integers(0, d, size=n)
                j = rng.integers(0, d - 1, size=n)
                j += j >= i
                member[:, 0, side, 0] = i
                member[:, 0, side, 1] = j


def reduce_to_two_qubits(rho: DensityMatrix, sel: LevelSelection) -> tuple[DensityMatrix, float]:
    """Project onto the selected levels and renormalise.

    Returns the 4x4 state in the basis |00>, |01>, |10>, |11> (qubit level 0 of
    A is qudit level a0, etc.) together with the post-selection probability
    Tr[M rho M^dag].  Raises ZeroProbabilityError when that probability is
    below ZERO_PROB_TOL.
    """
    for level, dim in ((sel.a0, rho.dim_a), (sel.a1, rho.dim_a), (sel.b0, rho.dim_b), (sel.b1, rho.dim_b)):
        if not 0 <= level < dim:
            raise ValueError(f"level {level} out of range for dimension {dim}")
    idx = sel.indices(rho.dim_b)
    block = rho.mat[np.ix_(idx, idx)]
    prob = float(block.trace().real)
    if prob < ZERO_PROB_TOL:
        raise ZeroProbabilityError(f"selection weight {prob:.3e} below {ZERO_PROB_TOL}")
    return DensityMatrix(2, 2, block / prob), prob
