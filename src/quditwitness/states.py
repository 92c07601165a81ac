"""Construction of the bipartite state families under study.

Both families share the pure-state-plus-white-noise structure
``rho = v |psi><psi| + (1 - v)/D * I``; DensityMatrix caches the pair
``(psi, v)`` when it is known, which lets downstream code evaluate
reductions without re-diagonalising anything.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import HERMITICITY_TOL, NPT_TOL
from .linalg import haar_state


class InvalidParamsError(ValueError):
    """Raised for out-of-range state-family parameters."""


class InvalidStateError(ValueError):
    """Raised when a matrix violates the density-matrix invariants."""


@dataclass(frozen=True)
class DensityMatrix:
    """Bipartite density matrix on C^dim_a (x) C^dim_b.

    ``pure`` and ``visibility`` are an optional cached decomposition
    rho = visibility |pure><pure| + (1 - visibility)/D * I; they are set by the
    constructors of pure-plus-noise families and preserved by unitary maps.
    """

    dim_a: int
    dim_b: int
    mat: np.ndarray
    pure: np.ndarray | None = field(default=None, compare=False)
    visibility: float | None = field(default=None, compare=False)

    def __post_init__(self):
        d = self.dim_a * self.dim_b
        if self.mat.shape != (d, d):
            raise InvalidStateError(f"matrix shape {self.mat.shape} does not match dims ({d},{d})")
        self.mat.setflags(write=False)
        if self.pure is not None:
            self.pure.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @classmethod
    def from_matrix(cls, mat: np.ndarray, dim_a: int, dim_b: int, validate: bool = True) -> "DensityMatrix":
        rho = cls(dim_a, dim_b, np.asarray(mat, dtype=complex))
        if validate:
            rho.validate()
        return rho

    @classmethod
    def from_pure(cls, vec: np.ndarray, dim_a: int, dim_b: int, visibility: float = 1.0) -> "DensityMatrix":
        """Build v |vec><vec| + (1 - v)/D * I from a unit vector."""
        vec = np.asarray(vec, dtype=complex)
        d = dim_a * dim_b
        mat = visibility * np.outer(vec, vec.conj()) + (1.0 - visibility) / d * np.eye(d)
        return cls(dim_a, dim_b, mat, pure=vec, visibility=float(visibility))

    def validate(self) -> "DensityMatrix":
        """Check finiteness, Hermiticity, unit trace and positivity; raise InvalidStateError."""
        if not np.isfinite(self.mat).all():
            raise InvalidStateError("matrix has non-finite (nan or inf) entries")
        dev = np.abs(self.mat - self.mat.conj().T).max()
        if dev > HERMITICITY_TOL:
            raise InvalidStateError(f"not Hermitian: max |rho - rho^dag| = {dev:.3e}")
        tr = self.mat.trace()
        if abs(tr - 1.0) > HERMITICITY_TOL:
            raise InvalidStateError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        min_eig = np.linalg.eigvalsh(self.mat).min()
        if min_eig < -NPT_TOL:
            raise InvalidStateError(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
        return self


def last_schmidt_coefficient(r: int, alpha):
    """alpha_r = sqrt(1 - (r-1) alpha^2), clipped at 0, for a float or an array alpha."""
    return np.sqrt(np.clip(1.0 - (r - 1) * alpha ** 2, 0.0, None))


@dataclass(frozen=True)
class IcpsParams:
    """Schmidt-form pure state mixed with white noise.

    d: local dimension, r: Schmidt rank, alpha: repeated Schmidt coefficient
    (the last one is alpha_r = sqrt(1 - (r-1) alpha^2)), v: visibility.
    """

    d: int
    r: int
    alpha: float
    v: float

    def __post_init__(self):
        if self.d < 2:
            raise InvalidParamsError(f"d must be >= 2, got {self.d}")
        if not 2 <= self.r <= self.d:
            raise InvalidParamsError(f"r must be in [2, d], got r={self.r}, d={self.d}")
        if not 0.0 <= self.alpha <= 1.0 / np.sqrt(self.r - 1) + 1e-12:
            raise InvalidParamsError(
                f"alpha must be in [0, 1/sqrt(r-1)] = [0, {1.0 / np.sqrt(self.r - 1):.6f}], got {self.alpha}")
        if not 0.0 <= self.v <= 1.0:
            raise InvalidParamsError(f"v must be in [0, 1], got {self.v}")

    @property
    def alpha_r(self) -> float:
        return float(last_schmidt_coefficient(self.r, self.alpha))

    def schmidt_coefficients(self) -> np.ndarray:
        """Length-d vector (alpha, ..., alpha, alpha_r, 0, ..., 0)."""
        return np.r_[np.full(self.r - 1, self.alpha), self.alpha_r, np.zeros(self.d - self.r)]


@dataclass(frozen=True)
class QuasiPureParams:
    """Haar-random pure state mixed with white noise at visibility v."""

    d: int
    v: float

    def __post_init__(self):
        if self.d < 2:
            raise InvalidParamsError(f"d must be >= 2, got {self.d}")
        if not 0.0 <= self.v <= 1.0:
            raise InvalidParamsError(f"v must be in [0, 1], got {self.v}")


def schmidt_vector(coefficients: np.ndarray, d: int) -> np.ndarray:
    """Embed Schmidt coefficients s_j as the vector sum_j s_j |jj>."""
    psi = np.zeros(d * d, dtype=complex)
    psi[(np.arange(len(coefficients))) * (d + 1)] = coefficients
    return psi


def make_icps(p: IcpsParams) -> DensityMatrix:
    """Density matrix of the Schmidt-form-plus-white-noise family."""
    psi = schmidt_vector(p.schmidt_coefficients(), p.d)
    return DensityMatrix.from_pure(psi, p.d, p.d, visibility=p.v)


def make_quasi_pure(p: QuasiPureParams, rng: np.random.Generator) -> DensityMatrix:
    """Haar-random pure state of the full d*d space mixed with white noise.

    Sampling a normalised Gaussian vector is equivalent in distribution to
    rotating a fixed reference vector by a Haar unitary.
    """
    psi = haar_state(p.d * p.d, rng)
    return DensityMatrix.from_pure(psi, p.d, p.d, visibility=p.v)


def apply_white_noise(rho: DensityMatrix, v: float) -> DensityMatrix:
    """Mix with the maximally mixed state: v rho + (1 - v)/D * I.

    White-noise layers compose: applied to a cached pure-plus-noise state the
    result is again pure-plus-noise with visibility v * v_old.
    """
    if not 0.0 <= v <= 1.0:
        raise InvalidParamsError(f"v must be in [0, 1], got {v}")
    if rho.pure is not None and rho.visibility is not None:
        return DensityMatrix.from_pure(rho.pure, rho.dim_a, rho.dim_b, visibility=v * rho.visibility)
    d = rho.dim
    mat = v * rho.mat + (1.0 - v) / d * np.eye(d)
    return DensityMatrix(rho.dim_a, rho.dim_b, mat)


def maximally_mixed(dim_a: int, dim_b: int) -> DensityMatrix:
    d = dim_a * dim_b
    return DensityMatrix(dim_a, dim_b, np.eye(d, dtype=complex) / d)


def random_product_mixture(d: int, n_terms: int, rng: np.random.Generator) -> DensityMatrix:
    """Random separable state: a mixture of random pure product states."""
    weights = rng.dirichlet(np.ones(n_terms))
    mat = np.zeros((d * d, d * d), dtype=complex)
    for w in weights:
        psi = np.kron(haar_state(d, rng), haar_state(d, rng))
        mat += w * np.outer(psi, psi.conj())
    return DensityMatrix(d, d, mat)
