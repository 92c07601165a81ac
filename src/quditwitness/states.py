"""Construction of the bipartite state families under study.

Both families share the pure-state-plus-white-noise structure
``rho = v |psi><psi| + (1 - v)/D * I``.  A DensityMatrix holds only its
matrix: from_pure mixes the outer product through apply_white_noise, so
every state, pure-plus-noise or not, is read and transformed through .mat.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HERMITICITY_TOL, NPT_TOL
from .linalg import haar_state


class InvalidParamsError(ValueError):
    """Raised for out-of-range state-family parameters."""


class InvalidStateError(ValueError):
    """Raised when a matrix violates the density-matrix invariants."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Bipartite density matrix on C^dim_a (x) C^dim_b, held read-only.

    States compare and hash by identity: the generated field-wise equality
    would compare the ndarray, whose truth value is ambiguous.
    """

    dim_a: int
    dim_b: int
    mat: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise InvalidStateError(f"dims must be positive, got {self.dim_a}x{self.dim_b}")
        d = self.dim_a * self.dim_b
        if self.mat.shape != (d, d):
            raise InvalidStateError(f"matrix shape {self.mat.shape} does not match dims ({d},{d})")
        self.mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @classmethod
    def from_matrix(cls, mat: np.ndarray, dim_a: int, dim_b: int) -> "DensityMatrix":
        """A validated density matrix; see validate."""
        return cls(dim_a, dim_b, np.asarray(mat, dtype=complex)).validate()

    @classmethod
    def from_pure(cls, vec: np.ndarray, dim_a: int, dim_b: int, visibility: float = 1.0) -> "DensityMatrix":
        """Build v |vec><vec| + (1 - v)/D * I from a unit vector."""
        vec = np.asarray(vec, dtype=complex)
        return apply_white_noise(cls(dim_a, dim_b, np.outer(vec, vec.conj())), visibility)

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

    White-noise layers compose: noise v applied to a state with visibility
    v_old gives visibility v * v_old, up to rounding.
    """
    if not 0.0 <= v <= 1.0:
        raise InvalidParamsError(f"v must be in [0, 1], got {v}")
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
