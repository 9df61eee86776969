"""Matrix-free observation operators for signals with missing samples.

With ``A`` the orthogonal synthesis map of :mod:`fftlasso.fourier` and a set
of missing sample indices, the observation operator keeps only the observed
rows of ``A``.  Its transpose zero-fills the missing slots and applies the
analysis map.  The composition (the Gram operator of the observed rows) is
symmetric positive semidefinite with spectrum inside [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedShapeError
from .fourier import GridShape, analyze, real_vector, synthesize

__all__ = ["Mask", "observe", "observe_adjoint", "gram", "embed"]


@dataclass(frozen=True, eq=False)
class Mask:
    """Missing-sample index set on a grid, compared and hashed by identity.

    Attributes
    ----------
    missing : numpy.ndarray
        Strictly increasing linear (row-major) indices of missing samples,
        of an integer dtype.  May be empty (pure denoising), of any dtype;
        must not cover the whole grid.
    shape : GridShape
        Grid geometry the indices refer to.
    """

    missing: np.ndarray
    shape: GridShape
    missing_bool: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        idx = np.asarray(self.missing)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"missing indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64, copy=False).reshape(-1)
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.shape.n:
                raise ValueError("missing indices out of range")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("missing indices must be strictly increasing")
        if idx.size >= self.shape.n:
            raise ValueError("cannot mask every sample")
        flags = np.zeros(self.shape.n, dtype=bool)
        flags[idx] = True
        object.__setattr__(self, "missing", idx)
        object.__setattr__(self, "missing_bool", flags)

    @property
    def n_missing(self) -> int:
        return int(self.missing.size)

    @property
    def n_observed(self) -> int:
        return self.shape.n - self.n_missing

    @classmethod
    def from_bool(cls, flags, shape: GridShape) -> "Mask":
        """Build from a boolean/byte array with True/1 marking missing."""
        flags = np.asarray(flags).reshape(-1).astype(bool)
        if flags.size != shape.n:
            raise UnsupportedShapeError(
                f"mask has {flags.size} entries, grid expects {shape.n}"
            )
        return cls(np.flatnonzero(flags), shape)


def _check_spectrum(beta, mask: Mask) -> np.ndarray:
    beta = real_vector(beta, "coefficients")
    if beta.size != mask.shape.n:
        raise UnsupportedShapeError(
            f"coefficient vector has {beta.size} entries, grid expects {mask.shape.n}"
        )
    return beta


def observe(beta, mask: Mask) -> np.ndarray:
    """Synthesize the signal and keep the observed samples, in index order."""
    beta = _check_spectrum(beta, mask)
    x = synthesize(beta, mask.shape)
    if mask.n_missing == 0:
        return x
    return x[~mask.missing_bool]


def observed_samples(values, mask: Mask) -> np.ndarray:
    """``values`` as a flat float64 vector of ``mask.n_observed`` samples;
    ``ValueError`` for a complex array, ``UnsupportedShapeError`` for
    another length."""
    values = real_vector(values, "observed samples")
    if values.size != mask.n_observed:
        raise UnsupportedShapeError(
            f"observed vector has {values.size} entries, mask expects {mask.n_observed}"
        )
    return values


def embed(values, mask: Mask) -> np.ndarray:
    """Zero-fill observed values back onto the full grid."""
    values = observed_samples(values, mask)
    full = np.zeros(mask.shape.n, dtype=np.float64)
    full[~mask.missing_bool] = values
    return full


def observe_adjoint(values, mask: Mask, out=None) -> np.ndarray:
    """Transpose of :func:`observe`: zero-fill, then analyze, into ``out``
    when given (as :func:`~fftlasso.fourier.analyze` takes it)."""
    return analyze(embed(values, mask), mask.shape, out=out)


def gram(beta, mask: Mask, out=None, spectra=None) -> np.ndarray:
    """Apply the Gram operator of the observed rows in one pass.

    Equivalent to ``observe_adjoint(observe(beta, mask), mask)`` but zeroes
    the missing samples in place on the full grid instead of materializing
    the shorter observed vector.  The signal is synthesized into the
    output vector and analyzed back over itself, so the product needs no
    n-vector beyond its result and the transforms' half spectra.  With an
    empty mask the synthesis map is orthogonal, so the Gram operator is
    the identity and this returns a copy of ``beta`` without a transform.
    ``out``, when given, is a contiguous float64 vector of ``n`` values
    that receives the result.  ``spectra`` are lent to both transforms, as
    to :func:`~fftlasso.fourier.synthesize`.
    """
    beta = _check_spectrum(beta, mask)
    if not mask.n_missing:
        if out is None:
            return beta.copy()
        np.copyto(out, beta)
        return out
    x = synthesize(beta, mask.shape, out=out, spectra=spectra)
    x[mask.missing] = 0.0
    return analyze(x, mask.shape, out=x, spectra=spectra)
