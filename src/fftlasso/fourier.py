"""Orthogonal real-packing Fourier transform.

A real signal ``x`` of even length ``m`` has a conjugate-symmetric unitary
DFT ``v`` (``v[0]`` and ``v[m/2]`` real, ``v[k] == conj(v[m-k])``).  Packing
the independent degrees of freedom of ``v`` into a real vector

    beta = [v[0], v[m/2], sqrt(2)*Re(v[1:m/2]), sqrt(2)*Im(v[1:m/2])]

is a unitary map ``Q`` (see :func:`_pack_axis`), so the synthesis operator
taking ``beta`` to ``x`` is real orthogonal and its transpose (= inverse)
takes ``x`` back to ``beta``.  Everything is applied through FFTs; no matrix
is ever materialized.

A multi-dimensional grid takes ``Q`` along every axis of the full unitary
DFT.  With ``J`` reversing frequency indices along one axis,
``Q(conj(J v)) == conj(Q v)``, because ``Q`` combines ``v[k]`` and ``v[m-k]``
with weights that ``J`` and conjugation swap.  Packing the leading axes thus
keeps the spectrum conjugate-symmetric along the last one, where ``Q`` is a
Re/Im split of the half spectrum: :func:`analyze` is one unitary real FFT
over the whole grid, ``Q`` on the leading axes and that split, and
:func:`synthesize` is its exact inverse.  Arrays are linearized row-major
(C order).

The unitary real FFT (:func:`_rfftn`, :func:`_irfftn`) is built from
unnormalised one-axis ``numpy.fft`` passes: the real transform along the
last axis, then the complex ones along the leading axes in increasing
order, in place.  The whole-grid factor ``1/sqrt(n)`` is applied once,
where pocketfft's multi-axis ``rfftn`` and ``irfftn`` (``norm="ortho"``)
apply it: to the last-axis real transform's output going forward, and to
the final complex-to-real output coming back.  numpy and scipy share the
pocketfft kernels, so with the factor formed as pocketfft forms it
(:func:`_ortho_scale`) both maps equal ``scipy.fft.rfftn``/``irfftn`` bit
for bit.  Per-axis ``norm="ortho"`` would round differently whenever
``sqrt(m)`` is inexact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedSpectrumError, UnsupportedShapeError

__all__ = [
    "GridShape",
    "pack",
    "unpack",
    "synthesize",
    "analyze",
]

#: Relative tolerance for the conjugate-symmetry / realness check in pack().
SYMMETRY_RTOL = 1e-10

_SQRT2 = math.sqrt(2.0)
_RSQRT2 = 1.0 / _SQRT2


def _ortho_scale(n: int) -> float:
    """``1/sqrt(n)`` as pocketfft forms it: in long double, rounded once."""
    return float(np.longdouble(1) / np.sqrt(np.longdouble(n)))


@dataclass(frozen=True)
class GridShape:
    """Geometry of the sample grid (1 to 3 axes, every extent even).

    Attributes
    ----------
    dims : tuple of int
        Grid extents per axis, Python or numpy integers.  Each must be even
        and >= 2.
    """

    dims: tuple[int, ...]
    n: int = field(init=False)

    def __post_init__(self):
        try:
            extents = tuple(self.dims)
        except TypeError:  # an int, None, a float: no sequence of extents
            raise UnsupportedShapeError(
                f"grid extents must be a sequence of integers, got {self.dims!r}") from None
        if not all(isinstance(d, numbers.Integral) for d in extents):
            raise UnsupportedShapeError(f"grid extents must be integers, got {self.dims!r}")
        dims = tuple(int(d) for d in extents)
        if not 1 <= len(dims) <= 3:
            raise UnsupportedShapeError(f"need 1 to 3 axes, got {len(dims)}")
        for d in dims:
            if d < 2 or d % 2 != 0:
                raise UnsupportedShapeError(f"every axis must be even and >= 2, got {d}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "n", math.prod(dims))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def half(self) -> tuple[int, ...]:  # the half spectrum's shape
        return self.dims[:-1] + (self.dims[-1] // 2 + 1,)


def real_vector(values, what: str) -> np.ndarray:
    """``values`` as a flat float64 array; ``ValueError`` for a complex one,
    whose imaginary part the cast would drop."""
    if np.iscomplexobj(values):
        raise ValueError(f"{what} must be real")
    return np.asarray(values, dtype=np.float64).reshape(-1)


def _as_grid(values, shape: GridShape, what: str | None) -> np.ndarray:
    """``values`` on the grid: complex128 for ``what=None`` (a spectrum),
    else real float64 by :func:`real_vector`, ``what`` naming them."""
    arr = np.asarray(values, dtype=np.complex128) if what is None else real_vector(values, what)
    if arr.size != shape.n:
        raise UnsupportedShapeError(
            f"array has {arr.size} elements, grid expects {shape.n}"
        )
    return arr.reshape(shape.dims)


def _pack_axis(v: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Apply the unitary packing matrix ``Q`` along one axis, into ``out``.

    Slots 0 and 1 take ``v[0]`` and ``v[h]``; for ``k = 1..h-1`` slot
    ``k+1`` takes ``(v[k] + v[m-k])/sqrt(2)`` and slot ``k+h`` takes
    ``i*(v[m-k] - v[k])/sqrt(2)``.  On a conjugate-symmetric fiber the
    output fiber is real; on general complex input it is the plain unitary
    action, so any residual imaginary part measures the symmetry violation.
    """
    h = v.shape[axis] // 2
    lead = (slice(None),) * axis
    out[lead + (0,)] = v[lead + (0,)]
    out[lead + (1,)] = v[lead + (h,)]
    fwd = v[lead + (slice(1, h),)]
    rev = v[lead + (slice(None, h, -1),)]  # v[m-k] for k = 1..h-1
    re = out[lead + (slice(2, h + 1),)]
    im = out[lead + (slice(h + 1, None),)]
    np.add(fwd, rev, out=re)
    re *= _RSQRT2
    np.subtract(rev, fwd, out=im)
    im *= 1j * _RSQRT2
    return out


def _unpack_axis(b: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Inverse (adjoint) of :func:`_pack_axis` along one axis, into ``out``.

    Scales the coefficient slots of ``b`` in place, which saves a temporary.
    """
    h = b.shape[axis] // 2
    lead = (slice(None),) * axis
    out[lead + (0,)] = b[lead + (0,)]
    out[lead + (h,)] = b[lead + (1,)]
    re = b[lead + (slice(2, h + 1),)]
    im = b[lead + (slice(h + 1, None),)]
    re *= _RSQRT2
    im *= 1j * _RSQRT2
    np.add(re, im, out=out[lead + (slice(1, h),)])
    np.subtract(re, im, out=out[lead + (slice(None, h, -1),)])
    return out


def _along(kernel, w: np.ndarray, spare: np.ndarray, axes) -> np.ndarray:
    """Apply a per-axis kernel along each of ``axes``, overwriting ``w`` and
    ``spare``; returns the one holding the result."""
    for axis in axes:
        w, spare = kernel(w, axis, spare), w
    return w


def _half_spectra(shape: GridShape, spectra=None) -> tuple[np.ndarray, np.ndarray]:
    """Two half spectra for a transform and its packing: ``spectra``, or new in one block.

    glibc returns the free memory at the top of the heap to the system once
    it exceeds twice the largest block it has unmapped.  As two 2.2 MB
    arrays at 64^3, the transforms of a Gram product freed more than that
    on every call and page-faulted it anew on the next: 144K minor faults
    per masked 64^3 solve, against 6K with one block.
    """
    if spectra is None:
        return tuple(np.empty((2,) + shape.half, dtype=np.complex128))
    if [(s.shape, s.dtype) for s in spectra] != [(shape.half, np.complex128)] * 2:
        raise ValueError(f"spectra must be two complex128 arrays of shape {shape.half}")
    return spectra


def _rfftn(grid: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Half spectrum of a real grid into ``out``,
    ``scipy.fft.rfftn(grid, norm="ortho")``."""
    half = np.fft.rfft(grid, out=out)
    parts = half.view(np.float64)  # scaled as real numbers, as pocketfft scales them
    parts *= _ortho_scale(grid.size)
    for axis in range(grid.ndim - 1):
        np.fft.fft(half, axis=axis, out=half)
    return half


def _irfftn(half: np.ndarray, dims: tuple[int, ...], out: np.ndarray) -> np.ndarray:
    """Real grid of a half spectrum into ``out`` (of shape ``dims``),
    ``scipy.fft.irfftn(half, dims, norm="ortho")``.

    Overwrites ``half``.
    """
    for axis in range(half.ndim - 1):
        np.fft.ifft(half, axis=axis, norm="forward", out=half)  # unnormalised
    x = np.fft.irfft(half, n=dims[-1], norm="forward", out=out)
    x *= _ortho_scale(x.size)
    return x


def pack(v, shape: GridShape) -> np.ndarray:
    """Pack a conjugate-symmetric spectrum into its real coefficient vector.

    Parameters
    ----------
    v : array_like, complex
        Spectrum on the grid, ``shape.n`` values.  Must be conjugate
        symmetric (the spectrum of a real signal) to within
        ``SYMMETRY_RTOL`` relative to ``max(abs(v))``.

    Returns
    -------
    numpy.ndarray
        Flat real vector of length ``shape.n``.  The map is unitary, so
        the 2-norm is preserved.

    Raises
    ------
    MalformedSpectrumError
        If the symmetry violation exceeds tolerance.
    """
    w = _as_grid(v, shape, None).copy()  # _along overwrites it
    scale = np.max(np.abs(w)) if w.size else 0.0
    w = _along(_pack_axis, w, np.empty_like(w), range(shape.ndim))
    residue = np.max(np.abs(w.imag)) if w.size else 0.0
    if residue > SYMMETRY_RTOL * max(scale, 1e-300):
        raise MalformedSpectrumError(
            f"spectrum is not conjugate-symmetric: residue {residue:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    return np.ascontiguousarray(w.real).reshape(-1)


def unpack(beta, shape: GridShape) -> np.ndarray:
    """Rebuild the full conjugate-symmetric spectrum from packed form.

    Exact inverse of :func:`pack`:  ``pack(unpack(beta)) == beta`` up to
    floating-point commutativity of the sqrt(2) scaling.
    """
    w = _as_grid(beta, shape, "coefficients").astype(np.complex128)
    return _along(_unpack_axis, w, np.empty_like(w), range(shape.ndim)).reshape(-1)


def _check_out(out, shape: GridShape) -> None:
    if out is not None and not (out.shape == (shape.n,) and out.dtype == np.float64
                                and out.flags.c_contiguous):
        raise ValueError(f"out must be a contiguous float64 vector of {shape.n} values")


def synthesize(beta, shape: GridShape, out=None, spectra=None) -> np.ndarray:
    """Map packed spectral coefficients to the real signal.

    The half-spectrum inverse real FFT makes the output real by
    construction, so the transform preserves the 2-norm exactly as the
    dense orthogonal matrix would.

    Parameters
    ----------
    beta : array_like
        Flat (or grid-shaped) real coefficient vector, ``shape.n`` values.
    out : numpy.ndarray, optional
        Contiguous float64 vector of ``shape.n`` values that receives the
        signal; the inverse real FFT writes into it directly.  It may be
        ``beta`` itself, which is read before it is overwritten.
    spectra : pair of numpy.ndarray, optional
        Two complex128 arrays of shape ``shape.half`` to work in, not
        sharing memory with ``beta``.  The leading-axis passes end in the
        first on 1-D and 3-D grids, in the second on 2-D grids; ``out`` may
        share memory with the other one.

    Returns
    -------
    numpy.ndarray
        Flat real signal of length ``shape.n`` (row-major), in ``out`` when
        given.
    """
    _check_out(out, shape)
    b = _as_grid(beta, shape, "coefficients")
    h = shape.dims[-1] // 2
    half, spare = _half_spectra(shape, spectra)
    half[..., 0] = b[..., 0]
    half[..., h] = b[..., 1]
    np.multiply(b[..., 2 : h + 1], _RSQRT2, out=half[..., 1:h].real)
    np.multiply(b[..., h + 1 :], _RSQRT2, out=half[..., 1:h].imag)
    half = _along(_unpack_axis, half, spare, range(shape.ndim - 1))
    out = np.empty(shape.n) if out is None else out
    _irfftn(half, shape.dims, out.reshape(shape.dims))
    return out


def analyze(x, shape: GridShape, out=None, spectra=None) -> np.ndarray:
    """Map a real signal to packed spectral coefficients (transpose map).

    ``analyze(synthesize(beta)) == beta`` to machine precision because the
    underlying matrix is orthogonal.  ``out``, when given, is a contiguous
    float64 vector of ``shape.n`` values that receives the result; it may
    be ``x`` itself, which the transform reads in full before the result is
    written.  ``spectra`` are lent as to :func:`synthesize`; only the first
    may not share memory with ``x``, which ``rfft`` reads in full first.
    """
    _check_out(out, shape)
    half, spare = _half_spectra(shape, spectra)
    half = _rfftn(_as_grid(x, shape, "signal"), half)
    half = _along(_pack_axis, half, spare, range(shape.ndim - 1))
    h = shape.dims[-1] // 2
    out = np.empty(shape.n) if out is None else out
    grid = out.reshape(shape.dims)
    grid[..., 0] = half[..., 0].real
    grid[..., 1] = half[..., h].real
    np.multiply(half[..., 1:h].real, _SQRT2, out=grid[..., 2 : h + 1])
    np.multiply(half[..., 1:h].imag, _SQRT2, out=grid[..., h + 1 :])
    return out
