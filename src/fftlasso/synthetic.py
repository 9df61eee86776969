"""Synthetic test problems: product-of-harmonics signal, noise, mask."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import GridShape
from .masking import Mask

__all__ = ["SyntheticSpec", "generate_synthetic"]

# per-axis frequency multipliers of the truth signal
_AXIS_MULTIPLIERS = (1, 2, 3)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible noisy problem with missing samples."""

    dims: tuple[int, ...]
    noise_seed: int = 0
    missing_fraction: float = 0.15
    missing_seed: int = 1

    def __post_init__(self):
        if not 0.0 <= self.missing_fraction < 1.0:
            raise ValueError("missing_fraction must lie in [0, 1)")


def _truth(shape: GridShape) -> np.ndarray:
    """Separable cosine-plus-twice-sine product signal on the grid."""
    x = np.ones(shape.dims)
    for axis, (extent, mult) in enumerate(zip(shape.dims, _AXIS_MULTIPLIERS)):
        t = np.arange(extent)
        phase = 2.0 * np.pi * mult * t / extent
        factor = np.cos(phase) + 2.0 * np.sin(phase)
        dims = [1] * shape.ndim
        dims[axis] = extent
        x = x * factor.reshape(dims)
    return x.reshape(-1)


def generate_synthetic(spec: SyntheticSpec) -> tuple[np.ndarray, Mask, np.ndarray]:
    """Build (noisy signal, mask, truth signal), all deterministic in seeds.

    The noise is iid uniform on [0, 1) added elementwise, not centered.
    Missing samples are drawn independently per index with probability
    ``missing_fraction``, in one draw; if every sample comes out missing,
    one drawn from the same generator is kept, so at least one is observed.
    """
    shape = GridShape(spec.dims)
    truth = _truth(shape)
    noise_rng = np.random.default_rng(spec.noise_seed)
    noisy = truth + noise_rng.random(shape.n)

    mask_rng = np.random.default_rng(spec.missing_seed)
    flags = mask_rng.random(shape.n) < spec.missing_fraction
    if flags.all():
        flags[mask_rng.integers(shape.n)] = False
    return noisy, Mask.from_bool(flags, shape), truth
