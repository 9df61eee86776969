"""Packing transform: hand values, dense equivalence, orthogonality."""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import fftlasso
from fftlasso import (
    GridShape,
    MalformedSpectrumError,
    Mask,
    UnsupportedShapeError,
    analyze,
    fourier,
    pack,
    synthesize,
    unpack,
)
from fftlasso.diagnostics import dense_synthesis_matrix, densify
from fftlasso.masking import gram

from conftest import same_bits

SQRT2 = np.sqrt(2.0)


class TestGridShape:
    def test_valid(self):
        g = GridShape((4, 6, 8))
        assert g.n == 192
        assert g.ndim == 3

    def test_size_does_not_wrap(self):
        """2^32 x 2^32 has 2^64 samples, which int64 would wrap to 0."""
        assert GridShape((2**32, 2**32)).n == 2**64

    @pytest.mark.parametrize("dims", [(5,), (4, 7), (3, 3, 3), (0,), (2, 2, 2, 2), (), 64, None,
                                      4.0])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(UnsupportedShapeError):
            GridShape(dims)

    @pytest.mark.parametrize("dims", [(8.5, 8), (8.0, 8), ("8",), (np.float64(4),)])
    def test_rejects_non_integer_extents(self, dims):
        """An extent that ``int()`` would truncate or parse is no extent."""
        with pytest.raises(UnsupportedShapeError, match="integers"):
            GridShape(dims)

    def test_accepts_numpy_integer_extents(self):
        g = GridShape((np.int64(8), np.uint16(4)))
        assert g.dims == (8, 4) and all(type(d) is int for d in g.dims)


class TestPackUnpack:
    def test_pack_constant_spectrum(self):
        # spectrum of the unit impulse on 4 points
        beta = pack(0.5 * np.ones(4, dtype=complex), GridShape((4,)))
        np.testing.assert_allclose(beta, [0.5, 0.5, 0.70710678, 0.0], atol=1e-8)

    def test_pack_zero(self):
        beta = pack(np.zeros(8, dtype=complex), GridShape((8,)))
        assert np.all(beta == 0.0)

    def test_pack_ramp_spectrum(self):
        # spectrum of x = [1, 2, 3, 4] under the unitary transform
        v = np.array([5.0, -1.0 + 1.0j, -1.0, -1.0 - 1.0j])
        beta = pack(v, GridShape((4,)))
        np.testing.assert_allclose(beta, [5.0, -1.0, -1.41421356, 1.41421356], atol=1e-8)

    def test_unpack_constant(self):
        v = unpack(np.array([0.5, 0.5, 0.70710678, 0.0]), GridShape((4,)))
        np.testing.assert_allclose(v, 0.5 * np.ones(4), atol=1e-8)

    def test_unpack_unit_vector(self):
        v = unpack(np.array([1.0, 0.0, 0.0, 0.0]), GridShape((4,)))
        np.testing.assert_allclose(v, [1.0, 0.0, 0.0, 0.0], atol=0)

    def test_unpack_ramp(self):
        v = unpack(np.array([5.0, -1.0, -SQRT2, SQRT2]), GridShape((4,)))
        np.testing.assert_allclose(v, [5.0, -1.0 + 1.0j, -1.0, -1.0 - 1.0j], atol=1e-12)

    def test_mutual_inverse_1d(self, rng):
        g = GridShape((32,))
        beta = rng.standard_normal(g.n)
        np.testing.assert_allclose(pack(unpack(beta, g), g), beta, rtol=0, atol=1e-15)

    def test_mutual_inverse_3d(self, rng):
        g = GridShape((4, 6, 4))
        beta = rng.standard_normal(g.n)
        np.testing.assert_allclose(pack(unpack(beta, g), g), beta, rtol=0, atol=1e-15)

    def test_pack_rejects_asymmetric(self):
        v = np.array([1.0, 2.0 + 1.0j, 0.0, 99.0], dtype=complex)
        with pytest.raises(MalformedSpectrumError):
            pack(v, GridShape((4,)))

    def test_pack_rejects_complex_dc(self):
        with pytest.raises(MalformedSpectrumError):
            pack(np.array([1.0j, 0, 0, 0]), GridShape((4,)))

    def test_pack_tolerates_roundoff(self, rng):
        g = GridShape((16,))
        v = unpack(rng.standard_normal(16), g)
        v = v + 1e-13 * np.max(np.abs(v)) * 1j
        pack(v, g)  # within tolerance, must not raise

    def test_size_mismatch(self):
        with pytest.raises(UnsupportedShapeError):
            pack(np.zeros(5, dtype=complex), GridShape((4,)))


class TestSynthesize:
    def test_impulse(self):
        x = synthesize(np.array([0.5, 0.5, 0.70710678, 0.0]), GridShape((4,)))
        np.testing.assert_allclose(x, [1.0, 0.0, 0.0, 0.0], atol=1e-8)

    def test_zero(self):
        assert np.all(synthesize(np.zeros(16), GridShape((16,))) == 0.0)

    def test_single_cosine_mode(self):
        e2 = np.zeros(4)
        e2[2] = 1.0
        x = synthesize(e2, GridShape((4,)))
        np.testing.assert_allclose(x, (SQRT2 / 2) * np.array([1, 0, -1, 0]), atol=1e-12)


class TestAnalyze:
    def test_unit_sample(self):
        xi = analyze(np.array([1.0, 0.0, 0.0, 0.0]), GridShape((4,)))
        np.testing.assert_allclose(xi, 0.5 * np.array([1, 1, SQRT2, 0]), atol=1e-12)

    def test_zero(self):
        assert np.all(analyze(np.zeros(8), GridShape((8,))) == 0.0)

    def test_transpose_of_synthesize(self, rng):
        g = GridShape((8, 6))
        beta = rng.standard_normal(g.n)
        np.testing.assert_allclose(analyze(synthesize(beta, g), g), beta, atol=1e-13)


@pytest.mark.parametrize("dims", [(2,), (16,), (64,), (8, 8), (4, 2, 6),
                                  (2, 4), (6, 2), (2, 2, 2), (8, 2, 4), (4, 6, 8)])
def test_dense_equivalence(dims, rng):
    """FFT path agrees entrywise with the trig-formula matrix.

    Length-2 leading axes have no Re/Im pairs, the edge case of the
    leading-axis packing of the half spectrum.
    """
    g = GridShape(dims)
    a = dense_synthesis_matrix(g)
    a_fast = densify(lambda v: synthesize(v, g), g.n)
    at_fast = densify(lambda v: analyze(v, g), g.n)
    assert np.max(np.abs(a - a_fast)) <= 1e-12
    assert np.max(np.abs(a.T - at_fast)) <= 1e-12
    x = rng.standard_normal(g.n)
    full = pack(scipy.fft.fftn(x.reshape(dims), norm="ortho"), g)
    assert np.max(np.abs(analyze(x, g) - full)) <= 1e-12


@pytest.mark.parametrize("dims", [(4,), (1 << 20,), (32, 32, 32), (64, 64), (2, 2)])
def test_orthogonality_and_isometry(dims, rng):
    g = GridShape(dims)
    beta = rng.standard_normal(g.n)
    x = synthesize(beta, g)
    err = np.max(np.abs(analyze(x, g) - beta))
    assert err <= 1e-12 * np.max(np.abs(beta))
    assert abs(np.linalg.norm(x) - np.linalg.norm(beta)) <= 1e-12 * np.linalg.norm(beta)


def test_sparsity_correspondence(rng):
    """Zero packed slots of a frequency pair exactly zero the spectrum there."""
    g = GridShape((16,))
    h = g.n // 2
    beta = np.zeros(g.n)
    live = [0, 3, 11]  # slots: DC, one Re slot, one Im slot
    beta[live] = rng.standard_normal(len(live))
    v = unpack(beta, g)
    assert v[0] != 0 and v[h] == 0
    for k in range(1, h):
        slots = beta[[k + 1, k + h]]
        if np.all(slots == 0.0):
            assert v[k] == 0.0 and v[g.n - k] == 0.0
        else:
            assert v[k] != 0.0 and v[g.n - k] != 0.0


@settings(deadline=None, max_examples=30)
@given(
    axes=st.lists(st.sampled_from([2, 4, 6, 8, 10]), min_size=1, max_size=3),
    seed=st.integers(0, 2**31),
)
def test_roundtrip_property(axes, seed):
    g = GridShape(tuple(axes))
    beta = np.random.default_rng(seed).standard_normal(g.n)
    back = analyze(synthesize(beta, g), g)
    assert np.max(np.abs(back - beta)) <= 1e-12 * max(1.0, np.max(np.abs(beta)))


def _bits(values):
    return np.asarray(values).view(np.uint64)  # equal bits, the sign of zero included


@pytest.mark.parametrize("dims", [(8,), (48,), (6, 10), (16, 8), (30, 32),
                                  (32, 32, 32), (64, 64, 64), (256, 256)])
def test_bit_identical_to_scipy_transform(dims, rng, monkeypatch):
    """The numpy.fft passes reproduce the scipy.fft ``rfftn``/``irfftn``
    (``norm="ortho"``) packed transform byte for byte, on grids whose
    ``sqrt`` factors are inexact too; the reference runs the package's
    packing around scipy's transform."""
    g = GridShape(dims)
    beta = rng.standard_normal(g.n)
    beta[rng.integers(0, g.n, 3)] = 0.0
    got = synthesize(beta, g), analyze(beta, g)

    def scipy_rfftn(grid, out):
        out[...] = scipy.fft.rfftn(grid, norm="ortho", workers=1)
        return out

    def scipy_irfftn(half, s, out):
        out[...] = scipy.fft.irfftn(half, s=s, norm="ortho", workers=1)
        return out

    monkeypatch.setattr(fourier, "_rfftn", scipy_rfftn)
    monkeypatch.setattr(fourier, "_irfftn", scipy_irfftn)
    want = synthesize(beta, g), analyze(beta, g)
    np.testing.assert_array_equal(_bits(got[0]), _bits(want[0]))
    np.testing.assert_array_equal(_bits(got[1]), _bits(want[1]))


def test_analyze_into_given_vector(rng):
    g = GridShape((6, 10))
    x = rng.standard_normal(g.n)
    out = np.empty(g.n)
    assert analyze(x, g, out=out) is out
    np.testing.assert_array_equal(_bits(out), _bits(analyze(x, g)))
    for bad in (np.empty(g.n + 1), np.empty(2 * g.n)[::2], np.empty(g.n, np.float32)):
        with pytest.raises(ValueError, match="contiguous float64 vector of 60"):
            analyze(x, g, out=bad)


@pytest.mark.parametrize("dims", [(8,), (6, 10), (4, 6, 8)])
def test_synthesize_into_given_vector(dims, rng):
    g = GridShape(dims)
    beta = rng.standard_normal(g.n)
    want = synthesize(beta, g)
    out = np.full(g.n, np.nan)
    assert synthesize(beta, g, out=out) is out
    np.testing.assert_array_equal(_bits(out), _bits(want))
    over = beta.copy()  # the coefficients are read before the signal is written
    assert synthesize(over, g, out=over) is over
    np.testing.assert_array_equal(_bits(over), _bits(want))
    for bad in (np.empty(g.n + 1), np.empty(2 * g.n)[::2], np.empty(g.n, np.float32)):
        with pytest.raises(ValueError, match=f"contiguous float64 vector of {g.n}"):
            synthesize(beta, g, out=bad)


def _garbage_spectra(g):
    """Two half spectra full of NaN, which a transform must overwrite before reading."""
    pair = np.full((2,) + g.half, np.nan + 1j * np.nan)
    return pair[0], pair[1]


@pytest.mark.parametrize("dims", [(8,), (6, 10), (4, 6, 8), (40, 40, 40)])
def test_lent_spectra_match_new_ones(dims, rng):
    """With lent half spectra both transforms give the allocating calls'
    bits, signed zeros included, and ``out`` may share memory with the half
    spectrum the leading-axis passes do not end in: the second on 1-D and
    3-D grids (an even number of passes), the first on 2-D grids."""
    g = GridShape(dims)
    values = rng.standard_normal(g.n)
    values[rng.integers(0, g.n, 4)] = -0.0
    free = 0 if g.ndim == 2 else 1
    for transform in (synthesize, analyze):
        want = transform(values, g)
        assert same_bits(transform(values, g, spectra=_garbage_spectra(g)), want)
        spectra = _garbage_spectra(g)
        out = spectra[free].view(np.float64).reshape(-1)[:g.n]
        assert transform(values, g, out=out, spectra=spectra) is out
        assert same_bits(out, want)


def test_lent_spectra_are_checked():
    g = GridShape((4, 6))
    good = _garbage_spectra(g)
    for bad in (good[:1], (good[0], good[1][:, :-1]), (good[0], good[1].real.copy())):
        for transform in (synthesize, analyze):
            with pytest.raises(ValueError, match=r"two complex128 arrays of shape \(4, 4\)"):
                transform(np.zeros(g.n), g, spectra=bad)


def test_package_import_loads_no_scipy():
    """The package runs on numpy alone: importing ``fftlasso``,
    ``fftlasso.cli`` and ``fftlasso.diagnostics`` and probing an iterate's
    spectrum load no scipy module.  scipy serves only the tests."""
    src = str(Path(fftlasso.__file__).resolve().parent.parent)
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import fftlasso, fftlasso.cli
        from fftlasso.diagnostics import preconditioned_spectrum, soft_threshold
        from fftlasso.ipm import IpmState
        s1, s2, nu1, nu2 = np.random.default_rng(0).random((4, 8)) + 0.3
        state = IpmState(s1, s2, nu1, nu2, mu=0.05)
        probe = preconditioned_spectrum(state, fftlasso.Mask(np.array([1, 5]),
                                                             fftlasso.GridShape((8,))))
        assert probe.eigenvalues.shape == (16,) and probe.kappa_observed >= 1.0
        assert soft_threshold(state.beta, 0.1).shape == (8,)
        print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, cwd=src,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


def test_concurrent_gram_matches_serial(rng):
    """Threads sharing one grid get the serial results bit for bit."""
    g = GridShape((16, 16, 16))
    mask = Mask.from_bool(rng.random(g.n) < 0.15, g)
    inputs = [rng.standard_normal(g.n) for _ in range(4)]
    serial = [gram(beta, mask) for beta in inputs]
    results = [[] for _ in inputs]

    def work(k):
        for _ in range(20):
            results[k].append(gram(inputs[k], mask))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for expected, got in zip(serial, results):
        assert len(got) == 20
        for value in got:
            np.testing.assert_array_equal(value, expected)
