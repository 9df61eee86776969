"""Observation operators: dense oracle equivalence, adjointness, spectrum."""

import tracemalloc
import warnings

import numpy as np
import pytest

from fftlasso import (
    GridShape,
    Mask,
    UnsupportedShapeError,
    analyze,
    default_penalty,
    embed,
    gram,
    lasso_objective,
    observe,
    observe_adjoint,
    synthesize,
    unpack,
)
from fftlasso.diagnostics import (
    SpectrumReport,
    classify_support,
    dense_gram_matrix,
    densify,
    ista_solve,
    soft_threshold,
)
from fftlasso.ipm import IpmState
from fftlasso.pcg import PcgResult

SQRT2 = np.sqrt(2.0)


def empty_mask(n):
    return Mask(np.array([], dtype=np.int64), GridShape((n,)))


class TestMaskValidation:
    def test_basic(self):
        m = Mask(np.array([1, 5]), GridShape((8,)))
        assert m.n_missing == 2 and m.n_observed == 6
        assert m.missing_bool.sum() == 2

    def test_empty_is_legal(self):
        assert empty_mask(8).n_missing == 0

    def test_empty_list_is_legal(self):
        mask = Mask([], GridShape((4,)))
        assert mask.n_missing == 0 and mask.missing.dtype == np.int64

    @pytest.mark.parametrize("missing", [np.array([1.7, 2.2]), np.array([1.0, 2.0]), ["1"]])
    def test_rejects_non_integral_indices(self, missing):
        """Indices that a cast to int64 would truncate or parse are refused."""
        with pytest.raises(ValueError, match="integers"):
            Mask(missing, GridShape((4,)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Mask(np.array([8]), GridShape((8,)))
        with pytest.raises(ValueError):
            Mask(np.array([-1]), GridShape((8,)))

    def test_not_increasing(self):
        with pytest.raises(ValueError):
            Mask(np.array([3, 3]), GridShape((8,)))
        with pytest.raises(ValueError):
            Mask(np.array([5, 2]), GridShape((8,)))

    def test_full_mask_rejected(self):
        with pytest.raises(ValueError):
            Mask(np.arange(8), GridShape((8,)))

    def test_from_bool(self):
        m = Mask.from_bool([0, 1, 0, 0, 1, 0, 0, 0], GridShape((8,)))
        np.testing.assert_array_equal(m.missing, [1, 4])
        with pytest.raises(UnsupportedShapeError):
            Mask.from_bool([0, 1], GridShape((8,)))


#: Factories of the dataclasses that hold arrays, each giving a new object
#: with the same contents on every call.
ARRAY_HOLDERS = {
    "mask-2-missing": lambda: Mask(np.array([1, 5]), GridShape((8,))),
    "mask-1-missing": lambda: Mask(np.array([1]), GridShape((8,))),
    "mask-empty": lambda: empty_mask(8),
    "ipm-state": lambda: IpmState(np.ones(3), np.ones(3), np.ones(3), np.ones(3), 0.1),
    "support": lambda: classify_support(np.array([1.0, -1.0, 0.0])),
    "spectrum": lambda: SpectrumReport(np.ones(3), 1e-6, 3, 3, 1.0, 1.0, 1.0, 0, 1.0, 0.1),
    "pcg-result": lambda: PcgResult(np.ones(3), 1, True, 0.0),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(make):
    """Comparing two such objects never compares their arrays, which would
    raise or answer by accident: they compare, and the frozen ones hash,
    by identity."""
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    if type(a).__dataclass_params__.frozen:
        assert hash(a) == hash(a) != hash(b) and len({a, b}) == 2


class TestObserve:
    def test_empty_mask_is_synthesis(self, rng):
        m = empty_mask(16)
        beta = rng.standard_normal(16)
        np.testing.assert_array_equal(observe(beta, m), synthesize(beta, m.shape))

    def test_single_missing_sample(self):
        # full signal (sqrt2/2)*[1, 0, -1, 0]; sample 1 deleted
        m = Mask(np.array([1]), GridShape((4,)))
        e2 = np.zeros(4)
        e2[2] = 1.0
        np.testing.assert_allclose(
            observe(e2, m), (SQRT2 / 2) * np.array([1, -1, 0]), atol=1e-12
        )

    def test_zero(self):
        m = Mask(np.array([0, 3]), GridShape((8,)))
        out = observe(np.zeros(8), m)
        assert out.shape == (6,)
        assert np.all(out == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(UnsupportedShapeError):
            observe(np.zeros(5), empty_mask(4))


class TestObserveAdjoint:
    def test_empty_mask_inverts(self, rng):
        m = empty_mask(16)
        beta = rng.standard_normal(16)
        np.testing.assert_allclose(
            observe_adjoint(observe(beta, m), m), beta, atol=1e-13
        )

    def test_mostly_missing(self):
        # only sample 0 observed: adjoint of [1] is the analyze of e0
        m = Mask(np.array([1, 2, 3]), GridShape((4,)))
        xi = observe_adjoint(np.array([1.0]), m)
        np.testing.assert_allclose(xi, 0.5 * np.array([1, 1, SQRT2, 0]), atol=1e-12)

    def test_zero(self):
        m = Mask(np.array([2]), GridShape((8,)))
        assert np.all(observe_adjoint(np.zeros(7), m) == 0.0)

    def test_embed_scatter(self):
        m = Mask(np.array([1, 4]), GridShape((6,)))
        full = embed(np.array([10.0, 20.0, 30.0, 40.0]), m)
        np.testing.assert_array_equal(full, [10.0, 0.0, 20.0, 30.0, 0.0, 40.0])

    def test_length_mismatch(self):
        m = Mask(np.array([1]), GridShape((6,)))
        with pytest.raises(UnsupportedShapeError):
            observe_adjoint(np.zeros(6), m)


class TestGram:
    def test_empty_mask_identity(self, rng):
        m = empty_mask(32)
        beta = rng.standard_normal(32)
        np.testing.assert_allclose(gram(beta, m), beta, atol=1e-13)

    def test_matches_two_pass(self, rng):
        m = Mask(np.array([0, 5, 11]), GridShape((16,)))
        beta = rng.standard_normal(16)
        np.testing.assert_allclose(
            gram(beta, m), observe_adjoint(observe(beta, m), m), atol=1e-13
        )

    def test_dense_equivalence_n8(self, rng):
        m = Mask(np.sort(rng.choice(8, 2, replace=False)), GridShape((8,)))
        dense = dense_gram_matrix(m)
        fast = densify(lambda v: gram(v, m), 8)
        assert np.max(np.abs(dense - fast)) <= 1e-12

    @pytest.mark.parametrize("missing", [[], [0, 5, 11]])
    def test_into_given_vector(self, rng, missing):
        m = Mask(np.array(missing, dtype=np.int64), GridShape((4, 4)))
        beta = rng.standard_normal(16)
        out = np.full(16, np.nan)
        assert gram(beta, m, out=out) is out
        assert out.tobytes() == gram(beta, m).tobytes()

    def test_matches_a_fresh_grid_bit_for_bit(self, rng):
        """Synthesizing into the output and analyzing it over itself rounds
        as the transforms do on a separate grid."""
        g = GridShape((8, 6, 4))
        m = Mask.from_bool(rng.random(g.n) < 0.3, g)
        beta = rng.standard_normal(g.n)
        x = synthesize(beta, g)
        x[m.missing] = 0.0
        assert gram(beta, m).tobytes() == analyze(x, g).tobytes()

    def test_peak_memory(self, rng):
        """Into a given vector, a 64^3 Gram product holds no n-vector beyond
        the transforms' half spectra (2.06 n-vectors at 64^3); without one,
        only its result besides; with lent half spectra too, only numpy's
        ufunc buffers, a fixed 0.4 MB (0.19 n-vectors here), which at 32^3
        would be 1.5 n-vectors and hide the grids counted."""
        g = GridShape((64, 64, 64))
        m = Mask.from_bool(rng.random(g.n) < 0.15, g)
        beta = rng.standard_normal(g.n)
        out = np.empty(g.n)
        lent = tuple(np.empty((2,) + g.half, dtype=np.complex128))
        gram(beta, m, out=out)  # first-call allocations of numpy.fft stay out of the peak
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            peaks = []
            for given, spectra in ((out, None), (None, None), (out, lent)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                result = gram(beta, m, out=given, spectra=spectra)
                peaks.append((tracemalloc.get_traced_memory()[1] - before) / (8 * g.n))
                del result
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peaks[0] <= 2.5
        assert peaks[1] <= 3.5
        assert peaks[2] < 0.3

    @pytest.mark.parametrize("dims", [(16,), (6, 10), (8, 6, 4), (40, 40, 40)])
    def test_lent_spectra_match_new_ones(self, rng, dims):
        """With half spectra lent as a solve lends them, from padded rows
        one of which holds the output on 1-D and 3-D grids, the product has
        the allocating call's bits; on 2-D grids the passes end in the
        second half spectrum, which is therefore a separate one."""
        g = GridShape(dims)
        m = Mask.from_bool(rng.random(g.n) < 0.3, g)
        beta = rng.standard_normal(g.n)
        beta[rng.integers(0, g.n, 4)] = -0.0
        rows = np.full((2, 2 * int(np.prod(g.half))), np.nan)
        first, second = (row.view(np.complex128).reshape(g.half) for row in rows)
        if g.ndim == 2:
            second = np.full(g.half, np.nan + 0j)
        out = rows[1, :g.n]
        assert gram(beta, m, out=out, spectra=(first, second)) is out
        assert out.view(np.uint64).tobytes() == gram(beta, m).view(np.uint64).tobytes()

    def test_spectrum_in_unit_interval(self, rng):
        for n, k in [(16, 3), (32, 8)]:
            m = Mask(np.sort(rng.choice(n, k, replace=False)), GridShape((n,)))
            eigs = np.linalg.eigvalsh(dense_gram_matrix(m))
            assert eigs[0] >= -1e-12
            assert eigs[-1] <= 1.0 + 1e-12


def test_adjoint_pairing(rng):
    """<observe(beta), w> == <beta, observe_adjoint(w)> for random vectors."""
    m = Mask(np.sort(rng.choice(24, 5, replace=False)), GridShape((24,)))
    for _ in range(5):
        beta = rng.standard_normal(24)
        w = rng.standard_normal(m.n_observed)
        lhs = observe(beta, m) @ w
        rhs = beta @ observe_adjoint(w, m)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_projector_identity(rng):
    """Observed and missing Gram matrices partition the identity."""
    for n, k in [(8, 3), (32, 6)]:
        g = GridShape((n,))
        missing = np.sort(rng.choice(n, k, replace=False))
        m = Mask(missing, g)
        a = densify(lambda v: synthesize(v, g), n)
        m_rows = a[missing, :]
        gram_missing = m_rows.T @ m_rows
        gram_observed = dense_gram_matrix(m)
        assert np.max(np.abs(gram_observed + gram_missing - np.eye(n))) <= 1e-12


def test_operator_norm_bounded(rng):
    m = Mask(np.sort(rng.choice(32, 7, replace=False)), GridShape((32,)))
    dense = densify(lambda v: gram(v, m), 32)
    assert np.linalg.norm(dense, 2) <= 1.0 + 1e-12


#: Each entry point that casts samples ``b``, coefficients ``beta`` or a
#: signal to float64, called with complex ones.
COMPLEX_CALLS = {
    "observe": lambda beta, b, mask: observe(beta, mask),
    "observe_adjoint": lambda beta, b, mask: observe_adjoint(b, mask),
    "embed": lambda beta, b, mask: embed(b, mask),
    "gram": lambda beta, b, mask: gram(beta, mask),
    "default_penalty": lambda beta, b, mask: default_penalty(b, mask),
    "lasso_objective-beta": lambda beta, b, mask: lasso_objective(beta, b.real, mask, 0.1),
    "lasso_objective-b": lambda beta, b, mask: lasso_objective(beta.real, b, mask, 0.1),
    "synthesize": lambda beta, b, mask: synthesize(beta, mask.shape),
    "analyze": lambda beta, b, mask: analyze(beta, mask.shape),
    "unpack": lambda beta, b, mask: unpack(beta, mask.shape),
    "soft_threshold": lambda beta, b, mask: soft_threshold(beta, 0.1),
    "classify_support": lambda beta, b, mask: classify_support(beta),
    "ista_solve": lambda beta, b, mask: ista_solve(b, mask, 0.1),
}


@pytest.mark.parametrize("missing", [[], [1, 6]], ids=["empty", "masked"])
@pytest.mark.parametrize("name", COMPLEX_CALLS)
def test_complex_input_is_rejected(name, missing):
    """A complex array is refused with ``ValueError``, not cast to real with
    a ``ComplexWarning`` that drops its imaginary part; a zero imaginary
    part is refused too, by dtype, as ``solve`` does."""
    mask = Mask(np.array(missing, dtype=np.int64), GridShape((8,)))
    for imag in (1.0, 0.0):
        beta = np.ones(mask.shape.n) + imag * 1j
        b = np.ones(mask.n_observed) + imag * 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real"):
                COMPLEX_CALLS[name](beta, b, mask)


@pytest.mark.parametrize("length", [1, 6, 7, 8])
def test_lasso_objective_checks_the_sample_count(length):
    """``b`` must hold ``mask.n_observed`` samples, as for :func:`embed`: a
    shorter or longer ``b`` is refused, not broadcast against the observed
    vector."""
    mask = Mask(np.array([3]), GridShape((8,)))
    b = np.ones(length)
    if length == mask.n_observed:
        assert lasso_objective(np.zeros(8), b, mask, 0.1) == 3.5
        return
    with pytest.raises(UnsupportedShapeError, match="mask expects 7"):
        lasso_objective(np.zeros(8), b, mask, 0.1)
    with pytest.raises(UnsupportedShapeError, match="mask expects 7"):
        embed(b, mask)
