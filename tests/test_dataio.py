"""File formats and the synthetic problem generator."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fftlasso
from fftlasso import GridShape, Mask
from fftlasso.dataio import read_mask, read_volume, sidecar_path, write_mask, write_volume
from fftlasso.synthetic import SyntheticSpec, generate_synthetic


# each would be read as some grid, or fail with a TypeError, without the check
BAD_DIMS = [5, None, [4.5, 4], [4.0, 4], ["4", 4]]


class TestVolumeFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        values = rng.standard_normal(4 * 6 * 2)
        path = str(tmp_path / "vol.f64")
        write_volume(path, values, (4, 6, 2))
        back, dims = read_volume(path)
        assert dims == (4, 6, 2)
        assert back.tobytes() == values.tobytes()

    def test_payload_length_checked_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_volume(str(tmp_path / "v"), np.zeros(5), (4,))

    @pytest.mark.parametrize("dims", [[], [0], [-2, -3], (2.5, 3), (True, 6)])
    def test_bad_dims_rejected_on_write(self, tmp_path, dims):
        """Dims that the header check refuses, or that ``int()`` would
        truncate, are refused before any file is opened, even with the
        payload that their truncated product expects."""
        path = tmp_path / "v.f64"
        with pytest.raises(ValueError, match="dims"):
            write_volume(str(path), np.zeros(math.prod(int(d) for d in dims)), dims)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("imag", [1.0, 0.0])
    def test_complex_samples_rejected_on_write(self, tmp_path, imag):
        """A complex array is refused, not written as its real part after a
        ``ComplexWarning``; nothing is written."""
        path = tmp_path / "v.f64"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real"):
                write_volume(str(path), np.ones(4) + imag * 1j, (4,))
        assert not path.exists()

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "orphan.f64"
        np.zeros(4).tofile(path)
        with pytest.raises(ValueError, match="sidecar"):
            read_volume(str(path))

    def test_malformed_sidecar(self, tmp_path):
        path = tmp_path / "bad.f64"
        np.zeros(4).tofile(path)
        (tmp_path / "bad.f64.json").write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            read_volume(str(path))

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "short.f64"
        np.zeros(3).tofile(path)
        (tmp_path / "short.f64.json").write_text(
            json.dumps({"dims": [4], "order": "row-major", "dtype": "f64-le"})
        )
        with pytest.raises(ValueError, match="samples"):
            read_volume(str(path))

    def test_huge_dims_do_not_wrap(self, tmp_path):
        """2^32 x 2^32 expects 2^64 samples, not the 0 that int64 wraps to."""
        path = tmp_path / "huge.f64"
        path.write_bytes(b"")
        (tmp_path / "huge.f64.json").write_text(
            json.dumps({"dims": [2**32, 2**32], "order": "row-major", "dtype": "f64-le"})
        )
        with pytest.raises(ValueError, match=f"expect {2**64}"):
            read_volume(str(path))
        with pytest.raises(ValueError, match=f"got 0 values, expected {2**64}"):
            write_volume(str(tmp_path / "w.f64"), np.zeros(0), (2**32, 2**32))
        assert not (tmp_path / "w.f64").exists()

    def test_trailing_partial_sample(self, tmp_path):
        path = tmp_path / "long.f64"
        path.write_bytes(np.zeros(4).tobytes() + b"\x00" * 3)
        (tmp_path / "long.f64.json").write_text(
            json.dumps({"dims": [4], "order": "row-major", "dtype": "f64-le"})
        )
        with pytest.raises(ValueError, match="whole number"):
            read_volume(str(path))

    @pytest.mark.parametrize("dims", BAD_DIMS)
    def test_bad_dims_in_sidecar(self, tmp_path, dims):
        path = tmp_path / "v.f64"
        np.zeros(16).tofile(path)
        (tmp_path / "v.f64.json").write_text(
            json.dumps({"dims": dims, "order": "row-major", "dtype": "f64-le"})
        )
        with pytest.raises(ValueError, match="dims"):
            read_volume(str(path))

    def test_sidecar_without_dims(self, tmp_path):
        path = tmp_path / "v.f64"
        np.zeros(4).tofile(path)
        (tmp_path / "v.f64.json").write_text(
            json.dumps({"order": "row-major", "dtype": "f64-le"}))
        with pytest.raises(ValueError, match="missing 'dims'"):
            read_volume(str(path))

    def test_unsupported_order(self, tmp_path):
        path = tmp_path / "v.f64"
        np.zeros(4).tofile(path)
        (tmp_path / "v.f64.json").write_text(
            json.dumps({"dims": [4], "order": "column-major", "dtype": "f64-le"}))
        with pytest.raises(ValueError, match="order"):
            read_volume(str(path))

    def test_unknown_dtype(self, tmp_path):
        path = tmp_path / "odd.f64"
        np.zeros(4).tofile(path)
        (tmp_path / "odd.f64.json").write_text(
            json.dumps({"dims": [4], "order": "row-major", "dtype": "f32-le"})
        )
        with pytest.raises(ValueError, match="dtype"):
            read_volume(str(path))


class TestMaskFile:
    @pytest.mark.parametrize("fmt", ["indices", "bytemask"])
    def test_round_trip(self, tmp_path, fmt):
        mask = Mask(np.array([1, 5, 6]), GridShape((4, 2)))
        path = str(tmp_path / f"mask.{fmt}")
        write_mask(path, mask, fmt=fmt)
        back = read_mask(path)
        np.testing.assert_array_equal(back.missing, mask.missing)
        assert back.shape.dims == mask.shape.dims

    def test_sidecar_contents(self, tmp_path):
        mask = Mask(np.array([0]), GridShape((4,)))
        path = str(tmp_path / "m")
        write_mask(path, mask)
        header = json.loads(open(sidecar_path(path)).read())
        assert header == {"format": "indices", "dims": [4]}

    def test_write_unknown_format(self, tmp_path):
        path = tmp_path / "m"
        with pytest.raises(ValueError, match="format"):
            write_mask(str(path), Mask(np.array([1]), GridShape((4,))), fmt="other")
        assert not path.exists() and not (tmp_path / "m.json").exists()

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "m"
        np.zeros(1, dtype="<u8").tofile(path)
        (tmp_path / "m.json").write_text(json.dumps({"format": "bitmap", "dims": [4]}))
        with pytest.raises(ValueError, match="format"):
            read_mask(str(path))

    def test_trailing_partial_index(self, tmp_path):
        """Three bytes are no index at all, not an empty mask."""
        path = tmp_path / "m"
        path.write_bytes(b"\x01\x00\x00")
        (tmp_path / "m.json").write_text(json.dumps({"format": "indices", "dims": [4]}))
        with pytest.raises(ValueError, match="whole number"):
            read_mask(str(path))

    @pytest.mark.parametrize("dims", BAD_DIMS)
    def test_bad_dims_in_sidecar(self, tmp_path, dims):
        path = tmp_path / "m"
        np.array([1], dtype="<u8").tofile(path)
        (tmp_path / "m.json").write_text(json.dumps({"format": "indices", "dims": dims}))
        with pytest.raises(ValueError, match="dims"):
            read_mask(str(path))

    def test_bytemask_size_checked(self, tmp_path):
        path = tmp_path / "m"
        np.zeros(3, dtype=np.uint8).tofile(path)
        (tmp_path / "m.json").write_text(json.dumps({"format": "bytemask", "dims": [4]}))
        with pytest.raises(ValueError):
            read_mask(str(path))


class TestGenerator:
    def test_truth_at_origin_is_one(self):
        _, _, truth = generate_synthetic(SyntheticSpec(dims=(8, 8, 8)))
        assert truth[0] == pytest.approx(1.0)

    def test_truth_formula_spot_check(self):
        dims = (8, 4, 6)
        _, _, truth = generate_synthetic(SyntheticSpec(dims=dims))
        i, j, k = 3, 1, 2
        factors = []
        for extent, mult, t in zip(dims, (1, 2, 3), (i, j, k)):
            phase = 2 * np.pi * mult * t / extent
            factors.append(np.cos(phase) + 2 * np.sin(phase))
        flat = (i * dims[1] + j) * dims[2] + k
        assert truth[flat] == pytest.approx(np.prod(factors))

    def test_zero_missing_fraction(self):
        _, mask, _ = generate_synthetic(SyntheticSpec(dims=(8, 8), missing_fraction=0.0))
        assert mask.n_missing == 0

    def test_deterministic(self):
        spec = SyntheticSpec(dims=(8, 8), noise_seed=5, missing_seed=6)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a[0].tobytes() == b[0].tobytes()
        np.testing.assert_array_equal(a[1].missing, b[1].missing)
        assert a[2].tobytes() == b[2].tobytes()

    def test_missing_fraction_plausible(self):
        _, mask, _ = generate_synthetic(
            SyntheticSpec(dims=(16, 16, 16), missing_fraction=0.15)
        )
        frac = mask.n_missing / mask.shape.n
        assert 0.10 <= frac <= 0.20

    def test_noise_is_uniform_unit_interval(self):
        noisy, _, truth = generate_synthetic(SyntheticSpec(dims=(16, 16)))
        noise = noisy - truth
        assert np.all(noise >= 0.0) and np.all(noise < 1.0)

    def test_all_missing_draw_keeps_one_sample(self):
        """A fraction near 1 draws the mask once and keeps one sample, where
        redrawing until one is observed would take about 1e12 draws."""
        src = str(Path(fftlasso.__file__).resolve().parent.parent)
        code = ("from fftlasso.synthetic import SyntheticSpec, generate_synthetic\n"
                "spec = SyntheticSpec(dims=(2,), missing_fraction=1 - 1e-12)\n"
                "print(generate_synthetic(spec)[1].n_observed)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=True, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "1"

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            SyntheticSpec(dims=(8,), missing_fraction=1.0)
