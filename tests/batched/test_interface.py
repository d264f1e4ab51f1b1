"""Tests for the expanded-interface batch container."""

import numpy as np
import pytest

from repro.batched import IrrBatch


class TestConstruction:
    def test_from_host_mixed_sizes(self, a100, rng):
        mats = [rng.standard_normal((m, n))
                for m, n in [(1, 1), (5, 3), (64, 64), (2, 100)]]
        b = IrrBatch.from_host(a100, mats)
        assert len(b) == 4
        assert b.m_vec.tolist() == [1, 5, 64, 2]
        assert b.n_vec.tolist() == [1, 3, 64, 100]

    def test_zeros(self, a100):
        b = IrrBatch.zeros(a100, [3, 7], [4, 2])
        assert b.matrix(1).shape == (7, 2)
        assert np.all(b.matrix(0) == 0)

    def test_length_mismatch_raises(self, a100):
        arr = a100.zeros((3, 3))
        with pytest.raises(ValueError, match="equal length"):
            IrrBatch(a100, [arr], np.array([3, 3]), np.array([3]))

    def test_negative_dims_raise(self, a100):
        arr = a100.zeros((3, 3))
        with pytest.raises(ValueError, match="nonnegative"):
            IrrBatch(a100, [arr], np.array([-1]), np.array([3]))

    def test_buffer_smaller_than_local_dims_raises(self, a100):
        arr = a100.zeros((3, 3))
        with pytest.raises(ValueError, match="smaller than local dims"):
            IrrBatch(a100, [arr], np.array([5]), np.array([3]))

    def test_cross_device_rejected(self, a100, mi100):
        arr = mi100.zeros((3, 3))
        with pytest.raises(ValueError, match="different device"):
            IrrBatch(a100, [arr], np.array([3]), np.array([3]))

    def test_leading_dimension_buffers_allowed(self, a100):
        # lda > m: the matrix lives in a larger buffer, as the paper's
        # lda_vec permits.
        arr = a100.zeros((10, 10))
        b = IrrBatch(a100, [arr], np.array([4]), np.array([6]))
        assert b.matrix(0).shape == (4, 6)

    def test_empty_batch(self, a100):
        b = IrrBatch(a100, [], np.array([], dtype=np.int64),
                     np.array([], dtype=np.int64))
        assert len(b) == 0
        assert b.max_m == 0
        assert b.max_min_mn == 0


class TestDimensions:
    def test_max_dims(self, a100, rng):
        b = IrrBatch.from_host(a100, [rng.standard_normal((m, n))
                                      for m, n in [(3, 9), (8, 2), (5, 5)]])
        assert b.max_m == 8
        assert b.max_n == 9
        # max over min(m, n) = max(3, 2, 5)
        assert b.max_min_mn == 5

    def test_total_elements(self, a100):
        b = IrrBatch.zeros(a100, [2, 3], [4, 5])
        assert b.total_elements() == 2 * 4 + 3 * 5


class TestSubviews:
    def test_sub_is_a_view(self, a100, rng):
        b = IrrBatch.from_host(a100, [rng.standard_normal((6, 6))])
        sub = b.sub(0, 2, 3, 2, 2)
        sub[...] = 42.0
        assert np.all(b.matrix(0)[2:4, 3:5] == 42.0)

    def test_sub_matches_offset_arithmetic(self, a100):
        host = np.arange(36.0).reshape(6, 6)
        b = IrrBatch.from_host(a100, [host])
        assert b.sub(0, 1, 2, 2, 3).tolist() == host[1:3, 2:5].tolist()


class TestTransfersAndCopy:
    def test_to_host_roundtrip(self, a100, rng):
        mats = [rng.standard_normal((4, 7)), rng.standard_normal((2, 2))]
        b = IrrBatch.from_host(a100, mats)
        out = b.to_host()
        for got, want in zip(out, mats):
            np.testing.assert_array_equal(got, want)

    def test_copy_is_independent(self, a100, rng):
        b = IrrBatch.from_host(a100, [rng.standard_normal((3, 3))])
        c = b.copy()
        c.matrix(0)[...] = 0.0
        assert not np.all(b.matrix(0) == 0.0)

    def test_free_releases_memory(self, a100):
        before = a100.allocated_bytes
        b = IrrBatch.zeros(a100, [100], [100])
        assert a100.allocated_bytes > before
        b.free()
        assert a100.allocated_bytes == before

    def test_1d_host_input_promoted(self, a100):
        b = IrrBatch.from_host(a100, [np.ones(5)])
        assert b.matrix(0).shape == (1, 5)


BOTH = pytest.mark.parametrize("ctor", ["from_host", "from_host_packed"])


class TestDtypeRule:
    """One dtype rule for both host constructors, checked before any
    upload."""

    @BOTH
    def test_rejected_dtype_uploads_nothing(self, a100, ctor):
        before = a100.allocated_bytes
        mats = [np.ones((5, 5)), np.ones((2, 2))]
        with pytest.raises(ValueError, match="unsupported data type"):
            getattr(IrrBatch, ctor)(a100, mats, dtype=np.int32)
        assert a100.allocated_bytes == before

    @BOTH
    def test_mixed_dtypes_upload_nothing(self, a100, ctor):
        before = a100.allocated_bytes
        mats = [np.ones((3, 3), dtype=np.float32), np.ones((3, 3))]
        with pytest.raises(ValueError, match="mixed data types"):
            getattr(IrrBatch, ctor)(a100, mats)
        assert a100.allocated_bytes == before

    @BOTH
    def test_real_dtype_for_complex_input_raises(self, a100, ctor):
        before = a100.allocated_bytes
        z = np.array([[1.0 + 2.0j, 0.0], [0.0, 1.0]])
        for dt in (np.float64, np.float32):
            with pytest.raises(TypeError, match="imaginary"):
                getattr(IrrBatch, ctor)(a100, [z], dtype=dt)
        assert a100.allocated_bytes == before

    @BOTH
    def test_default_and_explicit_dtypes(self, a100, ctor):
        make = getattr(IrrBatch, ctor)
        z = np.array([[1.0 + 2.0j]])
        assert make(a100, [z]).dtype == np.complex128
        assert make(a100, [z], dtype=np.complex64).dtype == np.complex64
        assert make(a100, [np.ones((2, 2), np.float32)]).dtype == \
            np.float32
        assert make(a100, [np.ones((2, 2), np.int64)]).dtype == np.float64
        b = make(a100, [np.ones((2, 2))], dtype=np.float32)
        assert b.dtype == np.float32
