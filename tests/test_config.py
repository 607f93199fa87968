"""Unit tests for repro.config."""

import numpy as np
import pytest

from repro import config


class TestCheckDtype:
    def test_accepts_all_four_standard_types(self):
        for dt in (np.float32, np.float64, np.complex64, np.complex128):
            assert config.check_dtype(dt) == np.dtype(dt)

    def test_accepts_string_names(self):
        assert config.check_dtype("float64") == np.dtype(np.float64)

    @pytest.mark.parametrize("bad", [np.int32, np.int64, np.float16, bool])
    def test_rejects_unsupported(self, bad):
        with pytest.raises(TypeError):
            config.check_dtype(bad)


class TestRealDtype:
    def test_real_types_map_to_themselves(self):
        assert config.real_dtype(np.float32) == np.dtype(np.float32)
        assert config.real_dtype(np.float64) == np.dtype(np.float64)

    def test_complex_types_map_to_real_base(self):
        assert config.real_dtype(np.complex64) == np.dtype(np.float32)
        assert config.real_dtype(np.complex128) == np.dtype(np.float64)


class TestEps:
    def test_eps_single_vs_double(self):
        assert config.eps(np.float32) == pytest.approx(2 ** -23)
        assert config.eps(np.float64) == pytest.approx(2 ** -52)

    def test_complex_uses_real_base_eps(self):
        assert config.eps(np.complex64) == config.eps(np.float32)
        assert config.eps(np.complex128) == config.eps(np.float64)


class TestTolerances:
    def test_inner_tolerance_is_cuberoot_of_5eps(self):
        tol = config.qdwh_inner_tolerance(np.float64)
        assert tol == pytest.approx((5 * 2 ** -52) ** (1 / 3))

    def test_weight_tolerance_is_5eps(self):
        assert config.qdwh_weight_tolerance(np.float64) == 5 * 2 ** -52

    def test_single_precision_tolerances_looser(self):
        assert (config.qdwh_inner_tolerance(np.float32)
                > config.qdwh_inner_tolerance(np.float64))

    def test_is_complex(self):
        assert config.is_complex(np.complex128)
        assert not config.is_complex(np.float64)


class TestBackwardErrorBound:
    @pytest.mark.parametrize("dtype,cond,expected", [
        (np.float64, 1.0, 1e3 * 2 ** -52),
        (np.float64, 1e8, 1e6 * 2 ** -52),
        (np.float64, 1e16, 1e10 * 2 ** -52),
        (np.float32, 1.0, 1e3 * 2 ** -23),
        (np.float32, 1e8, 1e6 * 2 ** -23),
        (np.float32, 1e16, 1e10 * 2 ** -23),
    ])
    def test_pinned_values(self, dtype, cond, expected):
        """max(1e3 eps, 100 eps sqrt(cond)): the floor wins at cond=1."""
        assert config.backward_error_bound(dtype, cond) == \
            pytest.approx(expected)
