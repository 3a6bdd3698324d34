"""The cached quantizer factory: one instance per (format, rounding) key."""

import numpy as np
import pytest

from repro.formats import (
    FixedPointFormat,
    FormatQuantizer,
    clear_quantizer_cache,
    get_quantizer,
    quantizer_cache_info,
)
from repro.formats import kernels
from repro.posit import FP16, PositConfig


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_quantizer_cache()
    yield
    clear_quantizer_cache()


class TestCaching:
    def test_same_key_returns_same_instance(self):
        a = get_quantizer(PositConfig(8, 1), "zero")
        b = get_quantizer(PositConfig(8, 1), "zero")
        assert a is b

    def test_equal_but_distinct_format_objects_share(self):
        # Frozen dataclasses hash by value, so freshly built configs hit
        # the same cache slot.
        assert get_quantizer(PositConfig(16, 2), "nearest") is \
            get_quantizer(PositConfig(16, 2), "nearest")

    def test_spec_string_and_object_share(self):
        assert get_quantizer("posit(8,1)", "zero") is \
            get_quantizer(PositConfig(8, 1), "zero")

    def test_different_rounding_distinct(self):
        assert get_quantizer(PositConfig(8, 1), "zero") is not \
            get_quantizer(PositConfig(8, 1), "nearest")

    def test_different_formats_distinct(self):
        assert get_quantizer(PositConfig(8, 1), "zero") is not \
            get_quantizer(PositConfig(8, 2), "zero")

    def test_all_families_cacheable(self):
        for fmt in (PositConfig(8, 1), FP16, FixedPointFormat(2, 13)):
            assert get_quantizer(fmt, "nearest") is get_quantizer(fmt, "nearest")

    def test_none_returns_none_and_is_not_cached(self):
        assert get_quantizer(None) is None
        assert quantizer_cache_info()["size"] == 0

    def test_explicit_rng_bypasses_cache(self):
        rng = np.random.default_rng(0)
        seeded = get_quantizer(PositConfig(8, 1), "stochastic", rng=rng)
        again = get_quantizer(PositConfig(8, 1), "stochastic", rng=rng)
        assert seeded is not again
        # The seeded instances never enter the shared cache.
        cached = get_quantizer(PositConfig(8, 1), "stochastic")
        assert cached is not seeded
        assert cached.rng is None

    def test_cache_info_reports_keys(self):
        get_quantizer(PositConfig(8, 1), "zero")
        get_quantizer(FP16, "nearest")
        info = quantizer_cache_info()
        assert info["size"] == 2
        assert ("posit(8,1)", "zero") in info["keys"]
        assert ("fp16", "nearest") in info["keys"]

    def test_handing_out_a_quantizer_builds_its_codec(self):
        """The codec's tables are built when a policy attaches the quantizer,
        not at its first call, which may come in the middle of a backward
        pass (fails at the parent, which built them lazily)."""
        fmt = PositConfig(16, 2)
        kernels.clear_kernel_cache()
        get_quantizer(fmt)
        assert fmt in kernels._CODECS

    def test_unsupported_descriptor_raises(self):
        with pytest.raises(TypeError, match="not a NumberFormat"):
            get_quantizer(object())

    def test_every_family_gets_one_quantizer_type(self):
        for fmt in (PositConfig(8, 1), PositConfig(32, 3), FP16,
                    FixedPointFormat(2, 13)):
            quantizer = get_quantizer(fmt, "nearest")
            assert type(quantizer) is FormatQuantizer
            assert quantizer.format is fmt


class TestRoundingAdaptation:
    """Each family maps the policy's rounding onto what it supports."""

    def test_quantizer_methods_are_the_format_methods(self, rng):
        values = rng.standard_normal(100)
        for fmt in (PositConfig(8, 1), PositConfig(32, 2), FP16,
                    FixedPointFormat(2, 13)):
            quantizer = get_quantizer(fmt, "nearest")
            np.testing.assert_array_equal(quantizer(values),
                                          fmt.quantize(values, mode="nearest"))
            codes = quantizer.to_bits(values)
            np.testing.assert_array_equal(codes, fmt.to_bits(values, mode="nearest"))
            np.testing.assert_array_equal(quantizer.from_bits(codes), fmt.from_bits(codes))

    def test_float_treats_zero_as_nearest(self, rng):
        values = rng.standard_normal(100)
        np.testing.assert_array_equal(
            get_quantizer(FP16, "zero")(values),
            np.asarray(FP16.quantize(values, mode="nearest")),
        )

    def test_fixed_treats_zero_as_nearest(self, rng):
        fmt = FixedPointFormat(2, 5)
        values = rng.standard_normal(100)
        np.testing.assert_array_equal(
            get_quantizer(fmt, "zero")(values),
            np.asarray(fmt.quantize(values, mode="nearest")),
        )

    def test_posit_honours_zero(self, rng):
        values = rng.standard_normal(100)
        cfg = PositConfig(8, 1)
        np.testing.assert_array_equal(
            get_quantizer(cfg, "zero")(values),
            np.asarray(cfg.quantize(values, mode="zero")),
        )
