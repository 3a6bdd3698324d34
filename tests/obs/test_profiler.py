"""Tests for the codec hot-path profiler (:mod:`repro.obs.profiler`).

The profiler has one hook point — the patched format-class codec methods,
which the factory's quantizers call too — and a hard contract that it is
free when profiling is off and fully reversible.  Tests drive the real
format classes (posit / float / fixed) directly and through quantizers.
"""

import numpy as np
import pytest

from repro.formats import NumberFormat, get_quantizer, parse_format
from repro.obs import CodecProfiler, profiler
from repro.obs.profiler import OPS


@pytest.fixture
def prof():
    """A clean process-wide profiler; restores patching state afterwards."""
    profiler.reset()
    yield profiler
    while profiler.active:
        profiler.disable()
    profiler.reset()


@pytest.fixture
def fmt():
    return parse_format("posit(8,1)")


class TestLifecycle:
    def test_inactive_by_default(self, prof):
        assert prof.active is False

    def test_refcounted_enable_disable(self, prof):
        prof.enable()
        prof.enable()
        prof.disable()
        assert prof.active is True
        prof.disable()
        assert prof.active is False

    def test_disable_below_zero_is_noop(self, prof):
        prof.disable()
        assert prof.active is False

    def test_patch_is_reversible(self, prof, fmt):
        original = NumberFormat.__dict__["to_bits"]
        with prof:
            assert NumberFormat.__dict__["to_bits"] is not original
            assert getattr(type(fmt).to_bits, "_repro_profiled", False)
        assert NumberFormat.__dict__["to_bits"] is original

    def test_nested_enable_patches_once(self, prof, fmt):
        with prof:
            patched = NumberFormat.__dict__["to_bits"]
            with prof:
                assert NumberFormat.__dict__["to_bits"] is patched


class TestFormatClassHook:
    def test_codec_ops_accounted(self, prof, fmt):
        values = np.linspace(-2.0, 2.0, 64)
        with prof:
            bits = fmt.to_bits(values)
            fmt.from_bits(bits)
            fmt.quantize(values)
        formats = prof.snapshot()["formats"]
        assert set(formats) == {fmt.spec()}
        for op in OPS:
            entry = formats[fmt.spec()][op]
            assert entry["calls"] == 1
            assert entry["elements"] == 64
            assert entry["ns"] > 0
        assert prof.total_ns() > 0

    def test_all_families_patched(self, prof):
        values = np.linspace(-1.0, 1.0, 16)
        specs = ["posit(8,1)", "float(8,4)", "fixed(8,4)"]
        with prof:
            for spec in specs:
                parse_format(spec).to_bits(values)
        formats = prof.snapshot()["formats"]
        assert {parse_format(s).spec() for s in specs} <= set(formats)

    def test_results_unchanged_by_profiling(self, prof, fmt):
        values = np.linspace(-2.0, 2.0, 64)
        plain = fmt.to_bits(values)
        with prof:
            profiled = fmt.to_bits(values)
        np.testing.assert_array_equal(plain, profiled)

    def test_inactive_records_nothing(self, prof, fmt):
        fmt.quantize(np.ones(8))
        assert prof.snapshot()["formats"] == {}


class TestFactoryQuantizers:
    def test_identity_caching_preserved(self, fmt):
        assert get_quantizer(fmt, "nearest") is get_quantizer(fmt, "nearest")

    def test_quantize_calls_accounted(self, prof, fmt):
        quantizer = get_quantizer(fmt, "nearest")
        values = np.linspace(-1.0, 1.0, 32)
        with prof:
            quantizer(values)
            quantizer(values)
        entry = prof.snapshot()["formats"][fmt.spec()]["quantize"]
        assert entry["calls"] == 2
        assert entry["elements"] == 64

    def test_each_op_counted_once(self, prof):
        values = np.linspace(-1.0, 1.0, 16)
        for spec in ("posit(8,1)", "posit(32,2)", "fp32", "fixed(16,13)"):
            quantizer = get_quantizer(spec, "nearest")
            with prof:
                quantizer(values)
                quantizer(values)
                codes = quantizer.to_bits(values)
                quantizer.from_bits(codes)
            ops = prof.snapshot()["formats"][quantizer.format.spec()]
            assert {op: entry["calls"] for op, entry in ops.items()} == {
                "quantize": 2, "to_bits": 1, "from_bits": 1}, spec

    def test_any_profiler_counts_quantizers_built_before_it(self, prof):
        quantizer = get_quantizer("posit(16,2)", "zero")
        quantizer(np.ones(4))
        own = CodecProfiler()
        with own:
            quantizer(np.ones(8))
        entry = own.snapshot()["formats"]["posit(16,2)"]["quantize"]
        assert entry["calls"] == 1 and entry["elements"] == 8
        assert prof.snapshot()["formats"] == {}

    def test_profiling_does_not_change_results(self, prof, fmt):
        quantizer = get_quantizer(fmt, "nearest")
        values = np.linspace(-1.0, 1.0, 32)
        plain = quantizer(values)
        with prof:
            profiled = quantizer(values)
        np.testing.assert_array_equal(plain, profiled)


class TestReporting:
    def test_reset_clears_stats(self, prof, fmt):
        with prof:
            fmt.quantize(np.ones(8))
        prof.reset()
        assert prof.snapshot()["formats"] == {}
        assert prof.total_ns() == 0

    def test_stats_survive_disable(self, prof, fmt):
        with prof:
            fmt.quantize(np.ones(8))
        snap = prof.snapshot()
        assert snap["active"] is False
        assert snap["formats"][fmt.spec()]["quantize"]["calls"] == 1

    def test_format_table(self, prof, fmt):
        values = np.linspace(-2.0, 2.0, 128)
        with prof:
            fmt.quantize(values)
            fmt.to_bits(values)
        table = prof.format_table()
        lines = table.splitlines()
        assert lines[0].split() == ["format", "op", "calls", "elements",
                                    "total_ms", "ns/elem"]
        assert any(fmt.spec() in line and "quantize" in line for line in lines)
        assert any(fmt.spec() in line and "to_bits" in line for line in lines)

    def test_fresh_instance_independent(self, prof, fmt):
        own = CodecProfiler()
        values = np.ones(8)
        with own:
            fmt.quantize(values)
        assert own.snapshot()["formats"][fmt.spec()]["quantize"]["calls"] == 1
        assert profiler.snapshot()["formats"] == {}
