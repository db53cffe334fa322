"""SRAM/DRAM traffic accounting."""

import pytest

from repro.core import FuSeVariant, to_fuseconv
from repro.ir import Conv2D, DepthwiseConv2D, Network, PointwiseConv2D
from repro.models import PAPER_NETWORKS, build_model
from repro.obs import get_registry
from repro.systolic import (
    ARRAY_LAYERS,
    ArrayConfig,
    BYTES_PER_VALUE,
    GemmDims,
    clear_mapping_cache,
    layer_traffic,
    mapping_stats,
    os_gemm_stats,
    traffic_report,
)


def tiny_net() -> Network:
    net = Network("t", input_shape=(4, 8, 8))
    net.add(Conv2D(8, kernel=3, padding="same"), name="conv")
    net.add(DepthwiseConv2D(kernel=3), name="dw")
    net.add(PointwiseConv2D(4), name="pw")
    return net


class TestLayerTraffic:
    def test_unique_counts(self, small_array):
        net = tiny_net()
        t = layer_traffic(net["conv"], small_array)
        assert t.unique_inputs == 4 * 8 * 8
        assert t.unique_outputs == 8 * 8 * 8
        assert t.unique_weights == 8 * 4 * 9

    def test_sram_matches_gemm_stats(self, small_array):
        net = tiny_net()
        t = layer_traffic(net["pw"], small_array)
        stats = os_gemm_stats(GemmDims(m=64, k=8, n=4), small_array)
        assert t.sram_reads == stats.sram_reads
        assert t.sram_writes == stats.sram_writes

    def test_non_compute_returns_none(self, small_array):
        from repro.ir import BatchNorm

        net = Network("b", input_shape=(4, 8, 8))
        net.add(BatchNorm(), name="bn")
        assert layer_traffic(net["bn"], small_array) is None

    def test_read_amplification_at_least_one_for_conv(self, small_array):
        net = tiny_net()
        t = layer_traffic(net["conv"], small_array)
        assert t.read_amplification > 1.0  # im2col duplicates inputs

    def test_bytes_are_fp16(self, small_array):
        net = tiny_net()
        t = layer_traffic(net["pw"], small_array)
        assert BYTES_PER_VALUE == 2
        assert t.dram_bytes == 2 * (t.unique_inputs + t.unique_weights + t.unique_outputs)


class TestNetworkTraffic:
    def test_totals_are_sums(self, small_array):
        report = traffic_report(tiny_net(), small_array)
        assert report.total_sram_reads == sum(l.sram_reads for l in report.layers)
        assert report.total_dram_bytes == sum(l.dram_bytes for l in report.layers)

    def test_fuse_reduces_sram_traffic(self):
        """FuSe eliminates the K×-duplicated im2col streams of depthwise."""
        array = ArrayConfig.square(64)
        net = build_model("mobilenet_v1", resolution=96)
        base = traffic_report(net, array)
        fuse = traffic_report(to_fuseconv(net, FuSeVariant.HALF, array), array)
        assert fuse.total_sram_reads < base.total_sram_reads

    def test_report_covers_compute_layers_only(self, small_array):
        report = traffic_report(tiny_net(), small_array)
        assert {l.name for l in report.layers} == {"conv", "dw", "pw"}


class TestArrayLayerSkip:
    """layer_traffic returns None for nodes outside ARRAY_LAYERS before the
    mapping memo: the report keeps the rows costing every node gave, and
    BN/activation/pooling nodes never touch the memo."""

    @pytest.fixture(scope="class", params=sorted(PAPER_NETWORKS))
    def networks(self, request):
        array = ArrayConfig.square(64)
        baseline = build_model(request.param)
        return array, [baseline,
                       to_fuseconv(baseline, FuSeVariant.HALF, array)]

    def test_rows_equal_costing_every_node(self, networks):
        array, nets = networks
        for net in nets:
            expected = []
            for node in net:
                stats = mapping_stats(node.layer, node.in_shape,
                                      node.out_shape, array)
                if stats.cycles:
                    expected.append(
                        (node.name, stats.sram_reads, stats.sram_writes))
            rows = [(l.name, l.sram_reads, l.sram_writes)
                    for l in traffic_report(net, array).layers]
            assert rows == expected, net.name

    def test_non_array_node_bumps_no_cache_counter(self, networks):
        array, nets = networks
        registry = get_registry()
        clear_mapping_cache()
        registry.reset()
        skipped = 0
        for net in nets:
            for node in net:
                if not isinstance(node.layer, ARRAY_LAYERS):
                    assert layer_traffic(node, array) is None
                    skipped += 1
        assert skipped > 0
        for name in ("latency.cache.hit", "latency.cache.miss"):
            counter = registry.get(name)
            assert counter is None or counter.value == 0, name
        traffic_report(nets[0], array)
        assert registry.get("latency.cache.miss").value > 0
