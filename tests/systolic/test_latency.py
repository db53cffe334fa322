"""Layer and network latency estimation."""

import pytest

from repro.core import ALL_VARIANTS, FuSeVariant, to_fuseconv
from repro.ir import (
    Activation,
    BatchNorm,
    Conv2D,
    DepthwiseConv2D,
    FuSeConv1D,
    Network,
    PointwiseConv2D,
)
from repro.models import PAPER_NETWORKS, build_model
from repro.systolic import (
    ARRAY_LAYERS,
    ArrayConfig,
    GemmDims,
    estimate_layer,
    estimate_network,
    lower_layer,
    mapping_stats,
    os_gemm_stats,
    speedup,
)


def small_net() -> Network:
    net = Network("small", input_shape=(4, 12, 12))
    net.add(Conv2D(8, kernel=3, stride=1, padding="same"), name="conv", block="stem")
    net.add(BatchNorm(), name="bn", block="stem")
    net.add(DepthwiseConv2D(kernel=3), name="dw", block="b0")
    net.add(PointwiseConv2D(16), name="pw", block="b0")
    return net


class TestLayerLatency:
    def test_conv_matches_gemm(self, small_array):
        net = small_net()
        latency = estimate_layer(net["conv"], small_array)
        expected = os_gemm_stats(GemmDims(m=144, k=36, n=8), small_array)
        assert latency.cycles == expected.cycles

    def test_depthwise_is_sum_of_channels(self, small_array):
        net = small_net()
        latency = estimate_layer(net["dw"], small_array)
        per_channel = os_gemm_stats(GemmDims(m=144, k=9, n=1), small_array)
        assert latency.cycles == 8 * per_channel.cycles

    def test_non_compute_layer_is_free(self, small_array):
        net = small_net()
        assert estimate_layer(net["bn"], small_array).cycles == 0

    def test_fuse_uses_broadcast_when_available(self):
        spec = FuSeConv1D(axis="row", kernel=3)
        in_shape = (8, 12, 12)
        with_links = mapping_stats(spec, in_shape, spec.out_shape(in_shape),
                                   ArrayConfig(8, 8, broadcast=True))
        without = mapping_stats(spec, in_shape, spec.out_shape(in_shape),
                                ArrayConfig(8, 8, broadcast=False))
        assert with_links.cycles < without.cycles


class TestNetworkLatency:
    def test_total_is_sum_of_layers(self, small_array):
        result = estimate_network(small_net(), small_array)
        assert result.total_cycles == sum(l.cycles for l in result.layers)

    def test_skips_zero_cycle_layers(self, small_array):
        result = estimate_network(small_net(), small_array)
        assert {l.name for l in result.layers} == {"conv", "dw", "pw"}

    def test_by_class_partitions_total(self, small_array):
        result = estimate_network(small_net(), small_array)
        assert sum(result.cycles_by_class().values()) == result.total_cycles

    def test_by_block(self, small_array):
        result = estimate_network(small_net(), small_array)
        blocks = result.cycles_by_block()
        assert set(blocks) == {"stem", "b0"}
        assert sum(blocks.values()) == result.total_cycles

    def test_fractions_sum_to_one(self, small_array):
        fractions = estimate_network(small_net(), small_array).class_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_default_array_is_paper_64(self):
        result = estimate_network(small_net())
        assert (result.array.rows, result.array.cols) == (64, 64)

    def test_ms_conversion(self, small_array):
        result = estimate_network(small_net(), small_array)
        assert result.total_ms == pytest.approx(
            result.total_cycles / (small_array.frequency_mhz * 1e3)
        )


class TestSpeedup:
    def test_fuse_faster_than_baseline(self, paper_array):
        net = build_model("mobilenet_v2", resolution=96)
        base = estimate_network(net, paper_array)
        fuse = estimate_network(to_fuseconv(net, FuSeVariant.HALF, paper_array), paper_array)
        assert speedup(base, fuse) > 2.0

    def test_speedup_is_cycle_ratio(self, small_array):
        a = estimate_network(small_net(), small_array)
        assert speedup(a, a) == 1.0

    def test_zero_variant_raises(self, small_array):
        empty = estimate_network(Network("e", input_shape=(1, 4, 4)), small_array)
        full = estimate_network(small_net(), small_array)
        with pytest.raises(ZeroDivisionError):
            speedup(full, empty)


class TestBroadcastFlagOnNetworks:
    def test_baseline_unaffected_by_links(self, paper_array):
        """Baseline nets contain no FuSe layers: links change nothing."""
        net = build_model("mobilenet_v1", resolution=96)
        with_links = estimate_network(net, paper_array)
        without = estimate_network(net, paper_array.without_broadcast())
        assert with_links.total_cycles == without.total_cycles

    def test_fuse_net_needs_links_to_win(self, paper_array):
        """Without the broadcast link, FuSe degrades to single-column GEMMs."""
        net = build_model("mobilenet_v1", resolution=96)
        fuse_net = to_fuseconv(net, FuSeVariant.HALF, paper_array)
        with_links = estimate_network(fuse_net, paper_array).total_cycles
        without = estimate_network(fuse_net, paper_array.without_broadcast()).total_cycles
        assert with_links < without


class TestMappingCache:
    def test_counters_and_reuse(self, small_array):
        from repro.obs import get_registry
        from repro.systolic import clear_mapping_cache

        clear_mapping_cache()
        reg = get_registry()
        reg.reset()
        net = small_net()
        first = estimate_network(net, small_array)
        cold_miss = reg.counter("latency.cache.miss").value
        assert cold_miss > 0
        assert reg.counter("latency.cache.hit").value == 0
        second = estimate_network(net, small_array)
        assert second.total_cycles == first.total_cycles
        assert reg.counter("latency.cache.miss").value == cold_miss
        assert reg.counter("latency.cache.hit").value == cold_miss

    def test_returned_stats_are_private_copies(self, small_array):
        from repro.systolic import clear_mapping_cache

        clear_mapping_cache()
        node = small_net()["conv"]
        a = mapping_stats(node.layer, node.in_shape, node.out_shape, small_array)
        cycles = a.cycles
        a.merge(a)  # callers may accumulate into the returned stats
        b = mapping_stats(node.layer, node.in_shape, node.out_shape, small_array)
        assert b.cycles == cycles

    def test_key_covers_every_cycle_relevant_config_field(self, small_array):
        """Changing any cycle-relevant ArrayConfig field must miss the memo."""
        from repro.obs import get_registry
        from repro.systolic import clear_mapping_cache

        clear_mapping_cache()
        reg = get_registry()
        reg.reset()
        node = small_net()["dw"]
        base = ArrayConfig(8, 8, broadcast=True)
        variants = [
            ArrayConfig(16, 8, broadcast=True),
            ArrayConfig(8, 16, broadcast=True),
            ArrayConfig(8, 8, broadcast=False),
            ArrayConfig(8, 8, broadcast=True, dataflow="ws"),
            ArrayConfig(8, 8, broadcast=True, pipelined_folds=True),
        ]
        results = [
            mapping_stats(node.layer, node.in_shape, node.out_shape, arr)
            for arr in [base] + variants
        ]
        assert reg.counter("latency.cache.hit").value == 0
        assert reg.counter("latency.cache.miss").value == len(results)
        # Each config variant really maps differently (sanity, not required
        # by the memo contract — but all of these do change the cycle model).
        assert len({r.cycles for r in results}) > 1

    def test_frequency_only_change_shares_entry(self, small_array):
        """frequency_mhz rescales cycles→ms post hoc; it must not split keys."""
        from repro.obs import get_registry
        from repro.systolic import clear_mapping_cache

        clear_mapping_cache()
        reg = get_registry()
        reg.reset()
        node = small_net()["conv"]
        slow = ArrayConfig(8, 8, broadcast=True, frequency_mhz=100.0)
        fast = ArrayConfig(8, 8, broadcast=True, frequency_mhz=940.0)
        a = mapping_stats(node.layer, node.in_shape, node.out_shape, slow)
        b = mapping_stats(node.layer, node.in_shape, node.out_shape, fast)
        assert a.cycles == b.cycles
        assert reg.counter("latency.cache.hit").value == 1
        assert reg.counter("latency.cache.miss").value == 1

    def test_clear_invalidates_and_info_tracks_size(self, small_array):
        from repro.obs import get_registry
        from repro.systolic import clear_mapping_cache, mapping_cache_info

        clear_mapping_cache()
        reg = get_registry()
        reg.reset()
        net = small_net()
        estimate_network(net, small_array)
        info = mapping_cache_info()
        assert info["size"] > 0
        assert info["misses"] == info["size"]
        assert info["hits"] == 0
        assert reg.get("latency.cache.size").value == info["size"]
        clear_mapping_cache()
        assert mapping_cache_info()["size"] == 0
        estimate_network(net, small_array)
        # Every entry re-misses after invalidation.
        assert mapping_cache_info()["misses"] == 2 * info["size"]

    def test_tracing_bypasses_cache(self, small_array):
        from repro.obs import get_registry, get_tracer
        from repro.systolic import clear_mapping_cache

        clear_mapping_cache()
        reg = get_registry()
        reg.reset()
        tracer = get_tracer()
        tracer.enable()
        try:
            estimate_network(small_net(), small_array)
        finally:
            tracer.disable()
            tracer.clear()
        assert reg.get("latency.cache.miss") is None
        assert reg.get("latency.cache.hit") is None


class TestArrayLayerSkip:
    """estimate_network skips nodes outside ARRAY_LAYERS before the memo;
    the result must equal estimating every node and keeping nonzero ones."""

    @pytest.mark.parametrize("size", [8, 64])
    @pytest.mark.parametrize("name", sorted(PAPER_NETWORKS))
    def test_skip_equals_per_node_path(self, name, size):
        array = ArrayConfig.square(size)
        baseline = build_model(name)
        networks = [baseline] + [to_fuseconv(baseline, v, array)
                                 for v in ALL_VARIANTS]
        for net in networks:
            for batch in (1, 2):
                per_node = [
                    latency for latency in (
                        estimate_layer(node, array, batch) for node in net)
                    if latency.cycles
                ]
                skipped = estimate_network(net, array, batch).layers
                assert skipped == per_node, (net.name, batch)
            for node in net:
                lowered = lower_layer(node.layer, node.in_shape,
                                      node.out_shape)
                assert bool(lowered.ops) == isinstance(node.layer,
                                                       ARRAY_LAYERS)
