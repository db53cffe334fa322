"""Fig. 8(d): how the FuSe speed-up scales with systolic array size.

The paper sweeps array sizes and finds speed-up *increases* on larger
arrays (under-utilization of the baseline grows with array size), and that
larger networks (MobileNet-V1) gain more on large arrays than small ones
(MobileNet-V3-Small) — the cloud-vs-edge design observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import FuSeVariant, to_fuseconv
from ..models import PAPER_NETWORKS, build_model
from ..obs import profiled
from ..systolic import ArrayConfig, scatter
from ..systolic.diskcache import estimate_network_cached

#: Array sizes swept by the ablation (Fig. 8d uses a similar range).
DEFAULT_SIZES: Tuple[int, ...] = (8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class ScalingPoint:
    """Speed-up of one network at one array size."""

    network: str
    size: int
    baseline_cycles: int
    fuse_cycles: int

    @property
    def speedup(self) -> float:
        return self.baseline_cycles / self.fuse_cycles


@profiled("analysis.scaling_curve")
def scaling_curve(
    name: str,
    variant: FuSeVariant = FuSeVariant.HALF,
    sizes: Sequence[int] = DEFAULT_SIZES,
    cache_dir=None,
    **model_kwargs,
) -> List[ScalingPoint]:
    """Speed-up vs array size for one network.

    A variant that ranks by latency (the 50 % variants, see
    :attr:`~repro.core.FuSeVariant.ranks_by_latency`) is transformed once
    per array size, since its layer selection depends on the array.
    Full/Half replace every depthwise layer, so their graph is
    size-independent and is transformed once per curve; only the
    latencies are re-estimated per size.
    """
    baseline = build_model(name, **model_kwargs)
    fixed = None if variant.ranks_by_latency \
        else to_fuseconv(baseline, variant)
    points = []
    for size in sizes:
        array = ArrayConfig.square(size)
        transformed = fixed if fixed is not None \
            else to_fuseconv(baseline, variant, array)
        points.append(
            ScalingPoint(
                network=name,
                size=size,
                baseline_cycles=estimate_network_cached(
                    baseline, array, cache_dir=cache_dir
                ).total_cycles,
                fuse_cycles=estimate_network_cached(
                    transformed, array, cache_dir=cache_dir
                ).total_cycles,
            )
        )
    return points


def _scaling_curve_worker(task) -> List[ScalingPoint]:
    """Module-level adapter so :func:`repro.systolic.scatter` can fork it."""
    name, variant, sizes, cache_dir, model_kwargs = task
    return scaling_curve(name, variant, sizes, cache_dir, **model_kwargs)


@profiled("analysis.figure_8d")
def figure_8d(
    networks: Sequence[str] = tuple(PAPER_NETWORKS),
    variant: FuSeVariant = FuSeVariant.HALF,
    sizes: Sequence[int] = DEFAULT_SIZES,
    jobs: Optional[int] = None,
    cache_dir=None,
    **model_kwargs,
) -> Dict[str, List[ScalingPoint]]:
    """The full ablation: speed-up curves for every paper network.

    ``jobs`` scatters the per-network curves across a process pool;
    the result dict is keyed (and ordered) by ``networks`` either way.
    """
    tasks = [
        (name, variant, tuple(sizes), cache_dir, dict(model_kwargs))
        for name in networks
    ]
    curves = scatter(_scaling_curve_worker, tasks, jobs=jobs)
    return dict(zip(networks, curves))


#: Input resolutions for the resolution ablation (extension).
DEFAULT_RESOLUTIONS: Tuple[int, ...] = (96, 128, 160, 192, 224)


@profiled("analysis.resolution_curve")
def resolution_curve(
    name: str,
    variant: FuSeVariant = FuSeVariant.HALF,
    resolutions: Sequence[int] = DEFAULT_RESOLUTIONS,
    array_size: int = 64,
    cache_dir=None,
    **model_kwargs,
) -> List[ScalingPoint]:
    """Extension ablation: speed-up vs *input resolution* on a fixed array.

    Complements Fig. 8(d): larger feature maps utilize the FuSe mapping
    better (the Fig. 8b per-layer observation, aggregated), so speed-up
    should grow with resolution.  ``ScalingPoint.size`` carries the
    resolution here.
    """
    points = []
    array = ArrayConfig.square(array_size)
    for resolution in resolutions:
        baseline = build_model(name, resolution=resolution, **model_kwargs)
        transformed = to_fuseconv(baseline, variant, array)
        points.append(
            ScalingPoint(
                network=name,
                size=resolution,
                baseline_cycles=estimate_network_cached(
                    baseline, array, cache_dir=cache_dir
                ).total_cycles,
                fuse_cycles=estimate_network_cached(
                    transformed, array, cache_dir=cache_dir
                ).total_cycles,
            )
        )
    return points


#: Extended design-knob values for the D sweep (§VI extension).
DEFAULT_D_VALUES: Tuple[int, ...] = (1, 2, 4, 8)


def _d_point_worker(task):
    """One D value of :func:`d_knob_sweep`, fork-safe."""
    from ..core import to_mixed_fuseconv
    from ..ir import DepthwiseConv2D, macs_millions, params_millions

    name, d, array, cache_dir, model_kwargs = task
    baseline = build_model(name, **model_kwargs)
    depthwise = [n.name for n in baseline.find(DepthwiseConv2D)]
    net = to_mixed_fuseconv(
        baseline, {ln: d for ln in depthwise}, name_suffix=f"FuSe-D{d}"
    )
    cycles = estimate_network_cached(net, array, cache_dir=cache_dir).total_cycles
    return (f"FuSe D={d}", macs_millions(net), params_millions(net), cycles)


@profiled("analysis.d_knob_sweep")
def d_knob_sweep(
    name: str = "mobilenet_v2",
    d_values: Sequence[int] = DEFAULT_D_VALUES,
    array: Optional[ArrayConfig] = None,
    jobs: Optional[int] = None,
    cache_dir=None,
    **model_kwargs,
) -> List[Tuple[str, float, float, int, float]]:
    """§VI extension: sweep the design knob D beyond the paper's {1, 2}.

    Returns ``(label, macs_M, params_M, cycles, speedup)`` rows, baseline
    first; D points can be scattered across a process pool with ``jobs``.
    """
    from ..ir import macs_millions, params_millions

    if array is None:
        from ..systolic import PAPER_ARRAY

        array = PAPER_ARRAY
    baseline = build_model(name, **model_kwargs)
    base_cycles = estimate_network_cached(
        baseline, array, cache_dir=cache_dir
    ).total_cycles
    rows = [("baseline", macs_millions(baseline), params_millions(baseline),
             base_cycles, 1.0)]
    tasks = [
        (name, d, array, cache_dir, dict(model_kwargs)) for d in d_values
    ]
    for label, macs, params, cycles in scatter(_d_point_worker, tasks, jobs=jobs):
        rows.append((label, macs, params, cycles, base_cycles / cycles))
    return rows
