"""Mapping layer specs to systolic-array operations (GEMMs / 1D-conv banks).

This is the *shape-level* im2col of §III-B: a convolution becomes a matrix
multiplication whose dimensions determine fold counts and cycles.  (The
numerical im2col used for actually computing values lives in
:mod:`repro.core.reference`.)

Key mappings and their §III significance:

* standard conv → one GEMM with ``N = C_out`` columns: filters provide reuse
  along systolic dimension 1 (Fig. 3a) — good utilization;
* depthwise conv → ``C`` independent GEMMs with ``N = 1``: a single active
  column (Fig. 2c) — the inefficiency the paper identifies;
* FuSeConv 1D group → a :class:`repro.systolic.fuse_mapping.Conv1DBank`
  executed with the broadcast dataflow — spans both dimensions (Fig. 7).

A lowered layer is a weighted histogram of ``(op, count)`` pairs: the
``C`` identical depthwise GEMMs are one pair with count ``C``, so a cost
model prices each distinct operation once and scales it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple, Union

from ..ir.layer import (
    Conv2D,
    DepthwiseConv2D,
    FuSeConv1D,
    LayerSpec,
    Linear,
    PointwiseConv2D,
    Shape,
    SqueezeExcite,
)
from ..ir.packing import PackedMapping
from .fuse_mapping import Conv1DBank
from .gemm import GemmDims

#: A layer lowers to either GEMMs or 1D-convolution banks.
ArrayOp = Union[GemmDims, Conv1DBank]

#: The layer specs with array compute (§V-A.3: convolutions,
#: Squeeze-and-Excite and FC layers).  Every other spec — BN,
#: activations, pooling, plumbing — lowers to no operation and costs
#: zero array cycles.
ARRAY_LAYERS = (Conv2D, DepthwiseConv2D, PointwiseConv2D, FuSeConv1D,
                Linear, SqueezeExcite)


@dataclass(frozen=True)
class LoweredLayer:
    """The array operations implementing one layer.

    ``ops`` holds ``(op, count)`` pairs: ``op`` runs ``count`` times back
    to back.  Each distinct op appears once.
    """

    ops: List[Tuple[ArrayOp, int]]

    @property
    def macs(self) -> int:
        return sum(count * op.macs for op, count in self.ops)


def lower_layer(
    layer: LayerSpec, in_shape: Shape, out_shape: Shape, batch: int = 1
) -> LoweredLayer:
    """Lower a compute layer to array operations.

    Layers outside :data:`ARRAY_LAYERS` (activations, BN, pooling,
    plumbing) lower to an empty op list — the paper's latency model
    considers compute-bound convolution, Squeeze-and-Excite and FC layers
    only (§V-A.3).

    ``batch`` folds additional images into the GEMM M dimension (for
    convolutions) or independent rows (for FC / 1D banks) — the standard
    SCALE-Sim batching model; the paper's numbers are batch 1.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if not isinstance(layer, ARRAY_LAYERS):
        return LoweredLayer([])
    if isinstance(layer, Conv2D):
        return _lower_conv(layer, in_shape, out_shape, batch)
    if isinstance(layer, DepthwiseConv2D):
        return _lower_depthwise(layer, in_shape, out_shape, batch)
    if isinstance(layer, PointwiseConv2D):
        c, h, w = in_shape
        return LoweredLayer(
            [(GemmDims(m=batch * h * w, k=c, n=layer.out_channels), 1)])
    if isinstance(layer, FuSeConv1D):
        return _lower_fuse(layer, in_shape, out_shape, batch)
    if isinstance(layer, Linear):
        c = in_shape[0]
        return LoweredLayer([(GemmDims(m=batch, k=c, n=layer.out_features), 1)])
    c = in_shape[0]  # SqueezeExcite: the two FC GEMMs
    mid = layer.bottleneck(c)
    return LoweredLayer(
        [(GemmDims(m=batch, k=c, n=mid), 1), (GemmDims(m=batch, k=mid, n=c), 1)]
    )


def lower_packed_layer(
    layer: LayerSpec, in_shape: Shape, out_shape: Shape, batch: int,
    packed: PackedMapping,
) -> LoweredLayer:
    """Lower a layer under a column-combining :class:`PackedMapping`.

    The packed schedule keeps the dense mapping's shape *family* and
    shrinks the sparse degrees of freedom (Kung et al. column combining):

    * ``"gemm"`` (standard conv / pointwise / linear) — N shrinks to the
      physical column count, K streams in full (each physical column
      accumulates its member columns' disjoint rows in one pass);
    * ``"depthwise"`` — each channel's single-column GEMM streams only
      its live taps (per-channel K), empty channels vanish;
    * ``"fuse1d"`` — one broadcast bank per identical-tap-support group,
      streaming just the group's live taps; empty channels drop rows.

    γ=1 identity mappings reproduce :func:`lower_layer` exactly.  Raises
    ``ValueError`` when the mapping does not match the layer's geometry
    (a stale packing applied to the wrong network).
    """
    dense = lower_layer(layer, in_shape, out_shape, batch)
    if packed.kind == "gemm":
        if not (isinstance(layer, (PointwiseConv2D, Linear))
                or (isinstance(layer, Conv2D) and layer.groups == 1)):
            raise ValueError(
                f"gemm packing cannot apply to {type(layer).__name__}")
        ((dims, _),) = dense.ops
        if packed.k != dims.k or packed.n_orig != dims.n:
            raise ValueError(
                f"packed mapping (K={packed.k}, N={packed.n_orig}) does not "
                f"match layer GEMM (K={dims.k}, N={dims.n})")
        if packed.n_packed == 0:
            return LoweredLayer([])
        return LoweredLayer(
            [(GemmDims(m=dims.m, k=dims.k, n=packed.n_packed), 1)])
    if packed.kind == "depthwise":
        if not isinstance(layer, DepthwiseConv2D):
            raise ValueError(
                f"depthwise packing cannot apply to {type(layer).__name__}")
        c_out, oh, ow = out_shape
        kh, kw = layer.kernel_hw
        if len(packed.k_eff) != c_out or packed.k != kh * kw:
            raise ValueError(
                f"packed mapping (C={len(packed.k_eff)}, K={packed.k}) does "
                f"not match depthwise layer (C={c_out}, K={kh * kw})")
        m = batch * oh * ow
        live = Counter(ke for ke in packed.k_eff if ke > 0)
        return LoweredLayer(
            [(GemmDims(m=m, k=ke, n=1), count) for ke, count in live.items()])
    if packed.kind == "fuse1d":
        if not isinstance(layer, FuSeConv1D):
            raise ValueError(
                f"fuse1d packing cannot apply to {type(layer).__name__}")
        c, oh, ow = out_shape
        if packed.k != layer.kernel or packed.n_orig != c:
            raise ValueError(
                f"packed mapping (C={packed.n_orig}, K={packed.k}) does not "
                f"match FuSe layer (C={c}, K={layer.kernel})")
        sh, sw = layer.stride_hw
        lines, out_length, stride = (oh, ow, sw) if layer.axis == "row" \
            else (ow, oh, sh)
        return LoweredLayer([
            (Conv1DBank(num_convs=batch * len(chans) * lines,
                        out_length=out_length, kernel=len(taps),
                        stride=stride), 1)
            for taps, chans in packed.tap_groups
        ])
    raise ValueError(f"unknown packing kind {packed.kind!r}")


def _lower_conv(
    layer: Conv2D, in_shape: Shape, out_shape: Shape, batch: int
) -> LoweredLayer:
    c_in = in_shape[0]
    c_out, oh, ow = out_shape
    kh, kw = layer.kernel_hw
    per_group = GemmDims(
        m=batch * oh * ow, k=kh * kw * (c_in // layer.groups), n=c_out // layer.groups
    )
    return LoweredLayer([(per_group, layer.groups)])


def _lower_depthwise(
    layer: DepthwiseConv2D, in_shape: Shape, out_shape: Shape, batch: int
) -> LoweredLayer:
    c_out, oh, ow = out_shape
    kh, kw = layer.kernel_hw
    # One single-column GEMM per output channel (Fig. 2c): no reuse along
    # systolic dimension 1.  Batching extends M (same filter, more pixels).
    return LoweredLayer([(GemmDims(m=batch * oh * ow, k=kh * kw, n=1), c_out)])


def _lower_fuse(
    layer: FuSeConv1D, in_shape: Shape, out_shape: Shape, batch: int
) -> LoweredLayer:
    c, oh, ow = out_shape
    sh, sw = layer.stride_hw
    if layer.axis == "row":
        # One 1D conv per (image, channel, surviving output row), each
        # producing a full output row of length ow.
        bank = Conv1DBank(
            num_convs=batch * c * oh, out_length=ow, kernel=layer.kernel, stride=sw
        )
    else:
        bank = Conv1DBank(
            num_convs=batch * c * ow, out_length=oh, kernel=layer.kernel, stride=sh
        )
    return LoweredLayer([(bank, 1)])
