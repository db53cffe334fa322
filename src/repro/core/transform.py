"""Drop-in replacement of depthwise convolutions with FuSeConv (§IV-A, §V-A.1).

:func:`to_fuseconv` rebuilds a network, replacing each selected
``DepthwiseConv2D`` node with the FuSeConv subgraph:

* Full (D=1):  ``x ─┬─ row 1D conv ──┐``
  ``              └─ col 1D conv ──┴─ concat → 2C channels``
* Half (D=2):  ``x ─┬─ split[:C/2] ─ row 1D conv ─┐``
  ``              └─ split[C/2:] ─ col 1D conv ─┴─ concat → C channels``

Everything downstream (BN, activation, SE, the 1×1 pointwise projection)
is left in place; with the Full variant the pointwise convolution widens
automatically because its input now carries 2C channels — exactly the
paper's ``(2/D)·C(K + C')`` accounting.

For the 50 % variants the paper replaces "layers in such a way that maximum
latency benefits are obtained"; we rank depthwise layers by the cycle
savings of their FuSe replacement on the target array (64×64 by default)
and replace the better half.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ir.layer import ChannelSplit, Concat, DepthwiseConv2D, FuSeConv1D
from ..ir.network import Network, Node
from ..systolic.config import ArrayConfig, PAPER_ARRAY
from ..systolic.latency import mapping_stats
from .fuseconv import split_channels
from .variants import FuSeVariant


@dataclass
class ReplacementPlan:
    """Which depthwise nodes a transform will replace, and the expected gain."""

    variant: FuSeVariant
    array: ArrayConfig
    #: node name -> estimated cycle saving (baseline - FuSe) on ``array``
    savings: Dict[str, int] = field(default_factory=dict)
    replaced: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)


@dataclass
class TransformResult:
    """A transformed network together with its replacement plan."""

    network: Network
    plan: ReplacementPlan


def _fuse_cycle_saving(node: Node, d: int, array: ArrayConfig) -> int:
    """Cycle saving from replacing one depthwise node with its FuSe subgraph."""
    layer = node.layer
    assert isinstance(layer, DepthwiseConv2D)
    baseline = mapping_stats(layer, node.in_shape, node.out_shape, array).cycles

    c = node.in_shape[0]
    c_row, c_col = split_channels(c, d)
    stride = layer.stride_hw
    kernel = max(layer.kernel_hw)
    fuse_cycles = 0
    for axis, channels in (("row", c_row), ("col", c_col)):
        if channels == 0:
            continue
        spec = FuSeConv1D(axis=axis, kernel=kernel, stride=stride, padding=layer.padding)
        in_shape = (channels, node.in_shape[1], node.in_shape[2])
        fuse_cycles += mapping_stats(spec, in_shape, spec.out_shape(in_shape), array).cycles
    return baseline - fuse_cycles


def plan_replacements(
    network: Network,
    variant: FuSeVariant,
    array: Optional[ArrayConfig] = None,
) -> ReplacementPlan:
    """Choose which depthwise nodes to replace for ``variant``."""
    array = array or PAPER_ARRAY
    plan = ReplacementPlan(variant=variant, array=array)
    depthwise = network.find(DepthwiseConv2D)

    if not variant.ranks_by_latency:
        # Full replacement needs no ranking (and no latency evaluation).
        plan.replaced = [n.name for n in depthwise]
        return plan

    for node in depthwise:
        plan.savings[node.name] = _fuse_cycle_saving(node, variant.d, array)

    budget = round(len(depthwise) * variant.replace_fraction)
    ranked = sorted(depthwise, key=lambda n: plan.savings[n.name], reverse=True)
    chosen = {n.name for n in ranked[:budget]}
    for node in depthwise:
        (plan.replaced if node.name in chosen else plan.skipped).append(node.name)
    return plan


def _insert_fuse_subgraph(
    out: Network,
    source: List[str],
    layer: DepthwiseConv2D,
    d: int,
    channels: int,
    block: str,
) -> str:
    """Append the FuSe subgraph reading from ``source``; return concat name."""
    kh, kw = layer.kernel_hw
    if kh != kw:
        raise ValueError(
            f"FuSe replacement of a non-square {kh}x{kw} depthwise kernel "
            "is not defined by the paper"
        )
    kernel = kh
    stride = layer.stride_hw
    c_row, c_col = split_channels(channels, d)

    branches: List[str] = []
    if d == 1:
        row_in, col_in = source, source
    else:
        row_in = [out.add(ChannelSplit(0, c_row), inputs=source, block=block)]
        col_in = (
            [out.add(ChannelSplit(c_row, c_row + c_col), inputs=source, block=block)]
            if c_col
            else []
        )

    branches.append(
        out.add(
            FuSeConv1D(axis="row", kernel=kernel, stride=stride, padding=layer.padding),
            inputs=row_in,
            block=block,
        )
    )
    if c_col:
        branches.append(
            out.add(
                FuSeConv1D(axis="col", kernel=kernel, stride=stride, padding=layer.padding),
                inputs=col_in,
                block=block,
            )
        )
    return out.add(Concat(), inputs=branches, block=block)


def transform_with_plan(network: Network, plan: ReplacementPlan) -> TransformResult:
    """Rebuild ``network`` applying a replacement plan."""
    replaced: Set[str] = set(plan.replaced)
    out = Network(
        f"{network.name}+{plan.variant.label}", input_shape=network.input_shape
    )
    name_map: Dict[str, str] = {}
    for node in network:
        mapped_inputs = [name_map[src] for src in node.inputs]
        if node.name in replaced:
            layer = node.layer
            if not isinstance(layer, DepthwiseConv2D):
                raise TypeError(
                    f"plan selects non-depthwise node {node.name} ({node.kind})"
                )
            if layer.multiplier != 1:
                raise ValueError(
                    f"FuSe replacement of {node.name} with channel multiplier "
                    f"{layer.multiplier} is not defined by the paper"
                )
            new_name = _insert_fuse_subgraph(
                out,
                mapped_inputs,
                layer,
                plan.variant.d,
                channels=node.in_shape[0],
                block=node.block,
            )
            # Drop-in property: spatial size must be preserved and channels
            # must equal 2C/D (§IV-A).
            got = out[new_name].out_shape
            want_channels = 2 * node.in_shape[0] // plan.variant.d
            if got[1:] != node.out_shape[1:] or got[0] != want_channels:
                raise ValueError(
                    f"FuSe replacement of {node.name} broke the drop-in "
                    f"shape: got {got}, expected ({want_channels}, "
                    f"{node.out_shape[1]}, {node.out_shape[2]})"
                )
            name_map[node.name] = new_name
        else:
            name_map[node.name] = out.add(
                node.layer, inputs=mapped_inputs, name=node.name, block=node.block
            )
    return TransformResult(network=out, plan=plan)


def to_mixed_fuseconv(
    network: Network,
    choices: Dict[str, Optional[int]],
    name_suffix: str = "FuSe-mixed",
) -> Network:
    """Per-layer operator assignment (the NOS generalization, §VI).

    Args:
        network: baseline network.
        choices: maps each ``DepthwiseConv2D`` node name to a design knob —
            ``1`` (Full replacement), ``2`` (Half replacement), any larger
            D (the §VI extension: only ``2C/D`` channels survive the
            spatial stage) or ``None`` (keep the depthwise layer).
            Unlisted depthwise nodes are kept.

    Returns:
        A new network with the chosen mix of operators.
    """
    depthwise_names = {n.name for n in network.find(DepthwiseConv2D)}
    unknown = set(choices) - depthwise_names
    if unknown:
        raise KeyError(f"choices reference non-depthwise nodes: {sorted(unknown)}")
    for name, d in choices.items():
        if d is not None and (not isinstance(d, int) or d < 1):
            raise ValueError(
                f"choice for {name} must be None or a positive integer D, got {d}"
            )

    out = Network(f"{network.name}+{name_suffix}", input_shape=network.input_shape)
    name_map: Dict[str, str] = {}
    for node in network:
        mapped_inputs = [name_map[src] for src in node.inputs]
        d = choices.get(node.name)
        if node.name in depthwise_names and d is not None:
            layer = node.layer
            assert isinstance(layer, DepthwiseConv2D)
            name_map[node.name] = _insert_fuse_subgraph(
                out, mapped_inputs, layer, d,
                channels=node.in_shape[0], block=node.block,
            )
        else:
            name_map[node.name] = out.add(
                node.layer, inputs=mapped_inputs, name=node.name, block=node.block
            )
    return out


def to_fuseconv(
    network: Network,
    variant: FuSeVariant = FuSeVariant.FULL,
    array: Optional[ArrayConfig] = None,
) -> Network:
    """Drop-in FuSeConv replacement (the paper's network variants).

    Args:
        network: the baseline network (any network with DepthwiseConv2D
            nodes; the paper uses MobileNets and MnasNet).
        variant: which Table I variant to build.
        array: target array for the 50 %-selection ranking (default 64×64).

    Returns:
        A new network; the input network is not modified.
    """
    plan = plan_replacements(network, variant, array)
    return transform_with_plan(network, plan).network
