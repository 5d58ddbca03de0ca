"""Encoder-decoder segmentation network over a mesh hierarchy.

Per level the encoder runs three dual blocks and mean-pools to the next
level; the decoder unpools, concatenates the skip features of the same
level and runs three more dual blocks. A small linear head maps the
level-0 features to class logits. The very first convolution is the
relative (translation-invariant) variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..graph.neighborhoods import EdgeSet, scatter_sum
from ..hierarchy.trace import PoolingTraceMap, pool_features, unpool_features
from .edgeconv import DualBlock, prepared_edges
from .layers import BatchNorm, Linear, ReLU


@dataclass
class NetworkConfig:
    num_levels: int = 4
    blocks_per_level: int = 3
    num_classes: int = 21
    input_width: int = 9
    # (hidden, out) per level and branch; a zero out width disables the branch.
    geo_widths: Sequence[Tuple[int, int]] = ((64, 32),) * 4
    euc_widths: Sequence[Tuple[int, int]] = ((64, 32),) * 4
    head_hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        self.geo_widths = tuple(tuple(w) for w in self.geo_widths)
        self.euc_widths = tuple(tuple(w) for w in self.euc_widths)
        if self.num_levels < 1:
            raise ValueError("num_levels must be at least 1")
        if len(self.geo_widths) != self.num_levels or len(self.euc_widths) != self.num_levels:
            raise ValueError("need one width pair per level and branch")

    def level_width(self, level: int) -> int:
        return self.geo_widths[level][1] + self.euc_widths[level][1]

    @staticmethod
    def dual_default(num_classes=21, num_levels=4, seed=0) -> "NetworkConfig":
        widths = ((64, 32),) * num_levels
        return NetworkConfig(num_levels=num_levels, num_classes=num_classes,
                             geo_widths=widths, euc_widths=widths, seed=seed)

    @staticmethod
    def single_default(branch="geo", num_classes=21, num_levels=4, seed=0) -> "NetworkConfig":
        wide, none = ((128, 64),) * num_levels, ((0, 0),) * num_levels
        geo, euc = (wide, none) if branch == "geo" else (none, wide)
        return NetworkConfig(num_levels=num_levels, num_classes=num_classes,
                             geo_widths=geo, euc_widths=euc, seed=seed)


class SegmentationNetwork:
    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        L = config.num_levels

        def block(in_width, level, relative=False):
            return DualBlock(in_width, config.geo_widths[level],
                             config.euc_widths[level], rng, relative)

        self.encoder: List[List[DualBlock]] = []
        for lvl in range(L):
            blocks = []
            for b in range(config.blocks_per_level):
                if lvl == 0 and b == 0:
                    blocks.append(block(config.input_width, lvl, relative=True))
                elif b == 0:
                    blocks.append(block(config.level_width(lvl - 1), lvl))
                else:
                    blocks.append(block(config.level_width(lvl), lvl))
            self.encoder.append(blocks)

        self.decoder: List[List[DualBlock]] = []
        for lvl in range(L - 2, -1, -1):
            blocks = []
            fused = config.level_width(lvl + 1) + config.level_width(lvl)
            for b in range(config.blocks_per_level):
                blocks.append(block(fused if b == 0 else config.level_width(lvl), lvl))
            self.decoder.append(blocks)

        self.head_linear1 = Linear(config.level_width(0), config.head_hidden, rng)
        self.head_bn = BatchNorm(config.head_hidden)
        self.head_relu = ReLU()
        self.head_linear2 = Linear(config.head_hidden, config.num_classes, rng)

    # ------------------------------------------------------------- plumbing

    def parameters(self):
        for lvl, blocks in enumerate(self.encoder):
            for b, blk in enumerate(blocks):
                for name, p in blk.parameters():
                    yield f"encoder.{lvl}.{b}.{name}", p
        for i, blocks in enumerate(self.decoder):
            for b, blk in enumerate(blocks):
                for name, p in blk.parameters():
                    yield f"decoder.{i}.{b}.{name}", p
        for name, p in self.head_linear1.parameters():
            yield f"head.linear1.{name}", p
        for name, p in self.head_bn.parameters():
            yield f"head.bn.{name}", p
        for name, p in self.head_linear2.parameters():
            yield f"head.linear2.{name}", p

    def num_parameters(self) -> int:
        return sum(p.size for _, p in self.parameters())

    def zero_grad(self):
        for _, p in self.parameters():
            p.grad[...] = 0.0

    # -------------------------------------------------------------- forward

    def forward(self, features: np.ndarray, geo_edges: Sequence[EdgeSet],
                euc_edges: Sequence[EdgeSet], traces: Sequence[PoolingTraceMap],
                train: bool = False) -> np.ndarray:
        """Per-vertex class logits at level 0.

        geo_edges/euc_edges: one EdgeSet per level; traces: one per level
        transition (num_levels - 1 of them).
        """
        L = self.config.num_levels
        if len(geo_edges) != L or len(euc_edges) != L or len(traces) != L - 1:
            raise ValueError("edge sets / traces do not match the configured depth")
        geo = [prepared_edges(e) for e in geo_edges]
        euc = [prepared_edges(e) for e in euc_edges]
        self._traces = list(traces)

        x = np.asarray(features, dtype=np.float64)
        if x.shape[1] != self.config.input_width:
            raise ValueError(
                f"input width {x.shape[1]} != configured {self.config.input_width}"
            )

        skips = []
        for lvl in range(L):
            for blk in self.encoder[lvl]:
                x = blk.forward(x, geo[lvl], euc[lvl], train)
            if lvl < L - 1:
                skips.append(x)
                x = pool_features(x, traces[lvl])
        self._skip_shapes = [s.shape for s in skips]

        for i, blocks in enumerate(self.decoder):
            lvl = L - 2 - i
            x = unpool_features(x, traces[lvl])
            x = np.concatenate([x, skips[lvl]], axis=1)
            for blk in blocks:
                x = blk.forward(x, geo[lvl], euc[lvl], train)

        h = self.head_linear1.forward(x, train)
        h = self.head_bn.forward(h, train)
        h = self.head_relu.forward(h, train)
        return self.head_linear2.forward(h, train)

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; returns the input-feature gradient."""
        L = self.config.num_levels
        traces = self._traces

        dy = self.head_linear2.backward(dlogits)
        dy = self.head_relu.backward(dy)
        dy = self.head_bn.backward(dy)
        dy = self.head_linear1.backward(dy)

        dskips = [np.zeros(s) for s in self._skip_shapes]
        for i in range(len(self.decoder) - 1, -1, -1):
            lvl = L - 2 - i
            for blk in reversed(self.decoder[i]):
                dy = blk.backward(dy)
            w = self.config.level_width(lvl + 1)
            dskips[lvl] += dy[:, w:]
            # Adjoint of the copy: sum the upstream gradient over each group.
            dy = scatter_sum(dy[:, :w], traces[lvl].assignment, traces[lvl].coarse_count)

        for lvl in range(L - 1, -1, -1):
            if lvl < L - 1:
                # Adjoint of the group mean: divide by the group size, copy back.
                sizes = traces[lvl].group_sizes()[:, None]
                dy = unpool_features(dy / sizes, traces[lvl]) + dskips[lvl]
            for blk in reversed(self.encoder[lvl]):
                dy = blk.backward(dy)
        return dy

