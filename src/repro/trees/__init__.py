"""Overlay trees: the generic tree abstraction plus random, offline
bottleneck-bandwidth (OMBT) and Overcast-like constructions."""

from repro.trees.bottleneck_tree import (
    build_bottleneck_tree,
    estimate_overlay_link_throughput,
    tree_bottleneck_estimate,
)
from repro.trees.overcast import build_overcast_tree
from repro.trees.random_tree import build_balanced_tree, build_random_tree
from repro.trees.tree import OverlayTree

__all__ = [
    "OverlayTree",
    "build_balanced_tree",
    "build_bottleneck_tree",
    "build_overcast_tree",
    "build_random_tree",
    "estimate_overlay_link_throughput",
    "tree_bottleneck_estimate",
]
