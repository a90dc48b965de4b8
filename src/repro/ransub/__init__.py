"""RanSub: periodic dissemination of changing, uniformly random subsets of
global state over an overlay tree (collect/distribute with Compact)."""

from repro.ransub.compact import compact
from repro.ransub.protocol import (
    RanSubCollect,
    RanSubDistribute,
    RanSubNodeState,
)
from repro.ransub.state import (
    CollectSet,
    DEFAULT_SET_SIZE,
    DistributeSet,
    MemberSummary,
    RanSubView,
)

__all__ = [
    "CollectSet",
    "DEFAULT_SET_SIZE",
    "DistributeSet",
    "MemberSummary",
    "RanSubCollect",
    "RanSubDistribute",
    "RanSubNodeState",
    "RanSubView",
    "compact",
]
