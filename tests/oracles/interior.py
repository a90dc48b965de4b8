"""The scalar interior stepper, kept as the fused stepper's oracle.

``step`` and ``take_window`` moved verbatim out of
:class:`repro.hierarchy.interior.InteriorCluster` when
:meth:`~repro.hierarchy.interior.ClusterShard.step_window` became the only
stepper in ``src/``: plain Python, one edge at a time, one simulation step per
call.  The arithmetic per edge — carry add, floor, min, loss
multiply-accumulate, floor — is exactly the elementwise sequence the fused
stepper runs over its level arrays, so the equivalence suites require
bit-equal counts, windows and carries.
"""

import math
from typing import List, Tuple

from repro.hierarchy.interior import InteriorCluster


class ScalarInteriorCluster(InteriorCluster):
    """An :class:`InteriorCluster` that steps itself, edge by edge."""

    def step(self, head_delta: int) -> None:
        """Scalar reference step: advance the root, then every level's edges."""
        if head_delta < 0:
            raise ValueError("head_delta must be non-negative")
        counts = self.counts
        counts[self._root_idx] += head_delta
        for level in self._levels:
            for idx in level:
                parent = self._parent[idx]
                avail = counts[parent] - counts[idx]
                capf = self._cap_carry[idx] + self._cap_step[idx]
                grant = math.floor(capf)
                self._cap_carry[idx] = capf - grant
                taken = avail if avail < grant else grant
                if taken < 0:
                    taken = 0
                lossf = self._loss_carry[idx] + taken * self._loss_rate[idx]
                lost = math.floor(lossf)
                self._loss_carry[idx] = lossf - lost
                delivered = taken - lost
                if delivered < 0:
                    delivered = 0
                counts[idx] += delivered
                self.window[idx] += delivered

    def take_window(self) -> List[Tuple[int, int]]:
        """Drain (node, packets delivered since last flush) in member order."""
        report: List[Tuple[int, int]] = []
        for position, node in enumerate(self.members):
            delivered = self.window[position]
            if delivered:
                report.append((node, delivered))
                self.window[position] = 0
        return report
