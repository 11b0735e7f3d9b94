"""Semantically partitioned TLB (related-work baseline, paper Section 7).

Lee and Ballapuram [37] split the data TLB into partitions serving
semantic regions — stack, global data, heap — so each lookup probes only
the (smaller, cheaper) partition its address belongs to; Ballapuram et
al. [10] later exploited the low entropy of stack/global addresses the
same way.  The semantic class of an address is known early (it comes
from the segment/region, not the translation), so the probe needs no
prediction.

Here the classifier is a chunk-granular map derived from the process's
VMAs: THP-ineligible "stack"-named VMAs form the stack class, other
ineligible VMAs the global class, everything else the heap class.
Partitions can have different geometries; statistics stay per partition
(they are separate structures to the energy model), and
:class:`repro.tlb.base.PartitionedTLB` sums them for reporting.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigurationError
from .base import PartitionedTLB
from .set_assoc import SetAssociativeTLB

#: Semantic classes, in partition order.
STACK, GLOBALS, HEAP = 0, 1, 2
CLASS_NAMES = ("stack", "globals", "heap")


class SemanticPartitionedTLB(PartitionedTLB):
    """An L1 TLB split into semantic partitions probed selectively."""

    def __init__(
        self,
        name: str,
        partitions: list[SetAssociativeTLB],
        classify: Callable[[int], int],
    ) -> None:
        super().__init__(name)
        if not partitions:
            raise ConfigurationError("need at least one partition")
        self.parts = partitions
        self._classify = classify

    def _part(self, key: int) -> SetAssociativeTLB:
        """The partition owning the address's semantic class."""
        return self.parts[self._classify(key)]


def classify_by_vma(address_space) -> Callable[[int], int]:
    """Build a chunk-granular semantic classifier from a VMA layout.

    Stack = THP-ineligible VMAs named like a stack; globals = other
    THP-ineligible VMAs; heap = everything else (and unknown addresses).
    """
    chunk_class: dict[int, int] = {}
    for vma in address_space:
        if not vma.thp_eligible:
            semantic = STACK if "stack" in vma.name else GLOBALS
        else:
            semantic = HEAP
        for chunk in range(vma.start_vpn >> 9, ((vma.end_vpn - 1) >> 9) + 1):
            chunk_class[chunk] = semantic

    def classify(vpn4k: int) -> int:
        return chunk_class.get(vpn4k >> 9, HEAP)

    return classify
