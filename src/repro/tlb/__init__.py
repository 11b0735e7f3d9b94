"""TLB structures: set-associative, fully-associative, and range TLBs."""

from .banked import BankedSetAssociativeTLB
from .base import BatchedTLB, PartitionedTLB, TLBStats, TranslationStructure
from .fully_assoc import FullyAssociativeTLB, RecencyStackTLB
from .mixed_fa import MixedFullyAssociativeTLB
from .range_tlb import RangeTLB
from .replacement import PLRUSetAssociativeTLB
from .semantic import SemanticPartitionedTLB, classify_by_vma
from .set_assoc import SetAssociativeTLB

__all__ = [
    "TLBStats",
    "TranslationStructure",
    "BatchedTLB",
    "RecencyStackTLB",
    "PartitionedTLB",
    "SetAssociativeTLB",
    "BankedSetAssociativeTLB",
    "FullyAssociativeTLB",
    "MixedFullyAssociativeTLB",
    "RangeTLB",
    "PLRUSetAssociativeTLB",
    "SemanticPartitionedTLB",
    "classify_by_vma",
]
