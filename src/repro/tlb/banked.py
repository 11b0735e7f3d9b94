"""Banked set-associative TLB (related-work baseline, paper Section 7).

Banked TLBs [17, 18, 37] cut lookup energy by partitioning the TLB into
banks and probing only the bank selected by address bits: each access
pays the read energy of a bank-sized structure instead of the whole TLB.
The cost is bank-conflict pressure — a hot set of pages that maps to one
bank only enjoys that bank's capacity.

The bank index comes from the VPN bits *above* the per-bank set index,
so consecutive pages first fill a bank's sets before spilling to the
next bank (the usual design point).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .base import PartitionedTLB
from .set_assoc import SetAssociativeTLB, _is_power_of_two


class BankedSetAssociativeTLB(PartitionedTLB):
    """A set-associative TLB split into independently probed banks."""

    def __init__(self, name: str, entries: int, ways: int, banks: int) -> None:
        super().__init__(name)
        if not _is_power_of_two(banks):
            raise ConfigurationError(f"bank count {banks} must be a power of two")
        if not _is_power_of_two(ways):
            raise ConfigurationError(f"associativity {ways} must be a power of two")
        if entries % banks != 0:
            raise ConfigurationError(f"{entries} entries not divisible by {banks} banks")
        self.entries = entries
        self.ways = ways
        self.parts = [
            SetAssociativeTLB(f"{name}[{index}]", entries // banks, ways)
            for index in range(banks)
        ]
        per_bank_sets = (entries // banks) // ways
        if per_bank_sets < 1:
            raise ConfigurationError("banks smaller than one set")
        self._set_shift = per_bank_sets.bit_length() - 1
        self._bank_mask = banks - 1

    @property
    def max_units(self) -> int:
        """Full capacity in ways (every bank has them all)."""
        return self.ways

    @property
    def bank_entries(self) -> int:
        """Capacity of one bank (the energy-relevant structure size)."""
        return self.entries // len(self.parts)

    def _part(self, key: int) -> SetAssociativeTLB:
        """The bank the VPN bits above the per-bank set index select."""
        return self.parts[(key >> self._set_shift) & self._bank_mask]

    def bank_occupancies(self) -> list[int]:
        """Per-bank occupancy (bank-imbalance diagnostics)."""
        return [bank.occupancy() for bank in self.parts]
