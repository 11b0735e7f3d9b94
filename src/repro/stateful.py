"""The checkpoint protocol: ``state_dict()`` / ``load_state_dict()``.

Every stateful class that a snapshot restores — TLBs of all
organizations, replacement state, Lite interval counters, walker
statistics, seeded RNG streams — obeys one contract:

* ``state_dict()`` returns a **pure-JSON** representation of the mutable
  state: only ``dict`` / ``list`` / ``str`` / ``int`` / ``float`` /
  ``bool`` / ``None``, with deterministic content (no set iteration
  order, no id()-derived values).  Immutable construction geometry
  (entry counts, ways, names) is *not* serialized — a snapshot is always
  restored onto an object rebuilt through the canonical construction
  path — but geometry is re-validated on load.
* ``load_state_dict(state)`` restores that state **in place**, raising
  :class:`repro.errors.CheckpointError` when the target object's
  geometry does not match the snapshot.

The process and its page table, range table and frame allocator have
only the first half: a snapshot records the digest of their state, and
a restore rebuilds them instead of loading them.

Pure-JSON states make the rest of the resilience machinery trivial:
snapshot files are plain JSON (versioned + checksummed by
:mod:`repro.resilience.checkpoint`), and golden state hashes are just
digests of the canonical JSON encoding — identical states produce
identical bytes produce identical digests, on any platform.

This module holds the shared encoding helpers: a tagged codec for the
translation objects TLB entries carry, and converters for
``random.Random`` state and ``collections.Counter`` histograms.
"""

from __future__ import annotations

from collections import Counter

from .errors import CheckpointError

#: Tags of the entry codec (first element of an encoded list).
_TAG_TRANSLATION = "T"
_TAG_RANGE = "R"


def _translation_types():
    # Imported lazily: repro.tlb depends on this module at import time,
    # and repro.mmu imports repro.tlb, so a top-level import here would
    # close a cycle.
    from .mmu.translation import PageSize, RangeTranslation, Translation

    return PageSize, RangeTranslation, Translation


def encode_entry(value):
    """Encode one TLB entry value into pure JSON.

    Page TLBs cache :class:`Translation` objects, range TLBs cache
    :class:`RangeTranslation`, MMU caches cache ``True``; tests also use
    bare ints/strings.  Structured objects become tagged lists, scalars
    pass through unchanged.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    _, RangeTranslation, Translation = _translation_types()
    if isinstance(value, Translation):
        return [_TAG_TRANSLATION, value.vpn, value.pfn, int(value.page_size)]
    if isinstance(value, RangeTranslation):
        return [_TAG_RANGE, value.base_vpn, value.limit_vpn, value.base_pfn]
    raise CheckpointError(f"cannot encode TLB entry of type {type(value).__name__}")


def decode_entry(data):
    """Invert :func:`encode_entry`."""
    if isinstance(data, list):
        PageSize, RangeTranslation, Translation = _translation_types()
        if len(data) == 4 and data[0] == _TAG_TRANSLATION:
            return Translation(data[1], data[2], PageSize(data[3]))
        if len(data) == 4 and data[0] == _TAG_RANGE:
            return RangeTranslation(data[1], data[2], data[3])
        raise CheckpointError(f"unknown encoded entry {data!r}")
    return data


def rng_state_to_json(state) -> list:
    """``random.Random.getstate()`` → JSON (tuples become lists)."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def rng_state_from_json(data):
    """Invert :func:`rng_state_to_json` back into ``setstate()`` form."""
    try:
        version, internal, gauss_next = data
        return (version, tuple(internal), gauss_next)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed RNG state {data!r}") from exc


def counter_to_json(counter: Counter) -> dict:
    """Histogram keyed by ints → JSON object keyed by decimal strings."""
    return {str(key): value for key, value in sorted(counter.items())}


def counter_from_json(data: dict) -> Counter:
    """Invert :func:`counter_to_json`."""
    return Counter({int(key): value for key, value in data.items()})


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckpointError` when a load-time check fails."""
    if not condition:
        raise CheckpointError(message)
