"""Streak-coalescing fast-path drain engine (``Simulator(engine="fast")``).

The reference drain loop pays the full Python interpretation cost of
:meth:`repro.core.hierarchy.TLBHierarchy.access` for every reference.
Real reference streams, and the synthetic streams our workload models
produce, are dominated by *streaks*: consecutive accesses to the same
page (the ``burst`` parameter of :mod:`repro.workloads.patterns` is the
page-level image of cache-line streaming).  This engine exploits two
facts about such streams:

1. **Run-length coalescing.**  After the first access of a run, the
   referenced entry sits at the MRU position of every structure that
   holds it (every hitting structure performs its own LRU promotion, and
   a missing structure fills at MRU).  Each of the remaining ``n - 1``
   repeats is therefore a rank-0 hit whose only effect is counter
   arithmetic: per-structure pending hits, attribution, Lite's rank-0
   distance counter, and the aggregate access count.  The engine
   run-length-encodes the trace up front (numpy, vectorised) into two
   read-only int64 arrays, once per trace the cells of a matrix share
   (:func:`repro.workloads.base.shared_encoding`), and replays a whole
   run as one MRU probe plus O(1) counter bumps.  A generated drain turns
   only its own segment of tokens into Python ints.

2. **Shape-specialized code generation.**  The per-access pipeline is
   compiled (``exec``) into a drain function specialized to the
   hierarchy's current shape, its key in ``_TEMPLATES``.  Two templates
   exist, one per hierarchy type: for
   :class:`~repro.core.hierarchy.TLBHierarchy` the probe loop over L1
   slots is unrolled with each slot's ``shift``/set mask baked in as
   constants; for :class:`~repro.core.hierarchy.MixedTLBHierarchy` one
   mixed L1 probe and one mixed L2 probe share the size-disambiguated
   key.  In both,
   each set-associative TLB's per-set key lists and value dict and the
   Lite counter lists are hoisted into locals; a probe tests rank 0,
   then finds a deeper key with ``in`` and ``list.index``, which scan
   the set in C.  The L2 probe and the L2-hit L1 fill are inlined, and
   pending counters accumulate in local integers that are flushed into
   the structures' ``_pending_*`` fields when the drain returns.  The
   generated loop breaks whenever an access changes the drain shape (a
   walk enabling a new L1 slot, a fill latching a range TLB) and the
   engine re-specializes.

Legality rules (what makes the transformation exact):

* nothing inside a drain segment reads the pending counters, so local
  accumulation + flush commutes with the reference interleaving;
* a drain covers the accesses between two boundaries (Lite interval
  ends, timeline samples, scheduled events, checkpoints) and flushes
  before it returns, so ``checkpoint_hook`` observes byte-identical
  pending counts and digests at every boundary;
* a segment begins on a page: a run that a boundary splits resumes with
  one full access of its page, whatever the boundary did (a flush, or a
  demotion that re-keys the run), so a repeat can only be a rank-0 hit
  (see above); the generated repeat handler still carries a fallback
  that reverts its local deltas and replays the run through the
  reference path, so a structure violating the MRU argument degrades to
  slow-but-exact;
* in the mixed hierarchy the huge-chunk set, which picks each key, is
  read on entry to every drain: it changes only at OS events (demotion)
  and snapshot restores, both at boundaries, so a repeat reuses the key
  its run's access derived and left at rank 0 of L1-mixed — or, when
  the L1-range TLB served the run, finds that range at rank 0;
* dispatch is on the exact hierarchy type, from one table
  (``_TEMPLATES``): other types — the L0-filter and predicted-size
  subclasses, banked, semantic and fully-associative L1s — and shapes a
  template rejects (Lite monitoring on the L2, fully-associative L1
  slots) hand their ranges to the simulator's own reference drain —
  same results, reference speed.

Equivalence is proven, not argued: the differential harness
(``tests/test_fastpath.py``, ``scripts/perf_smoke.py``) runs every
configuration under both engines and compares byte-identical
``SimulationResult``s and per-component state digests at every boundary,
with :mod:`repro.resilience.bisect` pinpointing the first divergence on
mismatch.
"""

from __future__ import annotations

import numpy as np

from ..mmu.translation import translation_4kb
from ..tlb.set_assoc import SetAssociativeTLB
from ..workloads.base import shared_encoding
from ..workloads.tracefile import as_vpn_array
from .hierarchy import MixedTLBHierarchy, TLBHierarchy

__all__ = ["ENGINES", "FastEngine", "encode_trace"]

#: Engine names accepted by :class:`repro.core.simulator.Simulator`.
ENGINES = ("reference", "fast")


# ----------------------------------------------------------------------
# Trace preprocessing
# ----------------------------------------------------------------------
def encode_trace(trace) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode a trace into ``(tokens, cum)``, two int64 arrays.

    ``tokens`` interleaves page numbers with repeat sentinels: a run of
    ``n >= 2`` equal pages becomes the page number followed by
    ``-(n - 1)`` (page numbers are non-negative, so sign separates the
    two).  ``cum`` has ``len(tokens) + 1`` entries; ``cum[j]`` is the
    number of *accesses* covered by ``tokens[:j]``, which maps access
    positions (the simulator's boundary arithmetic) onto token positions
    via ``searchsorted``.  Both are read-only: the cells of a matrix share
    them, so a stray write raises rather than corrupt the next cell.
    """
    pages = as_vpn_array(trace)
    count = len(pages)
    # Slices, not indices, at the ends: an empty trace needs no branch.
    # Steps write in place where they can and drop each intermediate once
    # used, so the encode's peak stays near the size of what it returns.
    run_start = np.empty(count, dtype=bool)
    run_start[:1] = True
    np.not_equal(pages[1:], pages[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    del run_start
    interleaved = np.empty(len(starts) * 2, dtype=np.int64)
    interleaved[0::2] = pages[starts]
    sentinels = interleaved[1::2]  # -(run length - 1); 0 for singletons
    np.subtract(starts[:-1], starts[1:], out=sentinels[:-1])
    sentinels[-1:] = starts[-1:] - count
    del starts
    sentinels += 1
    keep = interleaved != 0
    keep[0::2] = True
    tokens = interleaved[keep]
    del interleaved, sentinels, keep
    cum = np.empty(len(tokens) + 1, dtype=np.int64)
    cum[0] = 0
    steps = cum[1:]
    np.negative(tokens, out=steps)
    np.maximum(steps, 1, out=steps)
    np.cumsum(steps, out=steps)
    tokens.flags.writeable = cum.flags.writeable = False
    return tokens, cum


# ----------------------------------------------------------------------
# Shape-specialized code generation
# ----------------------------------------------------------------------
def _inline_fill(index: int, key: str, value: str) -> list[str]:
    """Insert ``key`` at the MRU of L1 TLB ``index``'s set, store its
    value, and drop the evicted key's value.

    Legal only for a key that has just missed in that TLB: a resident
    key would need :meth:`SetAssociativeTLB.fill`'s duplicate removal.
    """
    return [
        f"pf{index} += 1",
        f"ef = sets{index}[{key} & mask{index}]",
        f"ef.insert(0, {key}); vals{index}[{key}] = {value}",
        f"if len(ef) > aw{index}: del vals{index}[ef.pop()]",
    ]


class _DrainSource:
    """The source lines of one generated drain, and the shared emitters.

    ``drain(segment)`` walks one segment, a token list that begins on a
    page, and returns the tokens left (nonzero only after a shape break)
    and the accesses its repeat fallback replayed.  A template fills
    ``header`` (run on entry), ``rbody`` (the repeat-sentinel handler,
    ``vpn < 0``: ``n`` more accesses to ``pv``), ``body`` (the per-access
    pipeline) and ``flush`` (its attribution counts), partly through the
    emitters here, which both templates share.  L1 page TLB ``i`` owns
    the locals ``t{i}``, ``sets{i}`` (its per-set key lists, MRU first),
    ``vals{i}`` (its key -> value dict), ``mask{i}``, ``c{i}`` and the
    counters ``ph{i}``/``pm{i}``/``at{i}``/``pf{i}``.  It holds no
    telemetry: the engine bumps its probe per drain call.
    """

    def __init__(self, h, namespace: dict, l1_tlbs: list, l2) -> None:
        self.h = h
        self.namespace = namespace
        self.l1_count = len(l1_tlbs)
        self.has_range = h._l1_range_active is not None
        self.has_l2r = h._l2_range_active is not None
        self.counters = [
            f"{name}{index}" for index in range(self.l1_count) for name in ("ph", "pm", "at", "pf")
        ]
        self.counters += ["rph", "rpm", "rattr", "p2h", "p2m", "l1m", "undone"]
        self.header: list[str] = []
        self.rbody = ["n = -vpn", "hit = -1"]
        self.body: list[str] = []
        self.flush: list[str] = []
        for index, tlb in enumerate(l1_tlbs):
            namespace[f"t{index}"] = tlb
            self.header.append(f"sets{index} = t{index}._sets; vals{index} = t{index}._values")
            self.header.append(f"mask{index} = t{index}._set_mask")
            if tlb.hit_rank_counters is not None:
                self.header.append(f"c{index} = t{index}.hit_rank_counters")
        # The L2 takes its own names: an L1 index never collides with them.
        namespace["tl2"] = l2
        self.header.append("setsl2 = tl2._sets; valsl2 = tl2._values; maskl2 = tl2._set_mask")
        self.range_counters = False
        if self.has_range:
            namespace["r"] = h._l1_range_active
            self.header.append("rstack = r._stack")
            if h._l1_range_active.hit_rank_counters is not None:
                self.range_counters = True
                self.header.append("rc = r.hit_rank_counters")
        if self.has_l2r:
            namespace["l2r"] = h._l2_range_active

    # ---- shared emitters ----------------------------------------------
    def l1_probe(self, index: int, key: str, repeat_key: str, mark: str, finish=None) -> None:
        """L1 TLB ``index``'s probe on ``key``, with LRU promotion.

        A hit runs ``mark``, which notes it for the attribution step after
        the range probe, or, given ``finish``, ends the access with that.
        Rank 0 is tested first; a deeper hit is found by ``in`` and
        ``list.index``, one C-level scan of the set each.  A repeat checks
        rank 0 only, on ``repeat_key``, and marks its hit.
        """
        counters = self.namespace[f"t{index}"].hit_rank_counters is not None
        rbody, body = self.rbody, self.body
        rbody.append(f"e = sets{index}[{repeat_key} & mask{index}]")
        rbody.append(f"if e and e[0] == {repeat_key}:")
        rbody.append(f"    ph{index} += n")
        if counters:
            rbody.append(f"    c{index}[0] += n")
        rbody.append(f"    {mark}")
        rbody.append("else:")
        rbody.append(f"    pm{index} += n")
        body.append(f"e = sets{index}[{key} & mask{index}]")
        body.append(f"if e and e[0] == {key}:")
        body.append(f"    ph{index} += 1")
        if counters:
            body.append(f"    c{index}[0] += 1")
        body.append(f"    {finish or mark}")
        body.append(f"elif {key} in e:")
        body.append(f"    ph{index} += 1; rank = e.index({key})")
        if counters:
            body.append(f"    c{index}[rank.bit_length()] += 1")
        body.append(f"    del e[rank]; e.insert(0, {key})")
        body.append(f"    {finish or mark}")
        body.append("else:")
        body.append(f"    pm{index} += 1")

    def range_probe(self) -> None:
        """The live L1-range TLB's probe, after the L1 page probes.

        A range hit takes attribution precedence and ends the access.  A
        repeat checks only rank 0: a run the range TLB served left its
        range there, and ranges never overlap.
        """
        if not self.has_range:
            return
        rbody, body = self.rbody, self.body
        rbody.append("if rstack:")
        rbody.append("    r0 = rstack[0]")
        rbody.append("    if r0.base_vpn <= pv < r0.limit_vpn:")
        rbody.append("        rph += n; rattr += n")
        rbody.append("        hit = -1")
        if self.range_counters:
            rbody.append("        rc[0] += n")
        rbody.append("        continue")
        rbody.append("rpm += n")
        body.append("if rstack:")
        body.append("    r0 = rstack[0]")
        body.append("    if r0.base_vpn <= vpn < r0.limit_vpn:")
        body.append("        rph += 1; rattr += 1")
        if self.range_counters:
            body.append("        rc[0] += 1")
        body.append("        hit = -1")
        body.append("        continue")
        body.append("    rank = 1; ln = len(rstack); rhit = None")
        body.append("    while rank < ln:")
        body.append("        rng = rstack[rank]")
        body.append("        if rng.base_vpn <= vpn < rng.limit_vpn:")
        body.append("            rhit = rng; break")
        body.append("        rank += 1")
        body.append("    if rhit is not None:")
        body.append("        rph += 1; rattr += 1")
        if self.range_counters:
            body.append("        rc[rank.bit_length()] += 1")
        body.append("        del rstack[rank]; rstack.insert(0, rhit)")
        body.append("        hit = -1")
        body.append("        continue")
        body.append("    rpm += 1")
        body.append("else:")
        body.append("    rpm += 1")

    def repeat_fallback(self, probes) -> None:
        """Close the repeat handler: revert the optimistic deltas, replay.

        Reached only when no structure served the repeat at rank 0, which
        the MRU argument rules out; kept so that a structure violating it
        degrades to slow-but-exact.  ``probes`` pairs each L1 index with
        the key expression of its rank-0 check.
        """
        rbody = self.rbody
        rbody.append("else:")
        for index, key in probes:
            rbody.append(f"    e = sets{index}[{key} & mask{index}]")
            rbody.append(f"    if e and e[0] == {key}: ph{index} -= n")
            rbody.append(f"    else: pm{index} -= n")
        if self.has_range:
            rbody.append("    rpm -= n")
        rbody.append("    undone += n")
        rbody.append("    for _ in range(n): slow(pv)")
        rbody.append("    if shape_key(h) != shape: break")
        rbody.append("continue")

    def l2_probe(self, key: str, hit_fill: list[str], range_fill: list[str]) -> None:
        """L1 miss: the inlined L2 probe on ``key`` (``in``, then
        ``list.index`` for its rank), the L2-range lookup, the L1 fill
        (``hit_fill`` installs the L2 entry ``pe``, ``range_fill``
        synthesises one from the range ``re_``), and on a full miss the
        reference walk-and-fill.
        """
        body = self.body
        body.append("l1m += 1")
        body.append(f"e = setsl2[{key} & maskl2]")
        body.append(f"if {key} in e:")
        body.append(f"    p2h += 1; rank = e.index({key})")
        body.append("    if rank:")
        body.append(f"        del e[rank]; e.insert(0, {key})")
        body.append(f"    pe = valsl2[{key}]")
        body.append("else:")
        body.append("    p2m += 1; pe = None")
        if self.has_l2r:
            body.append("re_ = l2r.lookup(vpn)")
            if self.h.l1_range is not None and self.has_range:
                body.append("if re_ is not None:")
                body.append("    r.fill(re_)")
            elif self.h.l1_range is not None:
                # First L2-range hit latches the L1-range TLB: shape change.
                body.append("if re_ is not None:")
                body.append("    h.l1_range.fill(re_)")
                body.append("    h._l1_range_active = h.l1_range")
                body.append("    shape_dirty = 1")
        body.append("if pe is not None:")
        body += ["    " + line for line in hit_fill]
        if self.has_l2r:
            body.append("elif re_ is not None:")
            body += ["    " + line for line in range_fill]
            body.append("if pe is not None or re_ is not None:")
            body.append("    if shape_dirty: break")
            body.append("    continue")
        else:
            body.append("    continue")
        body.append("walk_fill(vpn)")
        body.append("if shape_key(h) != shape:")
        body.append("    break")

    # ---- assembly -------------------------------------------------------
    def compile(self):
        """Append the common flush, ``exec`` the source, return ``drain``."""
        flush = list(self.flush)
        for index in range(self.l1_count):
            flush.append(
                f"t{index}._pending_hits += ph{index}; "
                f"t{index}._pending_misses += pm{index}; "
                f"t{index}._pending_fills += pf{index}"
            )
        flush.append("tl2._pending_hits += p2h; tl2._pending_misses += p2m")
        if self.has_range:
            flush.append("r._pending_hits += rph; r._pending_misses += rpm")
            flush.append("h.range_attributed_hits += rattr")
        flush.append("h.l1_misses += l1m")

        lines = ["def drain(segment):"]
        lines += ["    " + text for text in self.header]
        lines.append("    " + " = ".join(self.counters) + " = 0; hit = -1; shape_dirty = 0")
        # The iterator's length hint gives the tokens left after a shape
        # break: no index is carried through the loop.
        lines.append("    it = iter(segment)")
        lines.append("    hint = it.__length_hint__")
        lines.append("    for vpn in it:")
        lines.append("        if vpn < 0:")
        lines += ["            " + text for text in self.rbody]
        lines.append("        pv = vpn")
        lines += ["        " + text for text in self.body]
        lines += ["    " + text for text in flush]
        lines.append("    return hint(), undone")
        source = "\n".join(lines)
        self.namespace["__repro_source__"] = source
        exec(source, self.namespace)
        drain = self.namespace["drain"]
        del self.namespace["drain"]  # no self-cycle: frees the hierarchy with the run
        drain.__repro_source__ = source
        return drain


def _paged_source(h, namespace):
    """Template for :class:`TLBHierarchy`: one unrolled probe per L1 slot.

    Each active slot's ``shift`` and set mask are baked in.  ``None``
    when a page TLB is not set-associative, the L2 carries Lite counters,
    or the L1-4KB slot (the L2-hit fill target) is not active.
    """
    slots = tuple(h._active_slots)
    tlbs = [slot.tlb for slot in slots]
    if h._slot_4kb not in slots or h.l2_page.hit_rank_counters is not None:
        return None
    if any(type(tlb) is not SetAssociativeTLB for tlb in (*tlbs, h.l2_page)):
        return None
    src = _DrainSource(h, namespace, tlbs, h.l2_page)
    has_range = src.has_range
    rbody, body, flush = src.rbody, src.body, src.flush
    nslots = len(slots)
    last = nslots - 1
    fill4 = slots.index(h._slot_4kb)
    src.header.append(f"aw{fill4} = t{fill4}.active_ways")
    for si, slot in enumerate(slots):
        namespace[f"slot{si}"] = slot
        finish = None
        if si == last and not has_range:
            # Attribution shortcut: with no live range TLB, a last-slot
            # hit is always the attributed hit; the flush adds ph{last}
            # to attributed_hits instead of bumping per access.
            finish = "hit = -1; continue" if nslots > 1 else "continue"
        if slot.shift:
            rbody.append(f"k = pv >> {slot.shift}")
            body.append(f"k = vpn >> {slot.shift}")
            src.l1_probe(si, "k", "k", f"hit = {si}", finish)
        else:
            src.l1_probe(si, "vpn", "pv", f"hit = {si}", finish)
    src.range_probe()

    for si in range(nslots):
        rbody.append(f"{'if' if si == 0 else 'elif'} hit == {si}:")
        rbody.append(f"    at{si} += n")
        rbody.append("    hit = -1")
    src.repeat_fallback(
        [(si, f"(pv >> {slot.shift})" if slot.shift else "pv") for si, slot in enumerate(slots)]
    )
    if nslots > 1 or has_range:
        body.append("if hit >= 0:")
        attributed = range(nslots) if has_range else range(nslots - 1)
        for si in attributed:
            body.append(f"    {'if' if si == 0 else 'elif'} hit == {si}: at{si} += 1")
        if not has_range:
            body.append(f"    else: at{last} += 1")
        body.append("    hit = -1")
        body.append("    continue")
    src.l2_probe(
        "vpn",
        hit_fill=_inline_fill(fill4, "vpn", "pe"),
        range_fill=_inline_fill(fill4, "vpn", "translation_4kb(vpn, vpn + re_.offset)"),
    )
    for si in range(nslots):
        hits = f"ph{si}" if si == last and not has_range else f"at{si}"
        flush.append(f"slot{si}.attributed_hits += {hits}")
    return src


def _mixed_source(h, namespace):
    """Template for :class:`MixedTLBHierarchy`: one mixed L1 probe.

    The key is ``((vpn >> 9) << 1) | 1`` when ``vpn >> 9`` is a huge
    chunk and ``vpn << 1`` otherwise, as in ``access``; its low bit is
    the huge bit, which splits attribution.  ``None`` when a mixed TLB is
    not set-associative or the L2 carries Lite counters.
    """
    l1, l2 = h.l1_mixed, h.l2_mixed
    if type(l1) is not SetAssociativeTLB or type(l2) is not SetAssociativeTLB:
        return None
    if l2.hit_rank_counters is not None:
        return None
    src = _DrainSource(h, namespace, [l1], l2)
    has_range = src.has_range
    rbody, body = src.rbody, src.body
    src.counters.append("a2")  # attributed page hits on 2 MB keys
    # Read on every call, never at generation time: load_state_dict
    # rebinds the set and demotions shrink it, both only at boundaries.
    src.header.append("huge = h._huge_chunks")
    src.header.append("aw0 = t0.active_ways")
    # A repeat reuses k, the key its run's access just before it derived:
    # the huge set is fixed within a drain, and a segment starts on a page.
    body.append("ch = vpn >> 9")
    body.append("if ch in huge: k = (ch << 1) | 1")
    body.append("else: k = vpn << 1")
    # Without a live range TLB every page hit is the attributed hit: the
    # flush derives the 4 KB share from ph0, and only a2 is bumped here.
    src.l1_probe(0, "k", "k", "hit = 0", None if has_range else "a2 += k & 1; continue")
    src.range_probe()

    rbody.append("if hit == 0:")
    if has_range:
        rbody.append("    at0 += n")
    rbody.append("    if k & 1: a2 += n")
    rbody.append("    hit = -1")
    src.repeat_fallback([(0, "k")])
    if has_range:
        body.append("if hit >= 0:")
        body.append("    at0 += 1; a2 += k & 1")
        body.append("    hit = -1")
        body.append("    continue")
    # The L2-hit fill is inlined: its key k has just missed in L1-mixed.
    # The range-synthesis fill calls fill(): its key vpn << 1 may already
    # be resident when vpn is 2 MB-mapped.
    src.l2_probe(
        "k",
        hit_fill=_inline_fill(0, "k", "pe"),
        range_fill=["t0.fill(vpn << 1, translation_4kb(vpn, vpn + re_.offset))"],
    )
    src.flush.append("h.attributed_hits_2mb += a2")
    src.flush.append(f"h.attributed_hits_4kb += {'at0' if has_range else 'ph0'} - a2")
    return src


def _paged_shape_key(h):
    # Slot identity and order, not just their count: the probe order
    # decides attribution.
    return (tuple(h._active_slots), h._l1_range_active, h._l2_range_active)


def _mixed_shape_key(h):
    # Not the huge-chunk set: each drain reads it on entry.
    return (h._l1_range_active, h._l2_range_active)


#: Exact hierarchy type -> (key of its current shape, drain template).
#: Dispatch is on the exact type: the subclasses (``L0FilterHierarchy``,
#: ``PredictedMixedHierarchy``) override ``access`` and keep the
#: reference pass-through.  The key is the only regeneration trigger: a
#: generated drain breaks when an access changes it (a walk enabling a
#: new L1 slot, a fill latching a range TLB), and everything else it
#: touches is mutated strictly in place (per-set key lists, value dicts,
#: range recency stacks and Lite's raw counter lists keep their identity
#: across fills, resizes and flushes).
_TEMPLATES = {
    TLBHierarchy: (_paged_shape_key, _paged_source),
    MixedTLBHierarchy: (_mixed_shape_key, _mixed_source),
}


def _segment(tokens, cum, start: int, stop: int, end: int) -> list:
    """The tokens covering accesses ``[start, stop)``, as Python ints.

    ``end`` is the first token at or after ``stop``; a sentinel ``stop``
    cuts is shortened, and a run ``start`` splits resumes with one full
    access of its page.  int(): a leaked np.int64 would poison the
    pure-JSON state digests.
    """
    first = int(cum.searchsorted(start, "right")) - 1
    segment = tokens[first:end].tolist()
    segment[-1] += int(cum[end]) - stop
    if segment[0] < 0:
        page = int(tokens[first - 1])
        rest = segment[0] + start - int(cum[first]) + 1
        segment[0:1] = [page, rest] if rest else [page]
    return segment


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class FastEngine:
    """Per-run drain engine over the encoded trace.

    ``drain(start, stop)`` consumes access positions ``[start, stop)``
    exactly like the reference drain loop; the simulator calls it
    between consecutive boundaries.  ``replay`` is that reference drain,
    the simulator's own: every range of a hierarchy type or shape without
    a template goes to it.  The engine keeps no position, so a resumed
    run may start anywhere.  Generated drains are cached by their
    template's shape key (for the paged template the identity and order
    of the active slots; for both, the latched range TLBs), so
    boundary-heavy runs (Lite intervals, dense checkpointing) regenerate
    nothing.
    """

    __slots__ = ("_hierarchy", "_replay", "_tokens", "_cum", "_drains", "_probe")

    def __init__(self, hierarchy, trace, replay, probe=None) -> None:
        self._hierarchy = hierarchy
        self._replay = replay
        self._probe = probe
        vpns = as_vpn_array(trace)
        # Only the exact types in _TEMPLATES have a template, and the type
        # never changes mid-run, so any other type's trace is not encoded.
        self._tokens = self._cum = None
        if type(hierarchy) in _TEMPLATES:
            self._tokens, self._cum = shared_encoding(vpns, encode_trace)
        self._drains: dict = {}

    # ------------------------------------------------------------------
    def drain(self, start: int, stop: int) -> None:
        """Feed accesses ``[start, stop)`` through the hierarchy."""
        hierarchy, probe, cum = self._hierarchy, self._probe, self._cum
        while start < stop:
            drain = self._drain_for_shape()
            if drain is None:
                # No template for this type or shape: the reference drain.
                if probe is not None:
                    probe.fallback_spans += 1
                    probe.replayed_accesses += stop - start
                self._replay(start, stop)
                return
            end = int(cum.searchsorted(stop))
            # The segment is an argument only: the drain holds the one list.
            left, replayed = drain(_segment(self._tokens, cum, start, stop, end))
            reached = stop
            if left:
                # A shape break: the tokens left are tokens[end - left:end],
                # unless the break came on a split run's resumed access.
                reached = max(int(cum[end - left]), start + 1)
            # The replayed accesses went through access(), which counted them.
            drained = reached - start - replayed
            hierarchy.accesses += drained
            if probe is not None:
                probe.coalesced_accesses += drained
                probe.replayed_accesses += replayed
                probe.drained_segments += 1
            start = reached

    def _drain_for_shape(self):
        """Cached specialized drain for the current shape (None = fallback)."""
        if self._cum is None:
            return None  # a type without a template
        hierarchy = self._hierarchy
        shape_key, template = _TEMPLATES[type(hierarchy)]
        shape = shape_key(hierarchy)
        try:
            return self._drains[shape]
        except KeyError:
            pass
        namespace = {
            "h": hierarchy,
            "walk_fill": hierarchy.walk_fill,
            "slow": hierarchy.access,
            "shape_key": shape_key,
            "shape": shape,
            "translation_4kb": translation_4kb,
        }
        source = template(hierarchy, namespace)
        drain = None if source is None else source.compile()
        if drain is not None and self._probe is not None:
            self._probe.generated_drains += 1
        self._drains[shape] = drain
        return drain
