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
   run-length-encodes the trace up front (numpy, vectorised) and replays
   a whole run as one MRU probe plus O(1) counter bumps.

2. **Shape-specialized code generation.**  The per-access pipeline is
   compiled (``exec``) into a drain function specialized to the
   hierarchy's current :meth:`~repro.core.hierarchy.TLBHierarchy.
   drain_shape`: the probe loop over L1 slots is unrolled with each
   slot's ``shift``/set mask baked in as constants, set lists and Lite
   counter lists are hoisted into locals, the L2 probe and L1-4KB fill
   are inlined, and pending counters accumulate in local integers that
   are flushed into the structures' ``_pending_*`` fields when the drain
   returns.  The generated loop breaks whenever an access changes the
   drain shape (a walk enabling a new L1 slot, a fill latching a range
   TLB) and the engine re-specializes.

Legality rules (what makes the transformation exact):

* nothing inside a drain segment reads the pending counters, so local
  accumulation + flush commutes with the reference interleaving;
* streaks never cross a segment boundary — the simulator's drain loop
  splits at every Lite interval end, timeline sample, scheduled event,
  and checkpoint boundary, and this engine additionally splits runs that
  straddle a boundary, replaying the partial run through the reference
  ``access`` path — so ``checkpoint_hook`` observes byte-identical
  pending counts and digests at every boundary;
* a repeat access can only be a rank-0 hit (see above); the generated
  repeat handler still carries a fallback that reverts its local deltas
  and replays the run through the reference path, so a structure
  violating the MRU argument degrades to slow-but-exact;
* hierarchies the generator does not recognize (mixed/predicted/banked
  L1s, Lite monitoring on the L2, fully-associative L1 slots) fall back
  to replaying the raw trace slice through the reference ``access``
  method — same results, reference speed.

Equivalence is proven, not argued: the differential harness
(``tests/test_fastpath.py``, ``scripts/perf_smoke.py``) runs every
configuration under both engines and compares byte-identical
``SimulationResult``s and per-component state digests at every boundary,
with :mod:`repro.resilience.bisect` pinpointing the first divergence on
mismatch.
"""

from __future__ import annotations

import numpy as np

from ..mmu.translation import PageSize, Translation
from ..tlb.set_assoc import SetAssociativeTLB
from ..workloads.tracefile import as_vpn_array
from .hierarchy import TLBHierarchy

__all__ = ["ENGINES", "FastEngine", "encode_trace"]

#: Engine names accepted by :class:`repro.core.simulator.Simulator`.
ENGINES = ("reference", "fast")


# ----------------------------------------------------------------------
# Trace preprocessing
# ----------------------------------------------------------------------
def encode_trace(trace) -> tuple[list[int], np.ndarray]:
    """Run-length encode a trace into ``(tokens, cum)``.

    ``tokens`` interleaves page numbers with repeat sentinels: a run of
    ``n >= 2`` equal pages becomes the page number followed by
    ``-(n - 1)`` (page numbers are non-negative, so sign separates the
    two).  ``cum`` has ``len(tokens) + 1`` entries; ``cum[j]`` is the
    number of *accesses* covered by ``tokens[:j]``, which maps access
    positions (the simulator's boundary arithmetic) onto token positions
    via ``searchsorted``.
    """
    pages = as_vpn_array(trace)
    count = len(pages)
    if count == 0:
        return [], np.zeros(1, dtype=np.int64)
    run_start = np.empty(count, dtype=bool)
    run_start[0] = True
    np.not_equal(pages[1:], pages[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    ends = np.empty(len(starts), dtype=np.int64)
    ends[:-1] = starts[1:]
    ends[-1] = count
    interleaved = np.empty(len(starts) * 2, dtype=np.int64)
    interleaved[0::2] = pages[starts]
    interleaved[1::2] = 1 - (ends - starts)  # -(run length - 1); 0 for singletons
    keep = interleaved != 0
    keep[0::2] = True
    tokens = interleaved[keep]
    cum = np.empty(len(tokens) + 1, dtype=np.int64)
    cum[0] = 0
    np.cumsum(np.maximum(-tokens, 1), out=cum[1:])
    return tokens.tolist(), cum


# ----------------------------------------------------------------------
# Shape-specialized code generation
# ----------------------------------------------------------------------
def _generate_drain(h, probe=None):
    """Compile a drain function specialized to ``h``'s current shape.

    Returns ``None`` when the hierarchy is not a plain
    :class:`TLBHierarchy` with set-associative page TLBs (and no Lite
    monitoring on the L2) — the engine then falls back to the reference
    ``access`` path for that shape.

    The generated function has signature ``drain(tokens, cum, start,
    stop)`` over *token* positions, returns the token position where it
    stopped (``stop``, or earlier after a shape change), and flushes its
    locally accumulated counts into the live structures before
    returning.

    ``probe`` (a :class:`repro.observability.FastPathProbe`) is the
    telemetry hook: when present, per-*segment* probe-bump statements
    are appended to the flush section.  When absent — the default, and
    always the case with telemetry disabled — those statements are never
    emitted, so the generated source is byte-identical to an
    uninstrumented build (assert ``"probe" not in
    drain.__repro_source__``).
    """
    if type(h) is not TLBHierarchy:
        return None
    if type(h.l2_page) is not SetAssociativeTLB or h.l2_page.hit_rank_counters is not None:
        return None
    if type(h._slot_4kb.tlb) is not SetAssociativeTLB:
        return None
    slots = tuple(h._active_slots)
    for slot in slots:
        if type(slot.tlb) is not SetAssociativeTLB:
            return None

    namespace = {
        "h": h,
        "walk_fill": h.walk_fill,
        "slow": h.access,
        "Translation": Translation,
        "S4K": PageSize.SIZE_4KB,
        "t2": h.l2_page,
    }
    header, body, rbody, flush = [], [], [], []
    nslots = len(slots)
    last = nslots - 1
    has_range = h._l1_range_active is not None
    has_l2r = h._l2_range_active is not None
    l1r_exists = h.l1_range is not None
    shape = (nslots, has_range, has_l2r)
    slot4 = h._slot_4kb
    slot4_index = None
    for si, slot in enumerate(slots):
        namespace[f"slot{si}"] = slot
        namespace[f"t{si}"] = slot.tlb
        if slot is slot4:
            slot4_index = si
        header.append(f"sets{si} = t{si}._sets; mask{si} = t{si}._set_mask")
        if slot.tlb.hit_rank_counters is not None:
            header.append(f"c{si} = t{si}.hit_rank_counters")
    # The L1-4KB TLB is the fill target of the L2-hit path even before
    # its slot first hits; bind it whether or not it is an active slot.
    namespace["t4"] = slot4.tlb
    if slot4_index is None:
        header.append("sets4 = t4._sets; mask4 = t4._set_mask; aw4 = t4.active_ways")
        fill4 = ("sets4", "mask4", "aw4", "pf4")
    else:
        header.append(f"aw{slot4_index} = t{slot4_index}.active_ways")
        fill4 = (
            f"sets{slot4_index}",
            f"mask{slot4_index}",
            f"aw{slot4_index}",
            f"pf{slot4_index}",
        )
    header.append("sets2 = t2._sets; mask2 = t2._set_mask")
    range_counters = False
    if has_range:
        namespace["r"] = h._l1_range_active
        header.append("rstack = r._stack")
        if h._l1_range_active.hit_rank_counters is not None:
            range_counters = True
            header.append("rc = r.hit_rank_counters")
    if has_l2r:
        namespace["l2r"] = h._l2_range_active

    # ---- repeat-sentinel handler (token < 0: n more hits on pv) -------
    # Every structure that holds pv has it at rank 0 (see module doc), so
    # a repeat is pure counter arithmetic.  The trailing else reverts the
    # optimistic deltas and replays through the reference path.
    rbody.append("n = -vpn")
    rbody.append("hit = -1")
    for si, slot in enumerate(slots):
        shift = slot.shift
        key = "pv" if not shift else "k"
        if shift:
            rbody.append(f"k = pv >> {shift}")
        rbody.append(f"e = sets{si}[{key} & mask{si}]")
        rbody.append(f"if e and e[0][0] == {key}:")
        rbody.append(f"    ph{si} += n")
        if slot.tlb.hit_rank_counters is not None:
            rbody.append(f"    c{si}[0] += n")
        rbody.append(f"    hit = {si}")
        rbody.append("else:")
        rbody.append(f"    pm{si} += n")
    if has_range:
        rbody.append("if rstack:")
        rbody.append("    r0 = rstack[0]")
        rbody.append("    if r0.base_vpn <= pv < r0.limit_vpn:")
        rbody.append("        rph += n; rattr += n")
        rbody.append("        hit = -1")
        if range_counters:
            rbody.append("        rc[0] += n")
        rbody.append("        continue")
        rbody.append("rpm += n")
    for si in range(nslots):
        cond = "if" if si == 0 else "elif"
        rbody.append(f"{cond} hit == {si}:")
        rbody.append(f"    at{si} += n")
        rbody.append("    hit = -1")
    rbody.append("else:")
    for si, slot in enumerate(slots):
        shift = slot.shift
        key = "pv" if not shift else f"(pv >> {shift})"
        rbody.append(f"    e = sets{si}[{key} & mask{si}]")
        rbody.append(f"    if e and e[0][0] == {key}: ph{si} -= n")
        rbody.append(f"    else: pm{si} -= n")
    if has_range:
        rbody.append("    rpm -= n")
    rbody.append("    undone += n")
    rbody.append("    for _ in range(n): slow(pv)")
    rbody.append(f"    if h.drain_shape() != {shape!r}: break")
    rbody.append("continue")

    # ---- per-access pipeline ------------------------------------------
    for si, slot in enumerate(slots):
        shift = slot.shift
        counters = slot.tlb.hit_rank_counters is not None
        key = "vpn" if not shift else "k"
        if shift:
            body.append(f"k = vpn >> {shift}")
        body.append(f"e = sets{si}[{key} & mask{si}]")
        body.append(f"if e and e[0][0] == {key}:")
        body.append(f"    ph{si} += 1")
        if counters:
            body.append(f"    c{si}[0] += 1")
        if si == last and not has_range:
            # Attribution shortcut: with no live range TLB, a last-slot
            # hit is always the attributed hit; the flush adds ph{last}
            # to attributed_hits instead of bumping per access.
            if nslots > 1:
                body.append("    hit = -1")
            body.append("    continue")
        else:
            body.append(f"    hit = {si}")
        body.append("elif e:")
        body.append("    rank = 1; ln = len(e)")
        body.append("    while rank < ln:")
        body.append("        p = e[rank]")
        body.append(f"        if p[0] == {key}:")
        body.append(f"            ph{si} += 1")
        if counters:
            body.append(f"            c{si}[rank.bit_length()] += 1")
        body.append("            del e[rank]; e.insert(0, p)")
        body.append(f"            hit = {si}")
        body.append("            break")
        body.append("        rank += 1")
        body.append("    else:")
        body.append(f"        pm{si} += 1")
        if si == last and not has_range:
            body.append("    if rank < ln:")
            body.append("        hit = -1")
            body.append("        continue")
        body.append("else:")
        body.append(f"    pm{si} += 1")
    if has_range:
        body.append("if rstack:")
        body.append("    r0 = rstack[0]")
        body.append("    if r0.base_vpn <= vpn < r0.limit_vpn:")
        body.append("        rph += 1; rattr += 1")
        if range_counters:
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
        if range_counters:
            body.append("        rc[rank.bit_length()] += 1")
        body.append("        del rstack[rank]; rstack.insert(0, rhit)")
        body.append("        hit = -1")
        body.append("        continue")
        body.append("    rpm += 1")
        body.append("else:")
        body.append("    rpm += 1")
    if nslots > 1 or has_range:
        body.append("if hit >= 0:")
        attributed = range(nslots) if has_range else range(nslots - 1)
        for si in attributed:
            cond = "if" if si == 0 else "elif"
            body.append(f"    {cond} hit == {si}: at{si} += 1")
        if not has_range:
            body.append(f"    else: at{last} += 1")
        body.append("    hit = -1")
        body.append("    continue")
    # --- L1 miss: inlined parallel L2 probe ----------------------------
    body.append("l1m += 1")
    body.append("e = sets2[vpn & mask2]")
    body.append("pe = None")
    body.append("rank = 0; ln = len(e)")
    body.append("while rank < ln:")
    body.append("    p = e[rank]")
    body.append("    if p[0] == vpn:")
    body.append("        p2h += 1")
    body.append("        if rank:")
    body.append("            del e[rank]; e.insert(0, p)")
    body.append("        pe = p[1]")
    body.append("        break")
    body.append("    rank += 1")
    body.append("else:")
    body.append("    p2m += 1")
    if has_l2r:
        body.append("re_ = l2r.lookup(vpn)")
        if l1r_exists and has_range:
            body.append("if re_ is not None:")
            body.append("    r.fill(re_)")
        elif l1r_exists:
            # First L2-range hit latches the L1-range TLB: shape change.
            body.append("if re_ is not None:")
            body.append("    h.l1_range.fill(re_)")
            body.append("    h._l1_range_active = h.l1_range")
            body.append("    shape_dirty = 1")
    else:
        body.append("re_ = None")
    body.append("if pe is not None:")
    body.append(f"    {fill4[3]} += 1")
    body.append(f"    ef = {fill4[0]}[vpn & {fill4[1]}]")
    body.append("    ef.insert(0, [vpn, pe])")
    body.append(f"    if len(ef) > {fill4[2]}: ef.pop()")
    body.append("elif re_ is not None:")
    body.append(f"    {fill4[3]} += 1")
    body.append(f"    ef = {fill4[0]}[vpn & {fill4[1]}]")
    body.append("    ef.insert(0, [vpn, Translation(vpn, vpn + re_.offset, S4K)])")
    body.append(f"    if len(ef) > {fill4[2]}: ef.pop()")
    body.append("if pe is not None or re_ is not None:")
    body.append("    if shape_dirty: break")
    body.append("    continue")
    # --- full L2 miss: the reference walk-and-fill ---------------------
    body.append("walk_fill(vpn)")
    body.append(f"if h.drain_shape() != {shape!r}:")
    body.append("    break")

    # ---- flush locally accumulated counts -----------------------------
    for si in range(nslots):
        flush.append(
            f"    t{si}._pending_hits += ph{si}; t{si}._pending_misses += pm{si}; "
            f"t{si}._pending_fills += pf{si}"
        )
        if si == last and not has_range:
            flush.append(f"    slot{si}.attributed_hits += ph{si}")
        else:
            flush.append(f"    slot{si}.attributed_hits += at{si}")
    if slot4_index is None:
        flush.append("    t4._pending_fills += pf4")
    flush.append("    t2._pending_hits += p2h; t2._pending_misses += p2m")
    if has_range:
        flush.append("    r._pending_hits += rph; r._pending_misses += rpm")
        flush.append("    h.range_attributed_hits += rattr")
    # int(): cum is an int64 array; a leaked np.int64 would poison the
    # pure-JSON state digests.
    flush.append("    h.accesses += int(cum[i] - cum[start]) - undone")
    flush.append("    h.l1_misses += l1m")
    if probe is not None:
        # Telemetry, compiled in only on request: one segment-granular
        # bump per generated-drain return, never per access.
        namespace["probe"] = probe
        flush.append("    probe.coalesced_accesses += int(cum[i] - cum[start]) - undone")
        flush.append("    probe.replayed_accesses += undone")
        flush.append("    probe.drained_segments += 1")

    init = (
        "; ".join(f"ph{si} = pm{si} = at{si} = pf{si} = 0" for si in range(nslots))
        or "pass"
    )
    lines = ["def drain(tokens, cum, start, stop):"]
    lines += ["    " + text for text in header]
    lines.append(f"    {init}")
    lines.append(
        "    rph = rpm = rattr = p2h = p2m = l1m = pf4 = undone = 0"
        "; hit = -1; shape_dirty = 0"
    )
    lines.append("    pv = tokens[start - 1] if start else -1")
    # Recover the stop position from the iterator's length hint instead
    # of carrying an index through the hot loop.
    lines.append("    it = iter(tokens[start:stop])")
    lines.append("    hint = it.__length_hint__")
    lines.append("    for vpn in it:")
    lines.append("        if vpn < 0:")
    lines += ["            " + text for text in rbody]
    lines.append("        pv = vpn")
    lines += ["        " + text for text in body]
    lines.append("    i = stop - hint()")
    lines += flush
    lines.append("    return i")
    source = "\n".join(lines)
    exec(source, namespace)
    drain = namespace["drain"]
    drain.__repro_source__ = source
    return drain


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class FastEngine:
    """Per-run drain engine: owns the encoded trace and its position.

    ``drain(start, stop)`` consumes access positions ``[start, stop)``
    exactly like the reference drain loop; the simulator calls it
    between consecutive boundaries.  Generated drains are cached by the
    identity of the objects they specialize against (active slots, their
    TLBs, the L2, the latched range TLBs), so boundary-heavy runs (Lite
    intervals, dense checkpointing) regenerate nothing.
    """

    __slots__ = ("_hierarchy", "_vpns", "_tokens", "_cum", "_tok", "_pos",
                 "_rep", "_rep_vpn", "_drains", "_probe")

    def __init__(self, hierarchy, trace, probe=None) -> None:
        self._hierarchy = hierarchy
        self._probe = probe
        self._vpns = as_vpn_array(trace)
        if type(hierarchy) is TLBHierarchy:
            self._tokens, self._cum = encode_trace(self._vpns)
        else:
            # The generator specializes only plain TLBHierarchy instances
            # and the type never changes mid-run, so skip encoding and
            # make every drain a pass-through at pure reference cost.
            self._tokens = None
            self._cum = None
        self._tok = 0
        self._pos = 0
        self._rep = 0  # repeats left of a run split by a boundary
        self._rep_vpn = -1
        self._drains: dict = {}

    # ------------------------------------------------------------------
    def drain(self, start: int, stop: int) -> None:
        """Feed accesses ``[start, stop)`` through the hierarchy."""
        if self._tokens is None:
            # Permanently unsupported hierarchy type: reference loop.
            # The tolist matches the reference drain — components store
            # the vpns they are handed, and a leaked np.int64 would
            # poison the pure-JSON state digests.
            if self._probe is not None:
                self._probe.replayed_accesses += stop - start
                self._probe.fallback_spans += 1
            slow = self._hierarchy.access
            for vpn in self._vpns[start:stop].tolist():
                slow(vpn)
            return
        if start != self._pos:
            self._seek(start)
        if stop <= self._pos:
            return
        hierarchy = self._hierarchy
        slow = hierarchy.access
        if self._rep:
            # Finish a run the previous boundary split, reference-exact.
            take = min(self._rep, stop - self._pos)
            vpn = self._rep_vpn
            if self._probe is not None:
                self._probe.replayed_accesses += take
            for _ in range(take):
                slow(vpn)
            self._rep -= take
            self._pos += take
            if self._pos == stop:
                return
        tokens, cum = self._tokens, self._cum
        stop_tok = int(np.searchsorted(cum, stop, side="right")) - 1
        tok = self._tok
        while tok < stop_tok:
            drain = self._drain_for_shape()
            if drain is None:
                tok = self._replay_span(tok, stop_tok)
            else:
                tok = drain(tokens, cum, tok, stop_tok)
        self._tok = tok
        self._pos = int(cum[tok])
        if self._pos < stop:
            # The boundary lands inside the run of tokens[stop_tok]:
            # replay the head of the run slow, bank the tail.
            vpn = tokens[tok - 1]
            take = stop - self._pos
            if self._probe is not None:
                self._probe.replayed_accesses += take
                self._probe.boundary_splits += 1
            for _ in range(take):
                slow(vpn)
            self._rep = -tokens[tok] - take
            self._rep_vpn = vpn
            self._tok = tok + 1
            self._pos = stop

    # ------------------------------------------------------------------
    def _seek(self, pos: int) -> None:
        """Position the token cursor at access ``pos`` (checkpoint resume)."""
        cum = self._cum
        tok = int(np.searchsorted(cum, pos, side="right")) - 1
        if int(cum[tok]) == pos:
            self._tok = tok
            self._rep = 0
        else:
            # pos is inside the run of tokens[tok] (a repeat sentinel).
            self._tok = tok + 1
            self._rep = int(cum[tok + 1]) - pos
            self._rep_vpn = self._tokens[tok - 1]
        self._pos = pos

    def _drain_for_shape(self):
        """Cached specialized drain for the current shape (None = fallback)."""
        hierarchy = self._hierarchy
        if type(hierarchy) is not TLBHierarchy:
            return None
        key = (
            tuple(hierarchy._active_slots),
            hierarchy._l1_range_active,
            hierarchy._l2_range_active,
        )
        try:
            return self._drains[key]
        except KeyError:
            drain = _generate_drain(hierarchy, self._probe)
            if drain is not None and self._probe is not None:
                self._probe.generated_drains += 1
            self._drains[key] = drain
            return drain

    def _replay_span(self, tok: int, stop_tok: int) -> int:
        """Reference-path replay for unsupported hierarchy shapes.

        Replays the raw trace slice rather than decoding tokens, so the
        fallback pays exactly the reference loop's per-access cost.  The
        ``tolist`` matches the reference drain: components store the vpns
        they are handed, and a leaked ``np.int64`` would poison the
        pure-JSON state digests.
        """
        slow = self._hierarchy.access
        cum = self._cum
        if self._probe is not None:
            self._probe.fallback_spans += 1
            self._probe.replayed_accesses += int(cum[stop_tok]) - int(cum[tok])
        for vpn in self._vpns[int(cum[tok]) : int(cum[stop_tok])].tolist():
            slow(vpn)
        return stop_tok
