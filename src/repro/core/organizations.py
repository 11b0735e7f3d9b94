"""Builders for the paper's six simulated configurations (Section 5, Fig. 9).

==========  =====================================  ==========================
Name        TLB organization                       OS paging policy
==========  =====================================  ==========================
4KB         L1-4KB ∥ (L1-2MB, L1-1GB: off), L2     demand 4 KB paging
THP         + L1-2MB enabled                       transparent huge pages
TLB_Lite    THP + Lite on the L1-page TLBs         transparent huge pages
RMM         THP + 32-entry L2-range TLB            eager paging (THP layout)
TLB_PP      single mixed L1/L2, perfect predictor  transparent huge pages
RMM_Lite    L1-4KB (Lite) ∥ 4-entry L1-range,      eager paging (4 KB layout)
            L2-4KB ∥ L2-range
==========  =====================================  ==========================

Each builder wires the hierarchy to a populated :class:`repro.mem.Process`;
:func:`energy_bindings` derives from that hierarchy the bindings that map
every structure's per-way access histogram onto Table 2 parameters.
:data:`CONFIG_SPECS` maps each of the thirteen configuration names (these
six plus the extensions) to its builder, its paging policy and its paper
Lite parameters; every lookup by name goes through it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

from ..energy.cacti import (
    MMU_CACHE_PDE,
    EnergyParams,
    fully_assoc_params,
    mixed_fa_tlb_params,
    page_tlb_params,
)
from ..energy.model import EnergyBinding
from ..errors import ConfigurationError, UnknownConfigError
from ..mem.paging import DemandPaging, EagerPaging, PagingPolicy, TransparentHugePaging
from ..mem.process import Process
from ..mmu.translation import PageSize
from ..mmu.walker import PageWalker
from ..tlb.banked import BankedSetAssociativeTLB
from ..tlb.fully_assoc import FullyAssociativeTLB
from ..tlb.mixed_fa import MixedFullyAssociativeTLB
from ..tlb.range_tlb import RangeTLB
from ..tlb.semantic import SemanticPartitionedTLB, classify_by_vma
from ..tlb.set_assoc import SetAssociativeTLB
from .hierarchy import (
    BaseHierarchy,
    FullyAssociativeL1Hierarchy,
    L0FilterHierarchy,
    L1Slot,
    MixedTLBHierarchy,
    PredictedMixedHierarchy,
    TLBHierarchy,
)
from .lite import LiteController
from .params import (
    RMM_LITE_PARAMS,
    TLB_LITE_PARAMS,
    ConfigurationSummary,
    HierarchyParams,
    LiteParams,
    scaled_lite_interval,
)


@dataclass(slots=True)
class Organization:
    """A fully wired configuration ready to simulate.

    ``bindings`` is derived from the hierarchy by :func:`energy_bindings`.
    """

    name: str
    hierarchy: BaseHierarchy
    lite: LiteController | None
    summary: ConfigurationSummary
    bindings: list[EnergyBinding] = field(init=False)

    def __post_init__(self) -> None:
        self.bindings = energy_bindings(self.hierarchy)


# ----------------------------------------------------------------------
# Energy bindings
# ----------------------------------------------------------------------
def energy_bindings(hierarchy: BaseHierarchy) -> list[EnergyBinding]:
    """Bind every structure's histograms to its Table 2 prices.

    Bindings follow :meth:`BaseHierarchy.all_structures`: the L1 page
    structures, the last page structure (the L2), the range TLBs, then
    the MMU caches.  :meth:`repro.energy.model.EnergyModel.compute` adds
    energies in this order, so it fixes their last ulp.  A semantic TLB
    is bound part by part; a banked TLB is one structure whose every
    probe reads one bank.  The PDE cache keeps its own Table 2 row.
    """
    pde = hierarchy.walker.mmu_cache.pde

    def prices(tlb) -> Callable[[int], EnergyParams]:
        if tlb is pde:
            return lambda _units: MMU_CACHE_PDE
        if isinstance(tlb, BankedSetAssociativeTLB):
            tlb = tlb.parts[0]  # every probe reads one bank
        if isinstance(tlb, SetAssociativeTLB):
            sets = tlb.num_sets  # way-disabling keeps the sets (Table 2)
            return lambda ways: page_tlb_params(sets * ways, ways)
        if isinstance(tlb, RangeTLB):
            return lambda units: fully_assoc_params(units, range_tags=True)
        if isinstance(tlb, MixedFullyAssociativeTLB):
            return mixed_fa_tlb_params
        return fully_assoc_params

    *l1_pages, l2_page = hierarchy.page_structures()
    components = dict.fromkeys(l1_pages, "l1_page_tlbs")
    components[l2_page] = "l2_page_tlb"
    # An absent range TLB's ``None`` key matches no structure.
    components[hierarchy.l1_range] = "l1_range_tlb"
    components[hierarchy.l2_range] = "l2_range_tlb"
    bindings = []
    for structure in hierarchy.all_structures():
        component = components.get(structure, "mmu_cache")
        semantic = isinstance(structure, SemanticPartitionedTLB)
        for tlb in structure.parts if semantic else [structure]:
            bindings.append(
                EnergyBinding(tlb.name, component, tlb.stats, prices(tlb), tlb.max_units)
            )
    return bindings


# ----------------------------------------------------------------------
# Structure factories
# ----------------------------------------------------------------------
def _paged_l1_slots(params: HierarchyParams) -> list[L1Slot]:
    """The Figure 1 baseline: separate L1 TLBs for 4 KB / 2 MB / 1 GB."""
    return [
        L1Slot(
            SetAssociativeTLB("L1-4KB", params.l1_4kb.entries, params.l1_4kb.ways),
            PageSize.SIZE_4KB,
        ),
        L1Slot(
            SetAssociativeTLB("L1-2MB", params.l1_2mb.entries, params.l1_2mb.ways),
            PageSize.SIZE_2MB,
        ),
        L1Slot(
            FullyAssociativeTLB("L1-1GB", params.l1_1gb_entries),
            PageSize.SIZE_1GB,
        ),
    ]


def _l2_page_tlb(params: HierarchyParams) -> SetAssociativeTLB:
    return SetAssociativeTLB("L2-4KB", params.l2_page.entries, params.l2_page.ways)


def _huge_chunks(process: Process, design: str) -> frozenset[int]:
    """2 MB chunk numbers (``vpn >> 9``) of the process's huge pages.

    The mixed-L1 designs key their page-size predictor on these chunks
    and model 4 KB and 2 MB pages only.
    """
    chunks = set()
    for translation in process.page_table.huge_leaves():
        if translation.page_size is PageSize.SIZE_1GB:
            raise ConfigurationError(f"{design} models 4KB and 2MB pages only")
        chunks.add(translation.vpn >> 9)
    return frozenset(chunks)


# ----------------------------------------------------------------------
# Configuration builders
# ----------------------------------------------------------------------
def build_4kb(
    process: Process, params: HierarchyParams = HierarchyParams()
) -> Organization:
    """Baseline: 4 KB pages only; huge-page L1 TLBs never enable."""
    hierarchy = TLBHierarchy(
        _paged_l1_slots(params), _l2_page_tlb(params), PageWalker(process.page_table)
    )
    summary = ConfigurationSummary(
        "4KB",
        ("4KB",),
        (
            f"L1-4KB {params.l1_4kb.entries}e/{params.l1_4kb.ways}w",
            f"L2-4KB {params.l2_page.entries}e/{params.l2_page.ways}w",
        ),
        notes="huge-page L1 TLBs statically disabled",
    )
    return Organization("4KB", hierarchy, None, summary)


def build_thp(
    process: Process, params: HierarchyParams = HierarchyParams()
) -> Organization:
    """Transparent huge pages: the state of the practice (Section 5)."""
    hierarchy = TLBHierarchy(
        _paged_l1_slots(params), _l2_page_tlb(params), PageWalker(process.page_table)
    )
    summary = ConfigurationSummary(
        "THP",
        ("4KB", "2MB"),
        (
            f"L1-4KB {params.l1_4kb.entries}e/{params.l1_4kb.ways}w",
            f"L1-2MB {params.l1_2mb.entries}e/{params.l1_2mb.ways}w",
            f"L2-4KB {params.l2_page.entries}e/{params.l2_page.ways}w",
        ),
    )
    return Organization("THP", hierarchy, None, summary)


def _lite_controller(hierarchy: TLBHierarchy, lite_params: LiteParams) -> LiteController:
    """Attach Lite to every resizable L1-page TLB.

    The paper resizes "all L1-page TLBs (4KB, 2MB, and 1GB)"; the 4-entry
    fully-associative L1-1GB TLB is resized by capacity in powers of two
    (Section 4.4 semantics).  For workloads that never touch 1 GB pages
    the structure is statically disabled anyway, so monitoring it is
    free.
    """
    monitored = [slot.tlb for slot in hierarchy.l1_slots]
    return LiteController(monitored, lite_params)


def build_tlb_lite(
    process: Process,
    params: HierarchyParams = HierarchyParams(),
    lite_params: LiteParams = TLB_LITE_PARAMS,
) -> Organization:
    """TLB_Lite: THP hierarchy + the Lite way-disabling mechanism."""
    organization = build_thp(process, params)
    lite = _lite_controller(organization.hierarchy, lite_params)
    summary = ConfigurationSummary(
        "TLB_Lite",
        organization.summary.page_sizes,
        organization.summary.structures,
        lite=(
            f"interval {lite_params.interval_instructions} instr, "
            f"ε {lite_params.threshold_mode}"
        ),
    )
    return Organization("TLB_Lite", organization.hierarchy, lite, summary)


def build_rmm(
    process: Process, params: HierarchyParams = HierarchyParams()
) -> Organization:
    """RMM: THP hierarchy + 32-entry fully-associative L2-range TLB."""
    if len(process.range_table) == 0:
        raise ConfigurationError("RMM needs an eager-paged process (empty range table)")
    hierarchy = TLBHierarchy(
        _paged_l1_slots(params),
        _l2_page_tlb(params),
        PageWalker(process.page_table),
        l2_range=RangeTLB("L2-range", params.l2_range_entries),
        range_table=process.range_table,
    )
    summary = ConfigurationSummary(
        "RMM",
        ("4KB", "2MB", "range"),
        (
            f"L1-4KB {params.l1_4kb.entries}e/{params.l1_4kb.ways}w",
            f"L1-2MB {params.l1_2mb.entries}e/{params.l1_2mb.ways}w",
            f"L2-4KB {params.l2_page.entries}e/{params.l2_page.ways}w",
            f"L2-range {params.l2_range_entries}e fully assoc",
        ),
        notes="perfect eager paging",
    )
    return Organization("RMM", hierarchy, None, summary)


def build_tlb_pp(
    process: Process, params: HierarchyParams = HierarchyParams()
) -> Organization:
    """TLB_PP: perfect TLB_Pred — mixed-size L1/L2, free perfect predictor.

    The mixed L1 keeps the L1-4KB geometry (64 entries, 4-way) and is
    charged L1-4KB energy per lookup; the perfect predictor itself costs
    nothing.  As the paper notes, this under-reports TLB_Pred's true cost
    by design ("unrealizable in practice").
    """
    l1_mixed = SetAssociativeTLB("L1-mixed", params.l1_4kb.entries, params.l1_4kb.ways)
    l2_mixed = SetAssociativeTLB("L2-mixed", params.l2_page.entries, params.l2_page.ways)
    hierarchy = MixedTLBHierarchy(
        l1_mixed, l2_mixed, PageWalker(process.page_table), _huge_chunks(process, "TLB_PP")
    )
    summary = ConfigurationSummary(
        "TLB_PP",
        ("4KB", "2MB"),
        (
            f"L1-mixed {params.l1_4kb.entries}e/{params.l1_4kb.ways}w",
            f"L2-mixed {params.l2_page.entries}e/{params.l2_page.ways}w",
        ),
        notes="perfect, zero-energy page-size predictor",
    )
    return Organization("TLB_PP", hierarchy, None, summary)


def build_rmm_lite(
    process: Process,
    params: HierarchyParams = HierarchyParams(),
    lite_params: LiteParams = RMM_LITE_PARAMS,
) -> Organization:
    """RMM_Lite: 4 KB pages + ranges at both levels, Lite on the L1-4KB.

    The huge-page L1 TLBs are replaced by the L1-range TLB (Section 4.3),
    so the process must be eager-paged with a 4 KB redundant layout.
    """
    if len(process.range_table) == 0:
        raise ConfigurationError("RMM_Lite needs an eager-paged process (empty range table)")
    l1_4kb = SetAssociativeTLB("L1-4KB", params.l1_4kb.entries, params.l1_4kb.ways)
    hierarchy = TLBHierarchy(
        [L1Slot(l1_4kb, PageSize.SIZE_4KB)],
        _l2_page_tlb(params),
        PageWalker(process.page_table),
        l1_range=RangeTLB("L1-range", params.l1_range_entries),
        l2_range=RangeTLB("L2-range", params.l2_range_entries),
        range_table=process.range_table,
    )
    lite = LiteController([l1_4kb], lite_params)
    summary = ConfigurationSummary(
        "RMM_Lite",
        ("4KB", "range"),
        (
            f"L1-4KB {params.l1_4kb.entries}e/{params.l1_4kb.ways}w",
            f"L1-range {params.l1_range_entries}e fully assoc",
            f"L2-4KB {params.l2_page.entries}e/{params.l2_page.ways}w",
            f"L2-range {params.l2_range_entries}e fully assoc",
        ),
        lite=f"absolute ε {lite_params.epsilon_absolute} MPKI",
        notes="perfect eager paging; L1 huge-page TLBs replaced by L1-range",
    )
    return Organization("RMM_Lite", hierarchy, lite, summary)


def build_fa_lite(
    process: Process,
    params: HierarchyParams = HierarchyParams(),
    lite_params: LiteParams = TLB_LITE_PARAMS,
) -> Organization:
    """FA_Lite: single fully-associative mixed L1 TLB + Lite (Section 4.4).

    The SPARC/AMD-style organization: one masked-CAM L1 holds 4 KB and
    2 MB translations together, so each access probes a single structure;
    Lite resizes its capacity in powers of two.
    """
    l1_fa = MixedFullyAssociativeTLB("L1-FA", 64)
    hierarchy = FullyAssociativeL1Hierarchy(
        l1_fa, _l2_page_tlb(params), PageWalker(process.page_table)
    )
    lite = LiteController([l1_fa], lite_params)
    summary = ConfigurationSummary(
        "FA_Lite",
        ("4KB", "2MB"),
        (
            f"L1-FA {l1_fa.entries}e fully assoc (all page sizes)",
            f"L2-4KB {params.l2_page.entries}e/{params.l2_page.ways}w",
        ),
        lite="capacity resizing in powers of two (Section 4.4)",
    )
    return Organization("FA_Lite", hierarchy, lite, summary)


def build_rmm_pp_lite(
    process: Process,
    params: HierarchyParams = HierarchyParams(),
    lite_params: LiteParams = RMM_LITE_PARAMS,
) -> Organization:
    """RMM_PP_Lite: the combined design the paper proposes (Section 6.1).

    "RMM_Lite and TLB_PP are orthogonal; a combined approach could use
    the L1-range TLB for range translations, the TLB_PP for pages, and
    the Lite mechanism to disable ways opportunistically."
    """
    if len(process.range_table) == 0:
        raise ConfigurationError("RMM_PP_Lite needs an eager-paged process")
    l1_mixed = SetAssociativeTLB("L1-mixed", params.l1_4kb.entries, params.l1_4kb.ways)
    l2_mixed = SetAssociativeTLB("L2-mixed", params.l2_page.entries, params.l2_page.ways)
    hierarchy = MixedTLBHierarchy(
        l1_mixed,
        l2_mixed,
        PageWalker(process.page_table),
        _huge_chunks(process, "RMM_PP_Lite"),
        l1_range=RangeTLB("L1-range", params.l1_range_entries),
        l2_range=RangeTLB("L2-range", params.l2_range_entries),
        range_table=process.range_table,
    )
    lite = LiteController([l1_mixed], lite_params)
    summary = ConfigurationSummary(
        "RMM_PP_Lite",
        ("4KB", "2MB", "range"),
        (
            f"L1-mixed {params.l1_4kb.entries}e/{params.l1_4kb.ways}w (perfect predictor)",
            f"L1-range {params.l1_range_entries}e fully assoc",
            f"L2-mixed {params.l2_page.entries}e/{params.l2_page.ways}w",
            f"L2-range {params.l2_range_entries}e fully assoc",
        ),
        lite=f"absolute ε {lite_params.epsilon_absolute} MPKI",
        notes="combined TLB_PP + RMM_Lite (paper Section 6.1 future work)",
    )
    return Organization("RMM_PP_Lite", hierarchy, lite, summary)


def build_l0_filter(
    process: Process,
    params: HierarchyParams = HierarchyParams(),
    lite_params: LiteParams | None = None,
) -> Organization:
    """L0_Filter / L0_Lite: TLB filtering (paper Section 7 related work).

    A small fully-associative mixed-size L0 TLB is probed before the L1
    TLBs; only L0 misses pay the parallel L1 probe energy.  With
    ``lite_params`` the Lite mechanism additionally resizes the L1-page
    TLBs behind the filter — the combination the paper argues is possible
    because the approaches are orthogonal.
    """
    l0 = MixedFullyAssociativeTLB("L0-filter", 8)
    hierarchy = L0FilterHierarchy(
        _paged_l1_slots(params),
        _l2_page_tlb(params),
        PageWalker(process.page_table),
        l0=l0,
    )
    lite = None
    name = "L0_Filter"
    if lite_params is not None:
        lite = _lite_controller(hierarchy, lite_params)
        name = "L0_Lite"
    summary = ConfigurationSummary(
        name,
        ("4KB", "2MB"),
        (
            f"L0-filter {l0.entries}e fully assoc (all page sizes)",
            f"L1-4KB {params.l1_4kb.entries}e/{params.l1_4kb.ways}w",
            f"L1-2MB {params.l1_2mb.entries}e/{params.l1_2mb.ways}w",
            f"L2-4KB {params.l2_page.entries}e/{params.l2_page.ways}w",
        ),
        lite=None if lite is None else "on the L1-page TLBs behind the filter",
        notes="TLB filtering baseline (Xue et al. / filtering line of work)",
    )
    return Organization(name, hierarchy, lite, summary)


def build_tlb_pred(
    process: Process,
    params: HierarchyParams = HierarchyParams(),
    predictor_entries: int = 512,
) -> Organization:
    """TLB_Pred with a realistic predictor (paper Section 6.1 caveat).

    Same mixed L1/L2 geometry as TLB_PP, but the page-size predictor is a
    direct-mapped last-size table: mispredictions cost a second L1 probe
    (energy) and a retry (timing, counted as an L1 miss).
    """
    l1_mixed = SetAssociativeTLB("L1-mixed", params.l1_4kb.entries, params.l1_4kb.ways)
    l2_mixed = SetAssociativeTLB("L2-mixed", params.l2_page.entries, params.l2_page.ways)
    hierarchy = PredictedMixedHierarchy(
        l1_mixed,
        l2_mixed,
        PageWalker(process.page_table),
        _huge_chunks(process, "TLB_Pred"),
        predictor_entries=predictor_entries,
    )
    summary = ConfigurationSummary(
        "TLB_Pred",
        ("4KB", "2MB"),
        (
            f"L1-mixed {params.l1_4kb.entries}e/{params.l1_4kb.ways}w",
            f"L2-mixed {params.l2_page.entries}e/{params.l2_page.ways}w",
            f"size predictor {predictor_entries}e direct-mapped",
        ),
        notes="realistic (fallible) page-size predictor",
    )
    return Organization("TLB_Pred", hierarchy, None, summary)


def build_banked(
    process: Process,
    params: HierarchyParams = HierarchyParams(),
    banks: int = 4,
) -> Organization:
    """Banked baseline (paper Section 7): probe one L1-4KB bank per access.

    The L1-4KB TLB is split into ``banks`` independently probed banks;
    each lookup pays the read energy of the bank-sized structure (a
    quarter of the TLB for 4 banks) at the cost of bank-conflict
    pressure.  The other structures match the THP configuration.
    """
    banked = BankedSetAssociativeTLB(
        "L1-4KB", params.l1_4kb.entries, params.l1_4kb.ways, banks
    )
    slots = _paged_l1_slots(params)
    slots[0] = L1Slot(banked, PageSize.SIZE_4KB)
    hierarchy = TLBHierarchy(slots, _l2_page_tlb(params), PageWalker(process.page_table))
    summary = ConfigurationSummary(
        "Banked",
        ("4KB", "2MB"),
        (
            f"L1-4KB {params.l1_4kb.entries}e/{params.l1_4kb.ways}w in {banks} banks "
            f"({banked.bank_entries}e probed per access)",
            f"L1-2MB {params.l1_2mb.entries}e/{params.l1_2mb.ways}w",
            f"L2-4KB {params.l2_page.entries}e/{params.l2_page.ways}w",
        ),
        notes="banked-TLB baseline (Section 7 related work)",
    )
    return Organization("Banked", hierarchy, None, summary)


def build_semantic(
    process: Process,
    params: HierarchyParams = HierarchyParams(),
) -> Organization:
    """Semantic baseline (paper Section 7): partitioned L1-4KB TLB.

    Lee/Ballapuram-style: the 64-entry L1-4KB TLB splits into a 16-entry
    stack partition, a 16-entry globals partition, and a 32-entry heap
    partition; each access probes only its semantic partition (the class
    is known from the region, no prediction needed).  Other structures
    match THP.
    """
    partitions = [
        SetAssociativeTLB("L1-4KB-stack", 16, params.l1_4kb.ways),
        SetAssociativeTLB("L1-4KB-globals", 16, params.l1_4kb.ways),
        SetAssociativeTLB("L1-4KB-heap", 32, params.l1_4kb.ways),
    ]
    partitioned = SemanticPartitionedTLB(
        "L1-4KB", partitions, classify_by_vma(process.address_space)
    )
    slots = _paged_l1_slots(params)
    slots[0] = L1Slot(partitioned, PageSize.SIZE_4KB)
    hierarchy = TLBHierarchy(slots, _l2_page_tlb(params), PageWalker(process.page_table))
    summary = ConfigurationSummary(
        "Semantic",
        ("4KB", "2MB"),
        (
            "L1-4KB partitioned: stack 16e + globals 16e + heap 32e "
            f"({params.l1_4kb.ways}-way each, one partition probed per access)",
            f"L1-2MB {params.l1_2mb.entries}e/{params.l1_2mb.ways}w",
            f"L2-4KB {params.l2_page.entries}e/{params.l2_page.ways}w",
        ),
        notes="semantic-region partitioning baseline (Section 7 related work)",
    )
    return Organization("Semantic", hierarchy, None, summary)


# ----------------------------------------------------------------------
# The configuration table: builder, paging policy, paper Lite parameters
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ConfigSpec:
    """Everything that tells one named configuration apart (Fig. 9, §5).

    ``builder`` wires the TLB organization against a populated process;
    ``paging`` maps a THP coverage onto the OS paging policy the
    configuration assumes; ``lite`` holds the paper's Lite parameters,
    or ``None`` when the configuration has no Lite controller.
    """

    builder: Callable[..., Organization]
    paging: Callable[[float], PagingPolicy]
    lite: LiteParams | None = None


def _demand_paging(_thp_coverage: float) -> PagingPolicy:
    return DemandPaging()


def _eager_paging(page_layout: str) -> Callable[[float], PagingPolicy]:
    """Eager paging backs each VMA with one range, whatever the coverage."""
    return lambda _thp_coverage: EagerPaging(page_layout=page_layout)


#: Every configuration, in canonical figure order: the paper's six first,
#: then the extensions.  FA_Lite is the Section 4.4 SPARC/AMD-style
#: fully-associative L1 with Lite capacity-resizing; RMM_PP_Lite the
#: Section 6.1 "orthogonal, combined" design (TLB_PP for pages + L1-range
#: TLB for ranges + Lite).  L0_Filter / L0_Lite are the Section 7 tiny-L0
#: filtering baseline, alone and combined with Lite; TLB_Pred is TLB_PP
#: with a realistic (fallible, direct-mapped last-size) predictor; Banked
#: and Semantic are the Section 7 banked and partitioned L1-4KB baselines.
#: FA_Lite and L0_Lite follow TLB_Lite's relative ε (high reference
#: MPKI); RMM_PP_Lite follows RMM_Lite's absolute one (near-zero
#: reference).  The order is also the fuzz generator's draw order.
CONFIG_SPECS: dict[str, ConfigSpec] = {
    "4KB": ConfigSpec(build_4kb, _demand_paging),
    "THP": ConfigSpec(build_thp, TransparentHugePaging),
    "TLB_Lite": ConfigSpec(build_tlb_lite, TransparentHugePaging, TLB_LITE_PARAMS),
    "RMM": ConfigSpec(build_rmm, _eager_paging("thp")),
    "TLB_PP": ConfigSpec(build_tlb_pp, TransparentHugePaging),
    "RMM_Lite": ConfigSpec(build_rmm_lite, _eager_paging("4kb"), RMM_LITE_PARAMS),
    "FA_Lite": ConfigSpec(build_fa_lite, TransparentHugePaging, TLB_LITE_PARAMS),
    "RMM_PP_Lite": ConfigSpec(build_rmm_pp_lite, _eager_paging("thp"), RMM_LITE_PARAMS),
    "L0_Filter": ConfigSpec(build_l0_filter, TransparentHugePaging),
    "L0_Lite": ConfigSpec(build_l0_filter, TransparentHugePaging, TLB_LITE_PARAMS),
    "TLB_Pred": ConfigSpec(build_tlb_pred, TransparentHugePaging),
    "Banked": ConfigSpec(build_banked, TransparentHugePaging),
    "Semantic": ConfigSpec(build_semantic, TransparentHugePaging),
}

EXTENDED_CONFIG_NAMES = tuple(CONFIG_SPECS)

#: The paper's six evaluated configurations (Section 5).
CONFIG_NAMES = EXTENDED_CONFIG_NAMES[:6]


def _spec(config_name: str) -> ConfigSpec:
    try:
        return CONFIG_SPECS[config_name]
    except KeyError:
        raise UnknownConfigError(config_name, EXTENDED_CONFIG_NAMES) from None


def paging_policy_for(config_name: str, thp_coverage: float = 1.0) -> PagingPolicy:
    """The OS allocation policy a configuration assumes (Section 5)."""
    return _spec(config_name).paging(thp_coverage)


def build_organization(
    config_name: str,
    process: Process,
    params: HierarchyParams = HierarchyParams(),
    lite_params: LiteParams | None = None,
) -> Organization:
    """Build any named configuration against a populated process.

    A Lite configuration built without ``lite_params`` runs the paper's
    1 M-instruction interval; the experiment drivers pass
    :func:`lite_params_for`'s trace-scaled parameters instead.
    """
    spec = _spec(config_name)
    params = params or HierarchyParams()
    if spec.lite is None:
        return spec.builder(process, params)
    return spec.builder(process, params, lite_params=lite_params or spec.lite)


def lite_params_for(config_name: str, accesses: int) -> LiteParams | None:
    """The paper's Lite parameters, interval scaled to a trace of ``accesses``.

    ``None`` for a configuration without a Lite controller.
    """
    lite = _spec(config_name).lite
    if lite is None:
        return None
    return replace(lite, interval_instructions=scaled_lite_interval(accesses))
