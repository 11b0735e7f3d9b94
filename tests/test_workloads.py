"""Tests for the workload models and registry."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.errors import TraceError
from repro.mem.paging import DemandPaging, EagerPaging, TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.resilience.faults import TRACE_FAULTS
from repro.workloads import base
from repro.workloads.base import PAGES_PER_MB, VMASpec, Workload, load_or_generate_trace
from repro.workloads.patterns import Region, UniformRandom
from repro.workloads.registry import (
    all_workloads,
    get_workload,
    other_workloads,
    tlb_intensive_workloads,
)
from repro.workloads.secondary import LightProfile, build_light_workload


def toy_workload():
    return Workload(
        "toy",
        "TEST",
        [VMASpec("heap", 4), VMASpec("stack", 1, thp_eligible=False)],
        lambda regions: UniformRandom(regions["heap"], burst=2),
        instructions_per_access=2.0,
    )


class TestWorkloadMechanics:
    def test_footprint(self):
        assert toy_workload().footprint_mb == 5

    def test_regions_deterministic(self):
        w = toy_workload()
        assert w.regions() == w.regions()

    def test_trace_within_declared_regions(self):
        w = toy_workload()
        trace = w.trace(5000, seed=1)
        heap = w.regions()["heap"]
        assert np.all((trace >= heap.start_vpn) & (trace < heap.end_vpn))

    def test_trace_deterministic_per_seed(self):
        w = toy_workload()
        assert np.array_equal(w.trace(1000, seed=3), w.trace(1000, seed=3))
        assert not np.array_equal(w.trace(1000, seed=3), w.trace(1000, seed=4))

    def test_process_layout_matches_regions_for_every_policy(self):
        w = toy_workload()
        regions = w.regions()
        for policy in (DemandPaging(), TransparentHugePaging(), EagerPaging("4kb")):
            process = w.build_process(policy, PhysicalMemory(1 << 28, seed=1))
            for vma in process.address_space:
                region = regions[vma.name]
                assert (vma.start_vpn, vma.num_pages) == (
                    region.start_vpn,
                    region.num_pages,
                )

    def test_trace_translatable_under_every_policy(self):
        w = toy_workload()
        trace = w.trace(200, seed=0)
        for policy in (DemandPaging(), TransparentHugePaging(), EagerPaging("thp")):
            process = w.build_process(policy, PhysicalMemory(1 << 28, seed=1))
            for vpn in trace[:50]:
                process.translate(int(vpn))

    def test_thp_eligibility_respected(self):
        w = toy_workload()
        process = w.build_process(TransparentHugePaging(), PhysicalMemory(1 << 28))
        stack = next(v for v in process.address_space if v.name == "stack")
        assert not stack.thp_eligible

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Workload("x", "s", [], lambda regions: None)
        with pytest.raises(ValueError):
            toy_workload().trace(0)


class TestSharedTrace:
    """``Workload.trace`` keeps its latest result in one read-only slot."""

    def test_repeated_call_returns_the_same_array(self):
        w = toy_workload()
        assert w.trace(1000, seed=3) is w.trace(1000, seed=3)

    def test_another_seed_length_or_workload_gives_a_fresh_array(self):
        w = toy_workload()
        twin = toy_workload()  # same name, another object
        for call in (
            lambda: w.trace(1000, seed=4),
            lambda: w.trace(999, seed=3),
            lambda: twin.trace(1000, seed=3),
        ):
            cached = w.trace(1000, seed=3)
            assert call() is not cached
        assert np.array_equal(twin.trace(1000, seed=3), w.trace(1000, seed=3))

    def test_writing_into_the_trace_raises(self):
        trace = toy_workload().trace(100, seed=1)
        with pytest.raises(ValueError):
            trace[0] = 0
        with pytest.raises(ValueError):
            trace += 1

    @pytest.mark.parametrize("name", sorted(TRACE_FAULTS))
    def test_fault_injectors_return_a_writable_copy(self, name):
        trace = toy_workload().trace(2000, seed=1)
        before = trace.copy()
        perturbed = TRACE_FAULTS[name](trace, seed=2)
        assert perturbed.flags.writeable
        assert not np.shares_memory(perturbed, trace)
        assert np.array_equal(trace, before)


class TestTraceFile:
    """``load_or_generate_trace`` shares a trace between processes by file."""

    def test_first_call_generates_and_saves_the_trace(self, tmp_path):
        w = toy_workload()
        path = tmp_path / "toy.npy"
        trace = load_or_generate_trace(w, 1000, 3, path)
        assert trace is w.trace(1000, seed=3)
        assert np.load(path, allow_pickle=False).tobytes() == trace.tobytes()
        assert [entry.name for entry in tmp_path.iterdir()] == ["toy.npy"]

    def test_an_existing_file_is_loaded_not_generated(self, tmp_path, monkeypatch):
        w = toy_workload()
        path = tmp_path / "toy.npy"
        generated = load_or_generate_trace(w, 1000, 3, path)
        monkeypatch.setattr(base, "_latest_trace", None)  # as in another process

        def no_generation(_regions):
            raise AssertionError("the trace was generated again")

        monkeypatch.setattr(w, "pattern_factory", no_generation)
        loaded = load_or_generate_trace(w, 1000, 3, path)
        assert loaded is not generated
        assert loaded is w.trace(1000, seed=3)  # the load filled the slot
        assert not loaded.flags.writeable
        assert loaded.dtype == np.int64
        assert loaded.tobytes() == generated.tobytes()

    @pytest.mark.parametrize(
        "stored",
        [np.arange(999, dtype=np.int64), np.arange(1000, dtype=np.int32)],
        ids=["length", "dtype"],
    )
    def test_a_file_of_another_length_or_dtype_raises(self, tmp_path, stored):
        path = tmp_path / "toy.npy"
        np.save(path, stored)
        with pytest.raises(TraceError, match="toy.npy"):
            load_or_generate_trace(toy_workload(), 1000, 3, path)


class TestRegistry:
    def test_eight_tlb_intensive_workloads(self):
        names = [w.name for w in tlb_intensive_workloads()]
        assert names == [
            "astar",
            "cactusADM",
            "GemsFDTD",
            "mcf",
            "omnetpp",
            "zeusmp",
            "mummer",
            "canneal",
        ]

    def test_footprints_match_table4(self):
        """Table 4 memory footprints, within a few percent."""
        expected_mb = {
            "astar": 350,
            "cactusADM": 690,
            "GemsFDTD": 860,
            "mcf": 1700,
            "omnetpp": 165,
            "zeusmp": 530,
            "canneal": 780,
            "mummer": 470,
        }
        for name, expected in expected_mb.items():
            actual = get_workload(name).footprint_mb
            assert abs(actual - expected) / expected < 0.05, name

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError) as excinfo:
            get_workload("does-not-exist")
        assert "mcf" in str(excinfo.value)

    def test_other_workloads_by_suite(self):
        spec = other_workloads("SPEC 2006")
        parsec = other_workloads("PARSEC")
        assert len(spec) >= 15
        assert len(parsec) >= 8
        assert all(not w.tlb_intensive for w in spec + parsec)

    def test_registry_names_unique_and_cached(self):
        first = all_workloads()
        assert len(first) >= 30
        assert all_workloads() is first

    def test_all_workload_traces_stay_in_bounds(self):
        for workload in all_workloads().values():
            regions = workload.regions()
            low = min(r.start_vpn for r in regions.values())
            high = max(r.end_vpn for r in regions.values())
            trace = workload.trace(2000, seed=7)
            assert len(trace) == 2000
            assert trace.min() >= low
            assert trace.max() < high, workload.name


#: sha256 of each trace's int64 bytes, keyed "workload/accesses/seed":
#: every registry workload at 20,000 accesses (seeds 42 and 43) and the
#: eight TLB-intensive ones at 200,000 (seed 42).  The golden digests and
#: the figures rest on these traces.
TRACE_SHA256 = {
    "astar/20000/42": "dd9c536829fab0929f55a256fe92295cdb586f7f3a81ba86b375a1b9ce369a9c",
    "astar/20000/43": "6b15ec85e8f66b9b2f930ecaa269fdea6a869dfac6d7952381bf550bbf8da6cc",
    "cactusADM/20000/42": "2c9ede5428b893fdaae59f153f67bc9551b0e897cab5242858c7df3342f8ee4c",
    "cactusADM/20000/43": "cd9de2173703f166b5c3f44be875ea11446969eddf865b8cb216ca6310104bd5",
    "GemsFDTD/20000/42": "40afc69ee35e02bc38fb47f3bad63b73f7e60b96016451cb015da0662230abed",
    "GemsFDTD/20000/43": "e8f03aeaa255ced9ca5034843f51cedec7d4abb03d9370ae0a252c7ada3ef6e4",
    "mcf/20000/42": "eedeaef3e6d96beaf42257cc52988f9fbe1aece5039c47f304cf5f93bd6a80a8",
    "mcf/20000/43": "c107b1231d9107f37ea42ea1da5abcc7e7555386865068777d32c3f029053872",
    "omnetpp/20000/42": "1971ca5b8881a070c2fc214b46b7f29f2510ba977da75981666bb41358bc45d9",
    "omnetpp/20000/43": "06a99fa1b6f64e20a23dac3b2b40d85e866c51da73951cbc3149754b724e4ca0",
    "zeusmp/20000/42": "ded93fe4615f9d5cc61f5d9fde8c7cc814ee18ac65b72f82a7cb14912d3d2fa9",
    "zeusmp/20000/43": "0948e136ec0ab9d9b4f6fa2f0c05d34c8060354deec5c6f563acf4276becab98",
    "mummer/20000/42": "96b21d5653860f912d98e03a0857277f18c1d11738f2a93e3be3dabd59231215",
    "mummer/20000/43": "a32ef80f97ad29abaa01be3ea8f9a784d20db426891bece94df63c4477dd7410",
    "canneal/20000/42": "d2605359f9450958afcad853d0ad90a6d7fed22b72d8a6dc57218616e878fe86",
    "canneal/20000/43": "9f45bec11009d0da6b57c1544211340e941ef81e99b019fa2de26b14f4513fe6",
    "perlbench/20000/42": "a3ffa347a48e0dcd8ce5090add76c83edd9217ee476e1b16f32c5f92f8efa369",
    "perlbench/20000/43": "bd43af649452707bd1e40fd810492458661c77e8a4b5a03f0e3b4e7c61b68faa",
    "bzip2/20000/42": "d619df5f7615713419e6a9919036777f95623a82023223d288de9b9256962f51",
    "bzip2/20000/43": "00ac34af9250f60192a7e40c90f50b113d40c87ae3fcf47e03536e7aa628e2d7",
    "gcc/20000/42": "c99d1c447066db99e676bd76eae8b2aa19c27fceaa7f9045a012296643a712a9",
    "gcc/20000/43": "f7c76c3739f0962dd04e07ef2570ea5179cbeaff3b8e370ed836423c24c1766a",
    "bwaves/20000/42": "a34dbd7833c99a570314c2414c7c8c88a23e21bc95e22c7cc3259e0e5685a238",
    "bwaves/20000/43": "29833009e6407382d8e5198534f8ef99bb4bf9a5a1499bb355b7a41561148232",
    "gamess/20000/42": "f8250fa28bc8da2f79817bff208c6a372baee8cc36e550c72dcaca9d8f02cf5a",
    "gamess/20000/43": "598728ce738843abbb80b66c73b345af3a444922e416ff5d52bef633b384552e",
    "milc/20000/42": "1a3f9e67109c297264372b156a1fb3eadb1d51457d0b07e2a6fc9ca13adc05c5",
    "milc/20000/43": "949c1db76d5d9cea8c1973d636cca532d9fed3018ac7ade1d42fa6a7aa5339ff",
    "gromacs/20000/42": "602e574e4c38e07c144a66867e50aac0d7671e41f58311e6da9eaaad1c3c4106",
    "gromacs/20000/43": "538a7420e3b84d3a21affc2a2f922cc86bbb7f8363e53e0d6105b57c20d65a44",
    "leslie3d/20000/42": "158a630e53b681ad697c2a4fef78fa0d843a0be3f049cd1fffadeb73d2456dcf",
    "leslie3d/20000/43": "f3e4ad853a7041ca45fe3fe44ca910d605e568e2fa8442cafd1ea32dac998351",
    "namd/20000/42": "602e574e4c38e07c144a66867e50aac0d7671e41f58311e6da9eaaad1c3c4106",
    "namd/20000/43": "538a7420e3b84d3a21affc2a2f922cc86bbb7f8363e53e0d6105b57c20d65a44",
    "gobmk/20000/42": "9f4176e2fe2053a4ba7af4de6d249ca5e4db475571575e97afdc3b98f3133733",
    "gobmk/20000/43": "4abfef6e1f29c5eaaf2ea99d8f7d76ad4f971bca4fe0b78140022df8160f343d",
    "dealII/20000/42": "a501929b4c04db1cc095c59ec72020878945f33ae87a07bd674f86a42bc42de7",
    "dealII/20000/43": "29cf93a82e8507098e1e6b2a00e8097233450d5cbb66de4a8531344e593451a8",
    "soplex/20000/42": "7b8b300c33cede94753fd06adf115b10f4fe7461787bd7b1035ec85d31957a46",
    "soplex/20000/43": "6b737088217c7821751254ed0b507abf2c4f45302c9fb849bff160696150f7c9",
    "povray/20000/42": "78a799aec8171c8cd36101c283a4585c580aeefc82badeff802d369aea614a9f",
    "povray/20000/43": "11cef276ce2787e018152532cca11860ce643a08f60228e70a72a1cac6b20130",
    "calculix/20000/42": "982a6556004b5abe96417c1ebb6e0bf1fa8d94e6c17783fe591ef5a976260130",
    "calculix/20000/43": "cf9e17c705f7caea979672cb9d16036f2c5968b57e978421664d73c003d62eaa",
    "hmmer/20000/42": "c72c21b71fdc12dec3a5ebf3bbe58460498de819524244b64e75cf15baa2bad8",
    "hmmer/20000/43": "fbdabf41e6b04e04479da82ed69ff6d9e6b6caa55923d07aff34b2a166a80772",
    "sjeng/20000/42": "2eba7bb54cc8c641a1425f79313fb04b8b7967fad6f9de1f3599d4ff605297d3",
    "sjeng/20000/43": "0e0ecf18dd037477ca870b7b630163b16a1c1985f08a9bb4c03b8cb6ad5e9604",
    "libquantum/20000/42": "03603d828b4d38573694e992fb7df8d442b031b100905701373816c33bfd947e",
    "libquantum/20000/43": "ed1aace3b0636b5b461f84f0eef32e0a158e2a1370ba44a2796878c23b61f30b",
    "h264ref/20000/42": "a79909f7699460673605ee7f6324b493c7d216ef11133e9b490b8428dfca35ef",
    "h264ref/20000/43": "429d936475b0ae9e6d52d2f2ad99142af2da810a78afca99d206bcf1cca05060",
    "lbm/20000/42": "4d256dac38428449a5aeb730c34dfafebb575d487cbd96fc8a3f03315fafeba7",
    "lbm/20000/43": "272f1f3b782fd9e41597fa4e8ae80f2152107dbcfe47897cc4ade270f78ea3fd",
    "sphinx3/20000/42": "8226f962ec6b4178beec50b9cd163d5bca6181b493341a8a725639753c326861",
    "sphinx3/20000/43": "84770cd9206a4869a4b09b6d7fe54693e0def81757000b6c61dbe7cca9d5225f",
    "xalancbmk/20000/42": "8c2a709bc01012a71da2e0553310069a73c58ee240ebb06494681af0be900e84",
    "xalancbmk/20000/43": "b6a84abe9e6f4f708fbc3c5fb2e96a1229b14f0b65c5fe2034c4aa0a09c0d45b",
    "blackscholes/20000/42": "f337bd2ac8212416991aa567c06962e95256ea17ddaf064b107d198f6f6059eb",
    "blackscholes/20000/43": "f7a3dcbdf956722f63bf00c0c64c82f083686ef03453a2378b12cdd9647d0514",
    "bodytrack/20000/42": "b9461b3006306fe0754156533ccf967513f873ae9dc931b70a4e2bb1f197eb05",
    "bodytrack/20000/43": "53853f4d65456df31aa5699b9470846f1faae5cec684cccf7c73e27b54973e8e",
    "facesim/20000/42": "02b96467d38b7a35bd1463ada1fd6b924aa6a18183c104bf93037cc0c0d7d031",
    "facesim/20000/43": "48af876fb4bd8d208aa794c5b39a7a9277c7b402156e7c5c7091117d750aaa38",
    "ferret/20000/42": "819f8f5a84b6f68ab9677020da077e016da31d515df256443238d32dcb9dfe08",
    "ferret/20000/43": "0c2bcb50c4c913599da590c1db3b80e1a453887c42ea17b16669e087027025a4",
    "fluidanimate/20000/42": "9448fc60a95c5d1c47de1efc87dda9c8241149d916ed7334dafc32a06a81d183",
    "fluidanimate/20000/43": "d98d36d48bbf478db4acefdf5de24c7555dff147fc69e3e150d6cf0f1e4f7855",
    "freqmine/20000/42": "63fcffe460f244afa8da03fd262d5e044eb3f206c22c9220721092dc5519126b",
    "freqmine/20000/43": "400daba2e3c8f38af5f95ded2c4cbc08bb20df82566d00344a391fe92ef6f718",
    "streamcluster/20000/42": "754254836664d21dd6b0918da8a64fb2019d488d95e11840864409460c1d9890",
    "streamcluster/20000/43": "ecc48759186953ff4dab5ac7907bae33dca4099c3821f59205b0eb4317134a2a",
    "swaptions/20000/42": "401e0b9f2bbe36a9f5ea5bacc1cada76b909a513fec7c045ee8dc03562061da8",
    "swaptions/20000/43": "275f6ca8b8719c8c58dd026aeb278833969b201d323c88610a5e4ab8dd79945d",
    "vips/20000/42": "8e97a027aaba5e31a566692196fef9c2aba50f3e615292513268e3d2d4259a54",
    "vips/20000/43": "26b06bf90c55861e78cefcc45b2da03f9e3365ad6cf2e2d5fc5a6a3f2e102478",
    "x264/20000/42": "409f39c03666c48a80636de411f0c09c98a4a1b099365c4bcbecd11d0c10dd0b",
    "x264/20000/43": "403210d2ef45cfa3b4d2dbfc807b1f3653862fe17f29ceceb8cbfc2d67ba55a9",
    "astar/200000/42": "bdfdfb8a2c32d399193d9d3d4ea853944c68c2012c95721479d1d1cb0f229ea4",
    "cactusADM/200000/42": "981072c3bff583ab3682f85f781645e0916a7f9f36ce419665d2e6cf12408857",
    "GemsFDTD/200000/42": "f0df632fee7503c91faf616ad14f1dd6a6ba4b5d75b6e70b668cc8f21d6f3034",
    "mcf/200000/42": "3b2216a6aa82a0cd5f2eb9fbc7626fecee7e9e7a6ae19729ed9b8e09933e1a38",
    "omnetpp/200000/42": "76f2e42aab834c7c7f82d85804d3c5becd192b605e385cc09f02622ff2b273c5",
    "zeusmp/200000/42": "d649225b5d3a96bbff3c606cb99faabf4b2d4713b4fec719b9fecd34201199cc",
    "mummer/200000/42": "181f9cf84cf7896e579bd741761465d83736d536bf9c989ffb70ecb89c8367a6",
    "canneal/200000/42": "7a5a1ea21864203235747051ed6d42914152b2887ee36de411522023b926fc2d",
}


class TestTracePins:
    """The traces themselves, pinned without running the simulator."""

    def test_every_trace_matches_its_recorded_hash(self):
        def digest(trace):
            assert trace.dtype == np.int64
            return hashlib.sha256(trace.tobytes()).hexdigest()

        hashes = {}
        for name, workload in all_workloads().items():
            for seed in (42, 43):
                hashes[f"{name}/20000/{seed}"] = digest(workload.trace(20_000, seed=seed))
        for workload in tlb_intensive_workloads():
            hashes[f"{workload.name}/200000/42"] = digest(workload.trace(200_000, seed=42))
        assert hashes == TRACE_SHA256

    def test_mixture_peak_stays_near_the_trace(self):
        """omnetpp mixes seven streams; keeping only each one's prefix, its
        250k-access trace peaks within 5 times the bytes it returns (whole
        streams would peak near 10 times).  Generated through its pattern,
        so the shared trace slot plays no part."""
        workload = get_workload("omnetpp")
        pattern = workload.pattern_factory(workload.regions())
        rng = np.random.default_rng(42)
        tracemalloc.start()
        try:
            trace = pattern.generate(rng, 250_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * trace.nbytes


class TestLightTemplate:
    def test_build_light_workload(self):
        profile = LightProfile("demo", "SPEC 2006", 64, stream_share=0.3)
        workload = build_light_workload(profile)
        assert workload.footprint_mb == pytest.approx(64)
        trace = workload.trace(3000, seed=2)
        assert len(trace) == 3000

    def test_light_workloads_are_less_intensive(self):
        """The template produces lower 4KB-page L1 MPKI than e.g. mcf."""
        from repro.analysis.experiments import ExperimentSettings, run_workload_config

        settings = ExperimentSettings(trace_accesses=40_000)
        light = run_workload_config(get_workload("povray"), "4KB", settings)
        heavy = run_workload_config(get_workload("mcf"), "4KB", settings)
        assert light.l1_mpki < heavy.l1_mpki
