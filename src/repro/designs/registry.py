"""Registry of the benchmark designs used by the Figure 3 harness.

Design modules are imported lazily (inside :func:`all_designs`) so that the
package can be imported cheaply and without circular imports.  Each entry
carries the design's paper name, a builder, a testbench factory for the scaled
workload that is actually simulated, and the *nominal* workload (in cycles)
for which the Fig. 3 execution-time models are evaluated — the paper's
workloads (e.g. four frames of video for MPEG4) are far larger than what is
sensible to execute in a pure-Python RTL simulator, so the harness executes a
scaled stimulus for the power numbers and evaluates the calibrated time models
at the nominal workload, as documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.netlist.module import Module
from repro.sim.testbench import Testbench


@dataclass
class BenchmarkDesign:
    """One benchmark design plus its workloads."""

    name: str
    description: str
    build: Callable[[], Module]
    #: returns a fresh testbench for the scaled (actually simulated) workload
    testbench: Callable[[], Testbench]
    #: cycle count of the paper-scale nominal workload (Fig. 3 time models)
    nominal_cycles: int
    #: approximate cycle count of the scaled workload (for reporting)
    scaled_cycles: int
    #: True for the designs that appear in the paper's Figure 3
    in_figure3: bool = True
    notes: Dict[str, object] = field(default_factory=dict)
    #: returns a fresh scaled-workload testbench under an explicit stimulus
    #: seed (multi-seed sweeps); ``None`` when the design has no seeded form
    testbench_seeded: Optional[Callable[[int], Testbench]] = None
    #: returns a declarative :class:`~repro.stim.spec.StimulusSpec` scenario
    #: for the design's free-running input ports; ``None`` when the design's
    #: workload is protocol-driven (memory preloads etc.) and has no
    #: meaningful port-stream form
    stimulus: Optional[Callable[[], "object"]] = None
    #: returns a lane block of scaled-workload testbenches, one lane per
    #: seed (``None``: the default stimulus), lowered straight from the
    #: seeds (:class:`~repro.sim.declarative.SeededStreams`); ``None`` when
    #: the design's lanes are built one testbench per seed
    seeded_block: Optional[Callable[[Sequence[Optional[int]]], "object"]] = None

    def make_seeded_block(self, seeds: Sequence[Optional[int]]):
        """The design's seeded lane block for ``seeds``, or None when it
        declares none (build one testbench per seed instead)."""
        return None if self.seeded_block is None else self.seeded_block(seeds)

    def make_testbench(self, seed: Optional[int] = None) -> Testbench:
        """A fresh scaled-workload testbench, optionally re-seeded.

        ``seed=None`` returns the design's default stimulus; an explicit seed
        requires the design to register a seeded factory.
        """
        if seed is None:
            return self.testbench()
        if self.testbench_seeded is None:
            raise ValueError(
                f"design {self.name!r} has no seeded testbench factory; "
                f"run it with seed=None (the default stimulus)"
            )
        return self.testbench_seeded(seed)

    def make_stimulus_spec(self):
        """The design's declared :class:`~repro.stim.spec.StimulusSpec`."""
        if self.stimulus is None:
            raise ValueError(
                f"design {self.name!r} declares no stimulus spec; pass an "
                f"explicit spec (e.g. --stimulus uniform) instead of "
                f"--stimulus design"
            )
        return self.stimulus()

    def make_stimulus_testbench(self, seed: Optional[int] = None):
        """A scalar :class:`~repro.stim.testbench.SpecTestbench` over the
        design's declared stimulus spec (``seed=None`` = the spec's own)."""
        from repro.stim import SpecTestbench

        return SpecTestbench(self.make_stimulus_spec(), seed=seed)


#: canonical alias used by the unified estimation API (:mod:`repro.api`)
DesignEntry = BenchmarkDesign


def _bubble_sort() -> BenchmarkDesign:
    from repro.designs import bubble_sort

    nominal_depth = 512          # sort a 512-entry table
    scaled_depth = 24
    return BenchmarkDesign(
        name="Bubble_Sort",
        description="in-memory bubble sort engine (sorting circuit)",
        build=lambda: bubble_sort.build(depth=scaled_depth),
        testbench=lambda: bubble_sort.testbench(depth=scaled_depth, seed=11),
        testbench_seeded=lambda seed: bubble_sort.testbench(depth=scaled_depth, seed=seed),
        nominal_cycles=bubble_sort.cycles_per_sort(nominal_depth),
        scaled_cycles=bubble_sort.cycles_per_sort(scaled_depth),
        notes={"nominal_workload": f"sort {nominal_depth} words",
               "scaled_workload": f"sort {scaled_depth} words"},
    )


def _hvpeakf_stimulus():
    from repro.stim import ConstantSpec, StimulusSpec, UniformSpec

    # a free-running random pixel stream with the valid strobe held high
    return StimulusSpec(
        n_cycles=256,
        ports={"pixel": UniformSpec(), "valid": ConstantSpec(1)},
        default=None,
    )


def _hvpeakf() -> BenchmarkDesign:
    from repro.designs import hvpeakf

    nominal_pixels = 4 * 352 * 288      # four CIF luminance frames
    scaled_pixels = 600
    return BenchmarkDesign(
        name="HVPeakF",
        description="horizontal/vertical peaking (sharpening) image filter",
        build=hvpeakf.build,
        testbench=lambda: hvpeakf.testbench(n_pixels=scaled_pixels),
        testbench_seeded=lambda seed: hvpeakf.testbench(n_pixels=scaled_pixels, seed=seed),
        seeded_block=lambda seeds: hvpeakf.lanes(seeds, n_pixels=scaled_pixels),
        stimulus=_hvpeakf_stimulus,
        nominal_cycles=nominal_pixels + 16,
        scaled_cycles=scaled_pixels + 16,
        notes={"nominal_workload": f"filter {nominal_pixels} pixels (4 CIF frames)",
               "scaled_workload": f"filter {scaled_pixels} pixels"},
    )


def _dct() -> BenchmarkDesign:
    from repro.designs import dct, transform

    nominal_blocks = 4 * 396            # four QCIF frames of 8x8 luma blocks
    scaled_blocks = 1
    return BenchmarkDesign(
        name="DCT",
        description="2-D 8x8 forward discrete cosine transform engine",
        build=dct.build,
        testbench=lambda: dct.testbench(n_blocks=scaled_blocks, seed=2),
        testbench_seeded=lambda seed: dct.testbench(n_blocks=scaled_blocks, seed=seed),
        nominal_cycles=nominal_blocks * transform.cycles_per_block(),
        scaled_cycles=scaled_blocks * transform.cycles_per_block(),
        notes={"nominal_workload": f"{nominal_blocks} blocks (4 QCIF frames)",
               "scaled_workload": f"{scaled_blocks} block(s)"},
    )


def _idct() -> BenchmarkDesign:
    from repro.designs import idct, transform

    nominal_blocks = 4 * 396 * 6        # four QCIF frames, 6 blocks per macroblock
    scaled_blocks = 1
    return BenchmarkDesign(
        name="IDCT",
        description="2-D 8x8 inverse DCT (MPEG4 decoder sub-block)",
        build=idct.build,
        testbench=lambda: idct.testbench(n_blocks=scaled_blocks, seed=4),
        testbench_seeded=lambda seed: idct.testbench(n_blocks=scaled_blocks, seed=seed),
        nominal_cycles=nominal_blocks * transform.cycles_per_block(),
        scaled_cycles=scaled_blocks * transform.cycles_per_block(),
        notes={"nominal_workload": f"{nominal_blocks} blocks (4 QCIF frames)",
               "scaled_workload": f"{scaled_blocks} block(s)"},
    )


def _ispq() -> BenchmarkDesign:
    from repro.designs import ispq

    nominal_blocks = 4 * 396 * 6
    scaled_blocks = 3
    return BenchmarkDesign(
        name="Ispq",
        description="MPEG-style inverse quantization block (MPEG4 sub-block)",
        build=ispq.build,
        testbench=lambda: ispq.testbench(n_blocks=scaled_blocks, seed=6),
        testbench_seeded=lambda seed: ispq.testbench(n_blocks=scaled_blocks, seed=seed),
        nominal_cycles=nominal_blocks * ispq.CYCLES_PER_BLOCK,
        scaled_cycles=scaled_blocks * ispq.CYCLES_PER_BLOCK,
        notes={"nominal_workload": f"{nominal_blocks} blocks (4 QCIF frames)",
               "scaled_workload": f"{scaled_blocks} block(s)"},
    )


def _vld() -> BenchmarkDesign:
    from repro.designs import vld

    nominal_symbols = 4 * 396 * 6 * 20   # ~20 coded symbols per block, 4 frames
    scaled_symbols = 120
    return BenchmarkDesign(
        name="Vld",
        description="variable-length (prefix code) decoder (MPEG4 sub-block)",
        build=vld.build,
        testbench=lambda: vld.testbench(n_symbols=scaled_symbols, seed=8),
        testbench_seeded=lambda seed: vld.testbench(n_symbols=scaled_symbols, seed=seed),
        nominal_cycles=nominal_symbols * vld.CYCLES_PER_SYMBOL,
        scaled_cycles=scaled_symbols * vld.CYCLES_PER_SYMBOL,
        notes={"nominal_workload": f"decode {nominal_symbols} symbols (4 frames)",
               "scaled_workload": f"decode {scaled_symbols} symbols"},
    )


def _mpeg4() -> BenchmarkDesign:
    from repro.designs import mpeg4

    nominal_blocks = 4 * 396 * 6         # four QCIF frames of 8x8 blocks
    scaled_blocks = 1
    return BenchmarkDesign(
        name="MPEG4",
        description="MPEG4 block decoder composite (VLD + IQ + IDCT + MC/frame store)",
        build=mpeg4.build,
        testbench=lambda: mpeg4.testbench(n_blocks=scaled_blocks, seed=10),
        testbench_seeded=lambda seed: mpeg4.testbench(n_blocks=scaled_blocks, seed=seed),
        nominal_cycles=nominal_blocks * mpeg4.CYCLES_PER_BLOCK,
        scaled_cycles=scaled_blocks * mpeg4.CYCLES_PER_BLOCK,
        notes={"nominal_workload": f"decode {nominal_blocks} blocks (4 QCIF frames)",
               "scaled_workload": f"decode {scaled_blocks} block(s)"},
    )


def _binary_search_stimulus():
    from repro.stim import ReplaySpec, StimulusSpec, UniformSpec

    # pulse `start` once per search slot, hold a fresh random key per search
    cycles_per_search = 24
    pulse = (1,) + (0,) * (cycles_per_search - 1)
    return StimulusSpec(
        n_cycles=8 * cycles_per_search,
        ports={
            "start": ReplaySpec(values=pulse, repeat=True),
            "key": UniformSpec(hold=cycles_per_search),
        },
        default=None,
    )


def _binary_search() -> BenchmarkDesign:
    from repro.designs import binary_search

    return BenchmarkDesign(
        name="binary_search",
        description="the paper's Fig. 1 binary search example circuit",
        build=binary_search.build,
        testbench=lambda: binary_search.testbench(n_searches=8),
        testbench_seeded=lambda seed: binary_search.testbench(n_searches=8, seed=seed),
        stimulus=_binary_search_stimulus,
        nominal_cycles=100_000 * 24,
        scaled_cycles=8 * 24,
        in_figure3=False,
        notes={"nominal_workload": "100k searches", "scaled_workload": "8 searches"},
    )


def _wide_checksum_stimulus():
    from repro.stim import ConstantSpec, StimulusSpec, UniformSpec

    # a free-running random word stream with the valid strobe held high
    return StimulusSpec(
        n_cycles=192,
        ports={"data": UniformSpec(), "valid": ConstantSpec(1)},
        default=None,
    )


def _wide_checksum() -> BenchmarkDesign:
    from repro.designs import wide_checksum

    scaled_words = 192
    nominal_words = 100_000
    return BenchmarkDesign(
        name="Wide_Checksum",
        description="168-bit rolling-checksum datapath (limb-store lane path)",
        build=wide_checksum.build,
        testbench=lambda: wide_checksum.testbench(n_words=scaled_words, seed=9),
        testbench_seeded=lambda seed: wide_checksum.testbench(n_words=scaled_words, seed=seed),
        stimulus=_wide_checksum_stimulus,
        nominal_cycles=nominal_words,
        scaled_cycles=scaled_words,
        in_figure3=False,
        notes={"nominal_workload": f"checksum {nominal_words} words",
               "scaled_workload": f"checksum {scaled_words} words"},
    )


_FACTORIES = {
    "Bubble_Sort": _bubble_sort,
    "HVPeakF": _hvpeakf,
    "DCT": _dct,
    "IDCT": _idct,
    "Ispq": _ispq,
    "Vld": _vld,
    "MPEG4": _mpeg4,
    "binary_search": _binary_search,
    "Wide_Checksum": _wide_checksum,
}

#: the order in which Fig. 3 lists the benchmarks
FIGURE3_ORDER: List[str] = ["Bubble_Sort", "HVPeakF", "DCT", "IDCT", "Ispq", "Vld", "MPEG4"]


def all_designs() -> Dict[str, BenchmarkDesign]:
    """All registered designs (including the Fig. 1 example)."""
    return {name: factory() for name, factory in _FACTORIES.items()}


def get(name: str) -> DesignEntry:
    """The canonical design lookup: builder + testbench factories + metadata.

    Raises a :class:`KeyError` that lists the valid names — the CLI and the
    sweep runner surface it verbatim.
    """
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown design {name!r}; available: {', '.join(sorted(_FACTORIES))}"
        ) from None


def get_design(name: str) -> BenchmarkDesign:
    """Backwards-compatible alias of :func:`get`."""
    return get(name)


def figure3_designs() -> List[BenchmarkDesign]:
    """The seven designs of the paper's Figure 3, in plot order."""
    return [get_design(name) for name in FIGURE3_ORDER]


#: design name -> flattened module, shared per process (see build_flat)
_FLAT_CACHE: Dict[str, Module] = {}


def build_flat(name: str) -> Module:
    """Build + flatten a registry design once per process and cache it.

    Registry designs are re-simulated dozens of times across the benchmark
    suite; reusing one flat module lets the simulator's per-module schedule
    and code-generation caches hit instead of re-elaborating every time.

    The returned module is *shared*: sequential state lives on its component
    objects, so do not drive two concurrently-active simulators with it.
    Constructing a :class:`~repro.sim.engine.Simulator` resets all state, so
    strictly sequential runs (e.g. benchmarking one backend after another)
    are safe.  Callers that need isolated state should use
    ``flatten(get_design(name).build())`` instead.
    """
    if name not in _FLAT_CACHE:
        from repro.netlist.flatten import flatten

        _FLAT_CACHE[name] = flatten(get_design(name).build())
    return _FLAT_CACHE[name]
