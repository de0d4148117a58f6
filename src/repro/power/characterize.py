"""Macromodel characterization against gate-level reference implementations.

For a given RTL component the engine:

1. technology-maps it to gates (:mod:`repro.gates.techmap`),
2. generates training vector *pairs* spanning a range of toggle densities —
   all ``n_pairs`` of them at once, as NumPy lane arrays (seed-stable),
3. measures the reference transition energies with the gate-level power
   calculator — one lane-vectorized settle per vector set, a pair per lane
   (ports wider than an ``int64`` lane travel as Python-int columns),
4. extracts the per-bit transition indicators ``T(x_i)`` of the component's
   monitored ports for every pair with vectorized bit-unpacking, and
5. solves the least-squares problem ``E ≈ base + sum_i coeff_i * T(x_i)``
   (numpy ``lstsq``) to obtain the linear-transition macromodel, together
   with goodness-of-fit metrics.

This mirrors the characterization flow the paper's power-macromodel library
is built with ([6], [8] in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.gates.gate_power import GatePowerCalculator
from repro.gates.gatesim import MAX_LANE_PORT_WIDTH, GateLevelSimulator
from repro.gates.techmap import TechnologyMapper
from repro.netlist.components import Component
from repro.power.macromodel import CharacterizationMetrics, LinearTransitionModel, LUTPowerModel
from repro.power.technology import CB130M_TECHNOLOGY, Technology

#: per-pair flip probabilities; drawn per pair so the training set covers the
#: whole toggle-density range (the regression otherwise extrapolates badly at
#: low activities)
FLIP_PROBABILITIES = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an ``(n, width)`` 0/1 matrix into ``(n,)`` port-value arrays.

    Values up to :data:`~repro.gates.gatesim.MAX_LANE_PORT_WIDTH` bits pack
    into int64 lanes; wider ports pack into exact Python ints in an object
    array, which the gate-level settle takes as is.
    """
    width = bits.shape[1]
    if width > MAX_LANE_PORT_WIDTH:
        out = np.empty(bits.shape[0], dtype=object)
        for index, row in enumerate(bits):
            value = 0
            for bit in range(width):
                if row[bit]:
                    value |= 1 << bit
            out[index] = value
        return out
    weights = np.left_shift(np.int64(1), np.arange(width, dtype=np.int64))
    return bits.astype(np.int64) @ weights


def _unpack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Unpack ``(n,)`` int values into an ``(n, width)`` 0/1 matrix."""
    unpacked = (values[:, None] >> np.arange(width, dtype=np.int64)) & 1
    return unpacked.astype(np.int64)


def _popcount(values: np.ndarray, width: int) -> np.ndarray:
    """Per-lane population count of ``width``-bit values."""
    if values.dtype != object and hasattr(np, "bitwise_count"):
        return np.bitwise_count(values.astype(np.uint64)).astype(np.int64)
    return _unpack_bits(values, width).sum(axis=1)


def generate_training_pairs(
    component: Component, n_pairs: int, seed: int
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """All training pairs for one component, as per-port lane arrays.

    Each pair is a random vector and a perturbation of it whose per-pair flip
    probability is drawn from :data:`FLIP_PROBABILITIES`.  The same ``seed``
    always yields the same pairs.
    """
    if n_pairs < 1:
        raise ValueError(f"characterization needs n_pairs >= 1, got {n_pairs}")
    rng = np.random.default_rng(seed)
    probabilities = rng.choice(FLIP_PROBABILITIES, size=n_pairs)
    firsts: Dict[str, np.ndarray] = {}
    seconds: Dict[str, np.ndarray] = {}
    for port in component.input_ports:
        bits = rng.integers(0, 2, size=(n_pairs, port.width), dtype=np.int64)
        flips = rng.random((n_pairs, port.width)) < probabilities[:, None]
        firsts[port.name] = _pack_bits(bits)
        seconds[port.name] = _pack_bits(bits ^ flips)
    return firsts, seconds


def holdout_error(
    component: Component,
    model,
    seed: int = 99,
    n_pairs: int = 40,
    technology: Technology = CB130M_TECHNOLOGY,
    mapper: Optional[TechnologyMapper] = None,
) -> float:
    """Average relative error of ``model`` on a fresh (non-training) vector set.

    Maps the component to gates, applies ``n_pairs`` independent uniform
    random vector pairs (not perturbation pairs — holdout stresses the model
    away from the training distribution), and compares the summed model
    energy against the summed gate-level reference energy.
    """
    if n_pairs < 1:
        raise ValueError(f"holdout evaluation needs n_pairs >= 1, got {n_pairs}")
    mapper = mapper if mapper is not None else TechnologyMapper(technology.cell_library)
    netlist = mapper.map_component(component)
    calculator = GatePowerCalculator(netlist, technology.cell_library)
    simulator = GateLevelSimulator(netlist)
    widths = {p.name: p.width for p in component.ports.values()}

    rng = np.random.default_rng(seed)
    firsts = {
        p.name: _pack_bits(rng.integers(0, 2, size=(n_pairs, p.width), dtype=np.int64))
        for p in component.input_ports
    }
    seconds = {
        p.name: _pack_bits(rng.integers(0, 2, size=(n_pairs, p.width), dtype=np.int64))
        for p in component.input_ports
    }
    energies, prev_io, curr_io = _run_pairs(
        simulator, calculator, widths, firsts, seconds
    )
    total_reference = float(energies.sum())
    total_model = 0.0
    for lane in range(n_pairs):
        previous = {p: int(a[lane]) for p, a in prev_io.items()}
        current = {p: int(a[lane]) for p, a in curr_io.items()}
        total_model += model.evaluate(previous, current)
    if total_reference == 0.0:
        return 0.0
    return abs(total_model - total_reference) / total_reference


def _run_pairs(
    simulator: GateLevelSimulator,
    calculator: GatePowerCalculator,
    port_widths: Mapping[str, int],
    firsts: Mapping[str, np.ndarray],
    seconds: Mapping[str, np.ndarray],
) -> Tuple[np.ndarray, Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Reference energies and full I/O values for every training pair.

    Returns ``(energies, prev_io, curr_io)`` where ``energies`` is the
    ``(n_pairs,)`` gate-level transition energy vector and the I/O mappings
    hold per-port ``(n_pairs,)`` value arrays (inputs and simulated outputs,
    object columns for ports wider than an int64 lane).  Each of the two
    vector sets settles as one block, a pair per lane.
    """
    out_first = simulator.evaluate_ports_batch(firsts, port_widths)
    before = simulator.snapshot_batch()
    out_second = simulator.evaluate_ports_batch(seconds, port_widths)
    after = simulator.snapshot_batch()
    energies = calculator.transition_energy_batch(simulator, before, after)
    return (
        energies.total_fj,
        {**dict(firsts), **out_first},
        {**dict(seconds), **out_second},
    )


@dataclass
class CharacterizationResult:
    """A fitted model plus the data and metrics behind it."""

    component_type: str
    model: LinearTransitionModel
    metrics: CharacterizationMetrics
    #: reference energies (fJ) per training transition
    reference_energies: List[float]
    #: model-predicted energies per training transition
    predicted_energies: List[float]


class CharacterizationEngine:
    """Fits linear-transition macromodels from gate-level simulations."""

    def __init__(
        self,
        technology: Technology = CB130M_TECHNOLOGY,
        mapper: Optional[TechnologyMapper] = None,
        n_pairs: int = 120,
        seed: int = 2005,
        nonnegative: bool = True,
        kernel_backend: Optional[str] = None,
    ) -> None:
        if n_pairs < 1:
            raise ValueError(f"characterization needs n_pairs >= 1, got {n_pairs}")
        self.technology = technology
        self.mapper = mapper if mapper is not None else TechnologyMapper(technology.cell_library)
        self.n_pairs = n_pairs
        self.seed = seed
        #: clamp negative fitted coefficients to zero (hardware-friendly)
        self.nonnegative = nonnegative
        #: lane-kernel backend for the batched gate-level settles ("native"
        #: compiles the settle via repro.sim.kernels when a C compiler exists)
        self.kernel_backend = kernel_backend

    # ------------------------------------------------------------------ API
    def characterize(self, component: Component) -> CharacterizationResult:
        """Fit a linear-transition model for one component."""
        inputs_bits, energies = self._collect_training_data(component)
        coefficients, base, predicted = self._fit(inputs_bits, energies)
        port_widths = {p.name: p.width for p in component.monitored_ports()}
        model = self._assemble_model(component, port_widths, coefficients, base)
        metrics = self._metrics(energies, predicted)
        model.metrics = metrics
        return CharacterizationResult(
            component_type=component.type_name,
            model=model,
            metrics=metrics,
            reference_energies=list(energies),
            predicted_energies=list(predicted),
        )

    def characterize_lut(self, component: Component, n_bins: int = 8) -> LUTPowerModel:
        """Fit a LUT macromodel (toggle-density binned) for the ablation study."""
        if n_bins < 1:
            raise ValueError(f"LUT characterization needs n_bins >= 1, got {n_bins}")
        port_widths = {p.name: p.width for p in component.ports.values()}
        input_ports = [p.name for p in component.input_ports]
        output_ports = [p.name for p in component.output_ports]

        energies, prev_io, curr_io = self._simulate_training_pairs(component)
        in_density = self._density(input_ports, port_widths, prev_io, curr_io)
        out_density = self._density(output_ports, port_widths, prev_io, curr_io)
        rows = np.minimum(n_bins - 1, (in_density * n_bins).astype(np.int64))
        cols = np.minimum(n_bins - 1, (out_density * n_bins).astype(np.int64))

        sums = np.zeros((n_bins, n_bins), dtype=np.float64)
        counts = np.zeros((n_bins, n_bins), dtype=np.int64)
        np.add.at(sums, (rows, cols), energies)
        np.add.at(counts, (rows, cols), 1)
        with np.errstate(invalid="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        table = [[float(means[r, c]) for c in range(n_bins)] for r in range(n_bins)]
        self._fill_empty_bins(table, counts.tolist())
        return LUTPowerModel(
            component.type_name,
            {p.name: p.width for p in component.monitored_ports()},
            input_ports,
            output_ports,
            table,
        )

    # -------------------------------------------------------- training data
    def _simulate_training_pairs(
        self, component: Component
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Generate, simulate and collect all ``n_pairs`` training pairs."""
        firsts, seconds = generate_training_pairs(component, self.n_pairs, self.seed)
        gate_netlist = self.mapper.map_component(component)
        calculator = GatePowerCalculator(gate_netlist, self.technology.cell_library)
        simulator = GateLevelSimulator(gate_netlist, kernel_backend=self.kernel_backend)
        port_widths = {p.name: p.width for p in component.ports.values()}
        return _run_pairs(simulator, calculator, port_widths, firsts, seconds)

    def _collect_training_data(self, component: Component) -> Tuple[np.ndarray, np.ndarray]:
        energies, prev_io, curr_io = self._simulate_training_pairs(component)
        port_widths = {p.name: p.width for p in component.ports.values()}
        monitored = sorted(p.name for p in component.monitored_ports())
        columns = []
        for port in monitored:
            toggles = prev_io.get(port, 0) ^ curr_io.get(port, 0)
            columns.append(_unpack_bits(toggles, port_widths[port]))
        features = (
            np.concatenate(columns, axis=1).astype(np.float64)
            if columns
            else np.zeros((self.n_pairs, 0), dtype=np.float64)
        )
        return features, energies

    # ------------------------------------------------------------- fitting
    def _fit(self, features: np.ndarray, energies: np.ndarray):
        n_samples, n_bits = features.shape
        design = np.hstack([np.ones((n_samples, 1)), features])
        solution, *_ = np.linalg.lstsq(design, energies, rcond=None)
        base = float(solution[0])
        coefficients = solution[1:]
        if self.nonnegative:
            coefficients = np.clip(coefficients, 0.0, None)
            base = max(base, 0.0)
        predicted = design @ np.concatenate([[base], coefficients])
        return coefficients, base, predicted

    def _assemble_model(
        self,
        component: Component,
        port_widths: Mapping[str, int],
        flat_coefficients: Sequence[float],
        base: float,
    ) -> LinearTransitionModel:
        per_port: Dict[str, List[float]] = {}
        index = 0
        for port in sorted(port_widths):
            width = port_widths[port]
            per_port[port] = [float(c) for c in flat_coefficients[index:index + width]]
            index += width
        return LinearTransitionModel(component.type_name, port_widths, per_port, base)

    @staticmethod
    def _metrics(reference: np.ndarray, predicted: np.ndarray) -> CharacterizationMetrics:
        reference = np.asarray(reference, dtype=float)
        predicted = np.asarray(predicted, dtype=float)
        residual = reference - predicted
        ss_res = float(np.sum(residual**2))
        ss_tot = float(np.sum((reference - reference.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        rmse = float(np.sqrt(np.mean(residual**2)))
        spread = float(reference.max() - reference.min()) or 1.0
        return CharacterizationMetrics(
            n_samples=int(reference.size),
            r_squared=r_squared,
            nrmse=rmse / spread,
            max_abs_error_fj=float(np.max(np.abs(residual))),
            mean_energy_fj=float(reference.mean()),
        )

    @staticmethod
    def _density(ports, widths, previous, current) -> np.ndarray:
        """Per-lane toggle density over a set of ports (vectorized)."""
        bits = sum(widths[p] for p in ports) or 1
        n_lanes = next(iter(previous.values())).shape[0] if previous else 0
        toggles = np.zeros(n_lanes, dtype=np.int64)
        for port in ports:
            if port not in previous and port not in current:
                continue
            xor = previous.get(port, 0) ^ current.get(port, 0)
            toggles += _popcount(np.asarray(xor), widths[port])
        return toggles / bits

    def settings(self) -> "EngineSettings":
        """The engine's configuration as a hashable, picklable key.

        Engines carrying a custom ``mapper`` cannot be reconstructed in a
        worker process and raise — shard with the default mapper instead.
        """
        if (type(self.mapper) is not TechnologyMapper
                or self.mapper.library is not self.technology.cell_library):
            raise ValueError(
                "sharded characterization requires the technology's default "
                "TechnologyMapper; custom mappers cannot be shipped to worker "
                "processes"
            )
        return EngineSettings(
            technology=self.technology,
            n_pairs=self.n_pairs,
            seed=self.seed,
            nonnegative=self.nonnegative,
            kernel_backend=self.kernel_backend,
        )

    @staticmethod
    def _fill_empty_bins(table, counts) -> None:
        """Fill unobserved LUT bins with the nearest observed value."""
        n = len(table)
        observed = [(r, c) for r in range(n) for c in range(n) if counts[r][c]]
        if not observed:
            return
        for r in range(n):
            for c in range(n):
                if counts[r][c]:
                    continue
                nearest = min(observed, key=lambda rc: abs(rc[0] - r) + abs(rc[1] - c))
                table[r][c] = table[nearest[0]][nearest[1]]


# ------------------------------------------------------------ sharding
class EngineSettings(NamedTuple):
    """Hashable :class:`CharacterizationEngine` configuration.

    Worker processes key their process-lifetime engine cache on this tuple,
    so every component characterized under the same settings in one worker
    reuses one engine — and with it the technology mapper and, for the
    native backend, the process's compiled-kernel cache, which stays warm
    across components instead of being rebuilt per task.
    """

    technology: Technology
    n_pairs: int
    seed: int
    nonnegative: bool
    kernel_backend: Optional[str]

    def make_engine(self) -> CharacterizationEngine:
        return CharacterizationEngine(
            technology=self.technology,
            n_pairs=self.n_pairs,
            seed=self.seed,
            nonnegative=self.nonnegative,
            kernel_backend=self.kernel_backend,
        )


#: per-worker-process engines, keyed by settings (process-lifetime cache)
_WORKER_ENGINES: Dict[EngineSettings, CharacterizationEngine] = {}


def _characterize_worker(
    payload: Tuple[Component, EngineSettings]
) -> CharacterizationResult:
    """Worker entry point: characterize one component on a cached engine."""
    component, settings = payload
    engine = _WORKER_ENGINES.get(settings)
    if engine is None:
        engine = settings.make_engine()
        _WORKER_ENGINES[settings] = engine
    return engine.characterize(component)


def characterize_many(
    components: Sequence[Component],
    engine: Optional[CharacterizationEngine] = None,
    n_workers: int = 1,
) -> List[CharacterizationResult]:
    """Characterize a set of components, optionally across a process pool.

    Results are in ``components`` order and identical for any ``n_workers``:
    each component's training stimulus depends only on the engine seed and
    the component itself, never on sharding (see the shard-parity tests).
    ``n_workers <= 1`` runs serially in-process on ``engine`` directly.
    """
    if engine is None:
        engine = CharacterizationEngine()
    if n_workers <= 1 or len(components) <= 1:
        return [engine.characterize(component) for component in components]
    from repro.bench.shard import run_payload_tasks

    settings = engine.settings()
    return run_payload_tasks(
        [(component, settings) for component in components],
        _characterize_worker,
        n_workers=n_workers,
    )
