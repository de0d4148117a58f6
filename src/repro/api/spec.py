"""Declarative run/sweep specifications and the uniform estimation result.

A :class:`RunSpec` names *what* to estimate — a registry design, an engine,
a stimulus seed, a cycle budget, a simulation backend — without touching any
engine API.  Every engine adapter (:mod:`repro.api.estimators`) consumes the
same spec and produces the same :class:`EstimateResult`: the
:class:`~repro.power.report.PowerReport`, a wall-clock timing breakdown, the
resolved engine/backend metadata, and (optionally) accuracy against the
software RTL baseline.  Specs and results are frozen/plain dataclasses with
``to_json``/``from_json``, so the :mod:`repro.bench.cache` layer can persist
them and the CLI can emit them as artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.power.profile import PowerProfile
from repro.power.report import PowerReport
#: lane-kernel backends selectable by ``RunSpec.kernel_backend`` (the fused
#: settle/clock-edge kernels of :mod:`repro.sim.kernels`; only consulted on
#: the batch lane path — ``auto`` = ``off`` while the C kernel compiles in
#: the background, then ``native``, or ``off`` throughout when no C compiler
#: is found; ``native`` = C via cffi, compiled first, falling back to
#: ``off`` without a working toolchain; ``off`` = per-op NumPy dispatch);
#: re-exported from the kernels package so the list cannot drift
from repro.sim.kernels import KERNEL_BACKENDS, resolve_kernel_backend
from repro.stim.spec import StimulusSpec

#: engines selectable by ``RunSpec.engine``
ENGINES: Tuple[str, ...] = ("rtl", "gate", "emulation")

#: simulation backends selectable by ``RunSpec.backend``
BACKENDS: Tuple[str, ...] = ("auto", "compiled", "interp", "batch")

#: failure policies selectable by ``SweepSpec.on_error``
ON_ERROR_POLICIES: Tuple[str, ...] = ("raise", "skip")

#: spec fields that configure *execution robustness* rather than result
#: identity — excluded from cache keys (a retried run is still the same run)
EXECUTION_POLICY_FIELDS: Tuple[str, ...] = ("timeout_s", "max_retries")

#: spec fields that may differ between lane-mates of one shared batch: the
#: stimulus seed (each seed is its own lane), per-result shaping
#: (``keep_cycle_trace``/``compare_to_rtl``/``power_profile``/
#: ``profile_window`` are applied per spec after the shared simulation) and
#: the execution-policy fields above
COALESCE_FREE_FIELDS: Tuple[str, ...] = EXECUTION_POLICY_FIELDS + (
    "seed",
    "keep_cycle_trace",
    "compare_to_rtl",
    "power_profile",
    "profile_window",
)


def _check_policy_fields(timeout_s, max_retries) -> None:
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be > 0 seconds, got {timeout_s}")
    if max_retries is not None and max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")


def _spec_payload(spec) -> Dict[str, object]:
    """A spec's fields as a dict: a shallow copy (every field but the
    stimulus is a scalar or a tuple of them) plus the stimulus payload."""
    payload = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    if spec.stimulus is not None:
        payload["stimulus"] = spec.stimulus.to_dict()
    return payload


def _coerce_stimulus(value) -> Optional[StimulusSpec]:
    """Accept a StimulusSpec, its dict payload (JSON round trips), or None."""
    if isinstance(value, dict):
        return StimulusSpec.from_dict(value)
    if value is not None and not isinstance(value, StimulusSpec):
        raise ValueError(
            f"stimulus must be a repro.stim.StimulusSpec (or its dict "
            f"payload), got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class RunSpec:
    """One power-estimation run, declaratively.

    ``design`` names an entry of :mod:`repro.designs.registry`; ``engine``
    selects the estimation engine (``rtl`` — the software RTL macromodel
    estimator, ``gate`` — the gate-level re-simulation baseline,
    ``emulation`` — the paper's instrumented-FPGA flow).  ``seed`` re-seeds
    the design's scaled-workload stimulus (``None`` = the design default);
    ``backend`` picks the functional-simulation strategy: ``batch`` runs the
    RTL engine over BatchSimulator lanes; ``auto`` runs an RTL spec as a
    one-lane ``batch`` block when that block runs fused on a native kernel
    this process has already built, and on ``compiled`` otherwise (queueing
    a cold module's kernel build), recording why in
    ``metadata["kernel_decision"]``; the gate engine resolves ``auto`` to
    ``compiled``.  ``stimulus`` replaces the design's built-in testbench with a
    declarative :class:`~repro.stim.spec.StimulusSpec` scenario (driven as a
    :class:`~repro.stim.testbench.SpecTestbench`, and as the vectorized
    array driver on the lane path); a plain dict payload is accepted and
    coerced.  ``compare_to_rtl`` attaches accuracy against a software-RTL
    reference run of the same design/seed.
    """

    design: str
    engine: str = "rtl"
    seed: Optional[int] = None
    stimulus: Optional[StimulusSpec] = None
    max_cycles: Optional[int] = None
    backend: str = "auto"
    #: fused lane-kernel backend for batch execution (see KERNEL_BACKENDS;
    #: ``None`` = the ``REPRO_KERNEL_BACKEND`` env, else ``auto``)
    kernel_backend: Optional[str] = None
    #: native-kernel worker count for batch execution (``None`` = the
    #: ``REPRO_KERNEL_THREADS`` env / ``auto`` = one worker);
    #: any count is bit-identical — this is purely a throughput knob
    kernel_threads: Optional[int] = None
    library: str = "seed"
    #: fixed-point coefficient width of the instrumentation (emulation engine)
    coefficient_bits: int = 12
    #: nominal workload the emulation time model is evaluated at
    #: (``None`` = the executed cycle count)
    workload_cycles: Optional[int] = None
    #: model the testbench as mapped onto the FPGA (emulation engine)
    testbench_on_fpga: bool = False
    keep_cycle_trace: bool = False
    compare_to_rtl: bool = False
    #: collect a windowed per-component power profile alongside the report
    #: (attached as ``EstimateResult.profile``)
    power_profile: bool = False
    #: profile window width in cycles (``None`` = the engine default: about
    #: 64 windows over the cycle budget on the software estimators, else one
    #: cycle; the strobe period on emulation)
    profile_window: Optional[int] = None
    #: per-task wall-clock deadline when executed by the resilient sweep/shard
    #: layer (``None`` = the ``REPRO_TASK_TIMEOUT_S`` env, else no deadline)
    timeout_s: Optional[float] = None
    #: retries after the first attempt under the resilient layer
    #: (``None`` = the ``REPRO_TASK_RETRIES`` env, else 0)
    max_retries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {', '.join(ENGINES)}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {', '.join(BACKENDS)}"
            )
        object.__setattr__(self, "kernel_backend",
                           resolve_kernel_backend(self.kernel_backend))
        if self.kernel_threads is not None and self.kernel_threads < 1:
            raise ValueError(
                f"kernel_threads must be >= 1 (or None for auto), got "
                f"{self.kernel_threads}"
            )
        if self.backend == "batch" and self.engine != "rtl":
            raise ValueError(
                f"backend 'batch' is only available for the 'rtl' engine, "
                f"not {self.engine!r} (gate/emulation engines observe scalar "
                f"simulations)"
            )
        if self.library != "seed":
            raise ValueError(
                f"unknown power-model library {self.library!r}; only the "
                f"deterministic 'seed' library is registered"
            )
        if self.profile_window is not None and self.profile_window < 1:
            raise ValueError(
                f"profile_window must be >= 1 cycle (or None for the engine "
                f"default), got {self.profile_window}"
            )
        _check_policy_fields(self.timeout_s, self.max_retries)
        object.__setattr__(self, "stimulus", _coerce_stimulus(self.stimulus))

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        return _spec_payload(self)

    def cache_dict(self) -> Dict[str, object]:
        """The spec as a cache-key payload: execution policy excluded.

        Retrying or time-limiting a run does not change what it computes, so
        ``timeout_s``/``max_retries`` must not fracture the result cache — a
        ``--resume`` with a different retry budget still hits yesterday's
        results.
        """
        payload = self.to_dict()
        for name in EXECUTION_POLICY_FIELDS:
            payload.pop(name, None)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunSpec":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------- variants
    def replace(self, **changes) -> "RunSpec":
        """A copy with ``changes`` applied, checked as a new spec is.

        ``dataclasses.replace`` would rebuild every field through
        ``__init__``; copying the field dict and rerunning
        ``__post_init__`` runs the same checks in a third of the time.
        """
        unknown = changes.keys() - _INIT_FIELDS
        if unknown:
            raise TypeError(
                f"RunSpec.replace() got unexpected field name(s): "
                f"{', '.join(sorted(unknown))}"
            )
        spec = object.__new__(type(self))
        fields = spec.__dict__
        fields.update(self.__dict__)
        fields.update(changes)
        spec.__post_init__()
        return spec


#: the fields :meth:`RunSpec.replace` may change: the ``__init__`` ones
_INIT_FIELDS = frozenset(f.name for f in dataclasses.fields(RunSpec) if f.init)


#: the RunSpec fields that enter the coalesce key
_KEY_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(RunSpec) if f.name not in COALESCE_FREE_FIELDS
)

#: a spec's coalesce-key fields as one tuple.  Specs with equal tuples are
#: lane-compatible (a stimulus shared by lane-mates compares by identity),
#: so a block calls :func:`coalesce_key` only for specs whose tuples differ
key_fields = operator.attrgetter(*_KEY_FIELDS)


def coalesce_key(spec: RunSpec) -> str:
    """The canonical compatibility key of one run for lane coalescing.

    Two specs with equal keys compute *independent lanes of the same shared
    batch*: they agree on everything that shapes the simulated machine and
    its workload (design, engine, stimulus, cycle budget, kernel
    backend/threads, library, ...) and differ at most in the
    :data:`COALESCE_FREE_FIELDS` — the stimulus seed plus per-result shaping
    and execution policy.  :meth:`RTLEstimatorAdapter.estimate_many
    <repro.api.estimators.RTLEstimatorAdapter.estimate_many>` and the
    :mod:`repro.serve` coalescer both group by exactly this key, so the API
    and the server can never disagree about what is mergeable.

    The key is a canonical JSON string: stable across processes, hashable,
    and directly usable as a grouping key or in logs.  ``backend`` values
    ``auto`` and ``batch`` normalize to one key on the RTL engine — a merged
    group runs on the lane path either way, and lane count never changes
    results.
    """
    payload = {name: getattr(spec, name) for name in _KEY_FIELDS}
    if spec.stimulus is not None:
        # serialized once per (frozen) stimulus instance: lane-mates share it
        payload["stimulus"] = spec.stimulus.shared_dict
    if spec.engine == "rtl" and spec.backend in ("auto", "batch"):
        payload["backend"] = "batch"
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def is_coalescable(spec: RunSpec) -> bool:
    """Whether this spec can run as one lane of a shared batch.

    Only the RTL engine has a lane-vectorized estimator, and only the
    ``auto``/``batch`` backends route onto it; gate/emulation runs and
    explicitly scalar backends (``compiled``/``interp``) always execute
    alone.
    """
    return spec.engine == "rtl" and spec.backend in ("auto", "batch")


@dataclass(frozen=True)
class SweepSpec:
    """A (design × engine × stimulus-seed) sweep.

    Expands into one :class:`RunSpec` per combination.  Multi-seed RTL runs
    are grouped into BatchSimulator lanes (one settle per cycle for all
    seeds); groups/tasks fan out over the PR-2 process-pool shard runner when
    ``n_workers > 1``, and completed results persist in the on-disk result
    cache when ``cache_dir`` is set.
    """

    designs: Tuple[str, ...]
    engines: Tuple[str, ...] = ("rtl",)
    seeds: Tuple[int, ...] = (0,)
    max_cycles: Optional[int] = None
    backend: str = "auto"
    #: fused lane-kernel backend for multi-seed batch groups (``None`` =
    #: the ``REPRO_KERNEL_BACKEND`` env, else ``auto``)
    kernel_backend: Optional[str] = None
    #: native-kernel worker count for multi-seed batch groups (None = auto)
    kernel_threads: Optional[int] = None
    library: str = "seed"
    coefficient_bits: int = 12
    n_workers: int = 0
    cache_dir: Optional[str] = None
    #: declarative scenario driven instead of the designs' built-in testbenches
    stimulus: Optional[StimulusSpec] = None
    #: collect windowed power profiles on every expanded run
    power_profile: bool = False
    #: profile window width in cycles, copied into every expanded RunSpec
    profile_window: Optional[int] = None
    #: per-task wall-clock deadline, copied into every expanded RunSpec
    timeout_s: Optional[float] = None
    #: retries after the first attempt, copied into every expanded RunSpec
    max_retries: Optional[int] = None
    #: what a task failure does to the sweep: ``"raise"`` aborts with the
    #: task's exception; ``"skip"`` records a structured TaskFailure and keeps
    #: going, returning results for every healthy task
    on_error: str = "raise"

    def __post_init__(self) -> None:
        # tolerate lists (e.g. built from JSON / argparse) by normalizing
        for name in ("designs", "engines", "seeds"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if not self.designs:
            raise ValueError("sweep needs at least one design")
        for engine in self.engines:
            if engine not in ENGINES:
                raise ValueError(
                    f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
                )
        object.__setattr__(self, "kernel_backend",
                           resolve_kernel_backend(self.kernel_backend))
        if self.kernel_threads is not None and self.kernel_threads < 1:
            raise ValueError(
                f"kernel_threads must be >= 1 (or None for auto), got "
                f"{self.kernel_threads}"
            )
        seeds = self.seeds
        if len(set(seeds)) != len(seeds):
            duplicates = sorted({s for s in seeds if seeds.count(s) > 1})
            raise ValueError(
                f"duplicate stimulus seeds in sweep: "
                f"{', '.join(str(s) for s in duplicates)} — each seed is one "
                f"independent run/lane, so repeats would only re-estimate "
                f"identical results; drop the repeated seeds (on the CLI, "
                f"--seeds 0:4 already covers 0 1 2 3)"
            )
        if self.profile_window is not None and self.profile_window < 1:
            raise ValueError(
                f"profile_window must be >= 1 cycle (or None for the engine "
                f"default), got {self.profile_window}"
            )
        _check_policy_fields(self.timeout_s, self.max_retries)
        if self.on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"unknown on_error policy {self.on_error!r}; expected one of "
                f"{', '.join(ON_ERROR_POLICIES)}"
            )
        object.__setattr__(self, "stimulus", _coerce_stimulus(self.stimulus))

    def run_specs(self) -> List[RunSpec]:
        """The sweep's full (design × engine × seed) RunSpec expansion."""
        return [
            RunSpec(
                design=design,
                engine=engine,
                seed=seed,
                stimulus=self.stimulus,
                max_cycles=self.max_cycles,
                backend=self.backend,
                kernel_backend=self.kernel_backend,
                kernel_threads=self.kernel_threads,
                library=self.library,
                coefficient_bits=self.coefficient_bits,
                power_profile=self.power_profile,
                profile_window=self.profile_window,
                timeout_s=self.timeout_s,
                max_retries=self.max_retries,
            )
            for design in self.designs
            for engine in self.engines
            for seed in self.seeds
        ]

    def to_dict(self) -> Dict[str, object]:
        return _spec_payload(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepSpec":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})


@dataclass
class EstimateResult:
    """The uniform result of one :class:`RunSpec` through any engine.

    ``engine`` is the resolved estimator identity (e.g. ``rtl-macromodel``),
    ``backend`` the resolved simulation strategy (``compiled``, ``interp``,
    ``batch[n]``, or ``emulation``), ``timing`` a wall-clock breakdown in
    seconds, ``accuracy`` the relative error against the software RTL
    baseline when the spec asked for it, and ``metadata`` engine-specific
    extras (monitored bits, FPGA device, overheads, ...).
    """

    spec: RunSpec
    engine: str
    backend: str
    report: PowerReport
    timing: Dict[str, float] = field(default_factory=dict)
    accuracy: Optional[Dict[str, float]] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    #: windowed power profile when the spec asked for ``power_profile``
    profile: Optional[PowerProfile] = None

    # ---------------------------------------------------------------- views
    @property
    def average_power_mw(self) -> float:
        return self.report.average_power_mw

    @property
    def total_s(self) -> float:
        return float(self.timing.get("total_s", 0.0))

    def summary(self) -> str:
        seed = f" seed={self.spec.seed}" if self.spec.seed is not None else ""
        accuracy = (
            f"  error vs rtl {100.0 * self.accuracy['relative_error']:+.2f}%"
            if self.accuracy
            else ""
        )
        return (
            f"{self.spec.design}[{self.spec.engine}/{self.backend}]{seed}: "
            f"{self.report.average_power_mw:.4f} mW over {self.report.cycles} "
            f"cycles in {self.total_s:.3f} s{accuracy}"
        )

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "engine": self.engine,
            "backend": self.backend,
            "report": self.report.to_dict(),
            "timing": dict(self.timing),
            "accuracy": dict(self.accuracy) if self.accuracy is not None else None,
            "metadata": dict(self.metadata),
            "profile": self.profile.to_dict() if self.profile is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EstimateResult":
        return cls(
            spec=RunSpec.from_dict(payload["spec"]),
            engine=payload["engine"],
            backend=payload["backend"],
            report=PowerReport.from_dict(payload["report"]),
            timing=dict(payload.get("timing") or {}),
            accuracy=(
                dict(payload["accuracy"]) if payload.get("accuracy") is not None else None
            ),
            metadata=dict(payload.get("metadata") or {}),
            profile=(
                PowerProfile.from_dict(payload["profile"])
                if payload.get("profile") is not None
                else None
            ),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "EstimateResult":
        return cls.from_dict(json.loads(text))
