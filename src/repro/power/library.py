"""The power macromodel library.

The paper's methodology assumes a "power macromodel library for a universal
set of RTL components ... created by characterizing their gate- or
transistor-level implementations".  Two ways of populating the library are
provided:

* :class:`SeedModelBuilder` — analytic per-type coefficient heuristics derived
  from the synthetic cell library's energies.  Instant, deterministic, and
  good enough for every flow-level experiment (all estimators share the same
  library, so relative comparisons are unaffected).
* :class:`repro.power.characterize.CharacterizationEngine` — regression
  fitting against gate-level reference simulations, used where model fidelity
  itself is being evaluated.

Models are keyed by :meth:`repro.netlist.components.Component.macromodel_key`
(type plus port shape), so all instances of, say, a 16-bit adder share one
model — exactly how a characterized library is reused across designs.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.netlist.components import Component
from repro.power.macromodel import LinearTransitionModel, PowerMacromodel
from repro.power.technology import CB130M_TECHNOLOGY, Technology


class SeedModelBuilder:
    """Builds analytic linear-transition models for any RTL component type.

    Coefficients are expressed in fJ per bit toggle and scale with the
    component shape the same way gate implementations do (e.g. a multiplier
    input-bit toggle disturbs an entire partial-product row, so its
    coefficient grows with the other operand's width).
    """

    def __init__(self, technology: Technology = CB130M_TECHNOLOGY) -> None:
        self.technology = technology

    # ------------------------------------------------------------------ API
    def build(self, component: Component) -> LinearTransitionModel:
        port_widths = {p.name: p.width for p in component.monitored_ports()}
        handler = getattr(self, f"_build_{component.type_name}", None)
        if handler is not None:
            coefficients, base = handler(component)
        else:
            coefficients, base = self._build_generic(component)
        return LinearTransitionModel(
            component.type_name, port_widths, coefficients, base_energy_fj=base
        )

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _uniform(component: Component, per_port: Mapping[str, float]) -> Dict[str, list]:
        coefficients = {}
        for port in component.monitored_ports():
            value = per_port.get(port.name, per_port.get("*", 0.5))
            coefficients[port.name] = [value] * port.width
        return coefficients

    def _build_generic(self, component: Component):
        return self._uniform(component, {"*": 1.0}), 0.5

    # ---------------------------------------------------- functional units
    def _build_adder(self, component: Component):
        coeffs = self._uniform(component, {"a": 6.0, "b": 6.0, "cin": 4.0,
                                            "y": 4.0, "cout": 3.0})
        return coeffs, 0.8

    def _build_subtractor(self, component: Component):
        coeffs = self._uniform(component, {"a": 6.5, "b": 7.0, "y": 4.2, "borrow": 3.0})
        return coeffs, 1.0

    def _build_addsub(self, component: Component):
        width = component.params.get("width", 8)
        coeffs = self._uniform(component, {"a": 6.5, "b": 7.0, "y": 4.2})
        coeffs["sub"] = [2.0 * width]
        return coeffs, 1.0

    def _build_multiplier(self, component: Component):
        width_a = int(component.params["width_a"])
        width_b = int(component.params["width_b"])
        coeffs = self._uniform(
            component,
            {"a": 1.6 * width_b, "b": 1.6 * width_a, "y": 2.5},
        )
        return coeffs, 2.0 + 0.15 * width_a * width_b

    def _build_comparator(self, component: Component):
        coeffs = self._uniform(component, {"a": 3.2, "b": 3.2, "lt": 1.0, "eq": 1.0, "gt": 1.0})
        return coeffs, 0.6

    def _build_absval(self, component: Component):
        return self._uniform(component, {"a": 4.5, "y": 3.0}), 0.8

    def _build_saturator(self, component: Component):
        return self._uniform(component, {"a": 2.2, "y": 1.5}), 0.5

    def _build_shifter_const(self, component: Component):
        return self._uniform(component, {"a": 0.25, "y": 0.25}), 0.1

    def _build_shifter_var(self, component: Component):
        width = int(component.params["width"])
        amount_width = int(component.params["amount_width"])
        coeffs = self._uniform(component, {"a": 1.1 * amount_width, "y": 1.0})
        coeffs["amount"] = [1.4 * width] * amount_width
        return coeffs, 0.8

    def _build_mux(self, component: Component):
        width = int(component.params["width"])
        n_inputs = int(component.params["n_inputs"])
        coeffs = {}
        for port in component.monitored_ports():
            if port.name == "sel":
                coeffs[port.name] = [0.9 * width * max(1, n_inputs // 2)] * port.width
            elif port.name == "y":
                coeffs[port.name] = [1.1] * port.width
            else:
                coeffs[port.name] = [0.9] * port.width
        return coeffs, 0.3

    def _build_logic(self, component: Component):
        per_bit = 2.2 if component.params.get("op") in ("xor", "xnor") else 1.2
        return self._uniform(component, {"a": per_bit, "b": per_bit, "y": 0.8}), 0.2

    def _build_not(self, component: Component):
        return self._uniform(component, {"a": 0.6, "y": 0.6}), 0.1

    def _build_reduce(self, component: Component):
        return self._uniform(component, {"a": 1.6, "y": 0.8}), 0.2

    def _build_concat(self, component: Component):
        return self._uniform(component, {"*": 0.15}), 0.05

    def _build_slice(self, component: Component):
        return self._uniform(component, {"*": 0.15}), 0.05

    def _build_extend(self, component: Component):
        return self._uniform(component, {"*": 0.15}), 0.05

    def _build_decoder(self, component: Component):
        width_out = int(component.params.get("sel_width", 3))
        return self._uniform(component, {"a": 1.0 * (1 << width_out) / 4.0, "y": 0.5}), 0.3

    # ------------------------------------------------------------- storage
    def _build_register(self, component: Component):
        tech = self.technology
        width = int(component.params["width"])
        coeffs = self._uniform(
            component,
            {"d": tech.register_data_energy_fj, "q": 1.0, "en": 0.6, "clear": 0.6},
        )
        # the clock network toggles every cycle regardless of data activity
        base = tech.register_clock_energy_fj * width
        return coeffs, base

    def _build_counter(self, component: Component):
        tech = self.technology
        width = int(component.params["width"])
        coeffs = self._uniform(
            component, {"d": tech.register_data_energy_fj, "q": 4.5, "en": 1.0, "load": 1.0}
        )
        base = tech.register_clock_energy_fj * width + 1.5
        return coeffs, base

    def _build_accumulator(self, component: Component):
        tech = self.technology
        width = int(component.params["width"])
        coeffs = self._uniform(
            component, {"d": 6.5, "q": 4.5, "en": 1.0, "clear": 1.0}
        )
        base = tech.register_clock_energy_fj * width + 1.5
        return coeffs, base

    def _build_memory(self, component: Component):
        tech = self.technology
        width = int(component.params["width"])
        depth = int(component.params["depth"])
        coeffs = self._uniform(
            component,
            {
                "addr": 4.0 + 0.02 * depth,
                "wdata": tech.memory_write_energy_fj_per_bit,
                "rdata": tech.memory_read_energy_fj_per_bit,
                "we": 8.0 + 0.05 * width,
            },
        )
        base = tech.memory_leakage_fj_per_bit_cycle * width * depth + 2.0
        return coeffs, base

    def _build_regfile(self, component: Component):
        tech = self.technology
        width = int(component.params["width"])
        depth = int(component.params["depth"])
        per_port = {"waddr": 3.0, "wdata": tech.memory_write_energy_fj_per_bit * 0.7,
                    "we": 6.0}
        coeffs = {}
        for port in component.monitored_ports():
            if port.name.startswith("raddr"):
                value = 3.0
            elif port.name.startswith("rdata"):
                value = tech.memory_read_energy_fj_per_bit * 0.7
            else:
                value = per_port.get(port.name, 1.0)
            coeffs[port.name] = [value] * port.width
        base = tech.memory_leakage_fj_per_bit_cycle * width * depth + 1.0
        return coeffs, base

    def _build_rom(self, component: Component):
        depth = int(component.params["depth"])
        coeffs = self._uniform(component, {"addr": 2.5 + 0.01 * depth, "rdata": 3.0})
        return coeffs, 0.5

    def _build_fsm(self, component: Component):
        n_states = int(component.params.get("n_states", 2))
        n_transitions = int(component.params.get("n_transitions", n_states))
        coeffs = self._uniform(component, {"*": 1.5})
        base = 2.0 + 0.4 * n_states + 0.15 * n_transitions
        return coeffs, base

    def _build_constant(self, component: Component):
        return {}, 0.0


class PowerModelLibrary:
    """Macromodel library keyed by component type/shape."""

    def __init__(
        self,
        technology: Technology = CB130M_TECHNOLOGY,
        provider: Optional[Callable[[Component], PowerMacromodel]] = None,
        name: str = "library",
    ) -> None:
        self.technology = technology
        self.provider = provider
        self.name = name
        self.models: Dict[tuple, PowerMacromodel] = {}
        #: number of lookups answered from the cache vs. built on demand
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ API
    def add(self, component: Component, model: PowerMacromodel) -> PowerMacromodel:
        self.models[component.macromodel_key()] = model
        return model

    def add_by_key(self, key: tuple, model: PowerMacromodel) -> PowerMacromodel:
        self.models[key] = model
        return model

    def has(self, component: Component) -> bool:
        return component.macromodel_key() in self.models

    def lookup(self, component: Component) -> PowerMacromodel:
        """Return the model for ``component``, building it on demand if possible."""
        key = component.macromodel_key()
        model = self.models.get(key)
        if model is not None:
            self.hits += 1
            return model
        if self.provider is None:
            raise KeyError(
                f"no power model for {component.type_name!r} with shape {key[1]} "
                f"and library {self.name!r} has no provider"
            )
        self.misses += 1
        model = self.provider(component)
        self.models[key] = model
        return model

    def __len__(self) -> int:
        return len(self.models)

    def summary(self) -> str:
        lines = [f"power model library {self.name!r}: {len(self.models)} models"]
        for key, model in sorted(self.models.items(), key=lambda kv: str(kv[0])):
            metrics = f" [{model.metrics.summary()}]" if model.metrics else ""
            lines.append(f"  {key[0]:14s} bits={model.total_bits:4d} kind={model.kind}{metrics}")
        return "\n".join(lines)


#: technology -> macromodel key -> its seed model: the analytic models are
#: a function of the technology and the component shape, so every seed
#: library shares one model object per shape, and what is cached per model
#: object (observe plans, byte tables) outlives a one-shot library
_SEED_MODELS: Dict[Technology, Dict[tuple, PowerMacromodel]] = {}


def build_seed_library(technology: Technology = CB130M_TECHNOLOGY) -> PowerModelLibrary:
    """A library that synthesizes analytic models for any component on demand.

    Each library counts its own hits and misses; a miss takes the model the
    technology's earlier seed libraries built for that shape, if any.
    """
    builder = SeedModelBuilder(technology)
    models = _SEED_MODELS.setdefault(technology, {})

    def provide(component: Component) -> PowerMacromodel:
        key = component.macromodel_key()
        model = models.get(key)
        if model is None:
            model = models[key] = builder.build(component)
        return model

    return PowerModelLibrary(technology, provider=provide, name="seed")
