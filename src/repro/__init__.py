"""repro — power emulation: hardware-accelerated RTL power estimation.

A from-scratch Python reproduction of "Hardware Accelerated Power Estimation"
(Coburn, Ravi, Raghunathan, DATE 2005).  The package contains:

* :mod:`repro.netlist` — structural RTL intermediate representation,
* :mod:`repro.sim` — cycle-accurate RTL simulator,
* :mod:`repro.vcd` — VCD dump/parse/activity counting,
* :mod:`repro.gates` — synthetic 0.13 µm standard-cell library, technology
  mapping and gate-level simulation/power (used for macromodel
  characterization and the gate-level baseline),
* :mod:`repro.power` — power macromodels, characterization and software RTL
  power estimation (the baseline tools),
* :mod:`repro.core` — the paper's contribution: power-estimation hardware
  (power models, strobe generator, aggregator), the instrumentation pass, the
  FPGA platform model and the end-to-end power-emulation flow,
* :mod:`repro.designs` — the benchmark designs evaluated in the paper,
* :mod:`repro.stim` — declarative stimulus specs, the tensor compiler and
  the vectorized lane drivers behind Monte-Carlo scenario sweeps.
"""

__version__ = "1.0.0"

__all__ = [
    "netlist",
    "sim",
    "vcd",
    "gates",
    "power",
    "core",
    "designs",
    "stim",
]
