"""Whole-module differential fuzzing of the four simulation engines.

Hypothesis draws a *recipe* — a few module inputs plus 3-8 components picked
from the combinational kinds, registers (whose ``d`` may close a loop back
through later logic), counters, accumulators, a memory and an FSM, over
widths on both sides of the lane target's limb boundary (1, 60, 61, 240).
Each recipe is built into a fresh module per engine through
:class:`repro.netlist.NetlistBuilder`; ``interp`` is the oracle, and the
compiled scalar backend, the lane program (``off``) and the native kernel on
one and on two worker threads, at 1, 127, 128 and 129 lanes (around the
kernel's 128-lane block; native needs a C compiler), must agree with it
every cycle.
Recipes only use kinds at widths the lane target fuses, so the native
kernel must lower every module: a fallback fails the test.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netlist import NetlistBuilder, flatten
from repro.netlist.fsm import Guard
from repro.sim import BatchSimulator, Simulator
from repro.sim.kernels import find_compiler

LANE_COUNTS = (1, 127, 128, 129)
MAX_LANES = max(LANE_COUNTS)
N_CYCLES = 6
WIDTHS = (1, 8, 60, 61, 240)
HAS_CC = find_compiler() is not None
#: lane engines as (kernel backend, kernel threads)
LANE_ENGINES = (("off", 1),) + ((("native", 1), ("native", 2)) if HAS_CC else ())

COMB_KINDS = ("add", "sub", "logic", "not", "mux", "compare", "reduce",
              "concat", "slice", "zext", "sext", "mul", "shift", "abs",
              "saturate", "decoder", "rom")
SEQ_KINDS = ("register", "counter", "accumulator", "memory", "fsm")
LOGIC_OPS = ("and", "or", "xor", "nand", "nor", "xnor")



def component_st(kinds):
    """One component of a recipe: (kind, three operand picks, a parameter)."""
    return st.tuples(st.sampled_from(kinds), st.integers(0, 63), st.integers(0, 63),
                     st.integers(0, 63), st.integers(0, 1 << 16))


#: input widths, combinational components, then sequential ones (each
#: inserted into the combinational order at a position its parameter picks)
recipe_st = st.tuples(
    st.lists(st.sampled_from(WIDTHS), min_size=2, max_size=3),
    st.lists(component_st(COMB_KINDS), min_size=2, max_size=6),
    st.lists(component_st(SEQ_KINDS), min_size=1, max_size=2),
)


def _build(recipe, name="fuzz"):
    """Build the recipe's module (fresh objects on every call)."""
    widths, components, sequential = recipe
    components = list(components)
    for item in sequential:
        components.insert(item[4] % (len(components) + 1), item)
    b = NetlistBuilder(name)
    pool = [b.input("bit", 1)] + [b.input(f"i{k}", w) for k, w in enumerate(widths)]
    n_inputs = len(pool)
    loops = []  # (register name, width, pick) whose d is driven at the end

    def pick(index):
        return pool[index % len(pool)]

    def fit(net, width):
        """``net`` zero-extended or truncated to ``width`` (fused at any width)."""
        return b.resize(net, width)

    def narrow(net, limit):
        return fit(net, min(net.width, limit))

    for n, (kind, p, q, r, param) in enumerate(components):
        a = pick(p)
        if kind == "add":
            pool.append(b.add(a, fit(pick(q), a.width)))
        elif kind == "sub":
            pool.append(b.sub(a, fit(pick(q), a.width)))
        elif kind == "logic":
            pool.append(b.logic(LOGIC_OPS[param % 6], a, fit(pick(q), a.width)))
        elif kind == "not":
            pool.append(b.not_(a))
        elif kind == "mux":
            data = [a, fit(pick(q), a.width), fit(pick(r), a.width)][: 2 + param % 2]
            pool.append(b.mux(pick(param), *data))
        elif kind == "compare":
            other = fit(pick(q), a.width)
            signed = a.width <= 60 and param % 2 == 1
            pool.extend(b.compare(a, other, signed=signed))
        elif kind == "reduce":
            pool.append(b.reduce(("and", "or", "xor")[param % 3], a))
        elif kind == "concat":
            other = pick(q)
            pool.append(b.concat(a, narrow(other, max(1, 240 - a.width))) if a.width < 240
                        else b.concat(narrow(a, 120), narrow(other, 120)))
        elif kind == "slice":
            low = param % a.width
            high = low + (param >> 8) % (a.width - low)
            pool.append(b.slice(a, high, low))
        elif kind == "zext":
            x = narrow(a, 239)
            pool.append(b.zext(x, min(240, x.width + 1 + param % 70)))
        elif kind == "sext":
            a = narrow(a, 59)
            pool.append(b.sext(a, a.width + 1 + param % (60 - a.width)))
        elif kind == "mul":
            x, y = narrow(a, 31), narrow(pick(q), 31)
            pool.append(b.mul(x, y, width_y=min(60, x.width + y.width),
                              signed=param % 2 == 1))
        elif kind == "shift":
            x = narrow(a, 30)
            if param % 2:
                amount = narrow(pick(q), 5)
            else:
                amount = param % 31
            pool.append(b.shl(x, amount) if param % 4 < 2
                        else b.shr(x, amount, arithmetic=param % 8 < 4))
        elif kind == "abs":
            pool.append(b.absval(narrow(a, 60)))
        elif kind == "saturate":
            x = narrow(a, 60)
            pool.append(b.saturate(x, max(1, x.width - param % 8),
                                   signed=param % 2 == 1 and x.width > 1))
        elif kind == "decoder":
            pool.append(b.decoder(narrow(a, 5)))
        elif kind == "rom":
            rng = random.Random(param)
            width = min(a.width, 60)
            words = [rng.getrandbits(width) for _ in range(2 + param % 7)]
            pool.append(b.rom(f"rom{n}", width, words, narrow(pick(q), 4)))
        elif kind == "register":
            reg = f"reg{n}"
            q_net = b.register(reg, a.width, reset_value=param % (1 << min(a.width, 16)),
                               has_enable=param % 2 == 1, has_clear=param % 4 >= 2)
            if param % 2:
                b.drive(reg, en=fit(pick(q), 1))
            if param % 4 >= 2:
                b.drive(reg, clear=fit(pick(r), 1))
            loops.append((reg, a.width, p + q + r))
            pool.append(q_net)
        elif kind == "counter":
            width = 1 + param % 12
            has_load = param % 2 == 1
            cnt = f"cnt{n}"
            q_net = b.counter(cnt, width, has_load=has_load,
                              wrap_at=(2 + param % 9) if param % 4 >= 2 else None)
            b.drive(cnt, en=fit(pick(q), 1))
            if has_load:
                b.drive(cnt, load=fit(pick(r), 1), d=fit(a, width))
            pool.append(q_net)
        elif kind == "accumulator":
            acc = f"acc{n}"
            x = narrow(a, 40)
            q_net = b.accumulator(acc, x.width + 4)
            b.drive(acc, d=fit(x, x.width + 4), en=fit(pick(q), 1),
                    clear=fit(pick(r), 1))
            pool.append(q_net)
        elif kind == "memory":
            x = narrow(a, 60)
            depth = 2 + param % 6
            rng = random.Random(param)
            pool.append(b.memory(
                f"mem{n}", x.width, depth, we=fit(pick(q), 1),
                addr=narrow(pick(r), 3), wdata=x, sync_read=param % 2 == 0,
                initial=[rng.getrandbits(x.width) for _ in range(depth)],
            ))
        elif kind == "fsm":
            x = narrow(a, 8)
            fsm, outs = b.fsm(
                f"fsm{n}", ["s0", "s1", "s2"], {"x": x, "go": fit(pick(q), 1)},
                {"o": 3}, {"s1": {"o": 5}, "s2": {"o": param % 8}},
            )
            threshold = param % (1 << x.width)
            fsm.add_transition("s0", "s1", [Guard("x", ">=", threshold)])
            fsm.add_transition("s0", "s2", [Guard("go", "==", 1)])
            fsm.when("s1", "s2", go=1)
            fsm.otherwise("s2", "s0")
            pool.append(outs["o"])
    for reg, width, index in loops:
        b.drive(reg, d=fit(pool[index % len(pool)], width))
    for k, net in enumerate(pool[n_inputs:]):
        b.output(f"o{k}", net)
    return flatten(b.build())


def _stimulus(rng, module):
    return [
        {name: [rng.getrandbits(port.net.width) for _ in range(MAX_LANES)]
         for name, port in module.ports.items() if port.is_input}
        for _ in range(N_CYCLES)
    ]


def _scalar_trace(simulator, cycles, lane):
    simulator.reset()
    trace = []
    for inputs in cycles:
        simulator.set_inputs({name: values[lane] for name, values in inputs.items()})
        simulator.settle()
        trace.append(simulator.get_outputs())
        simulator.clock_edge()
    return trace


def _lane_traces(simulator, cycles):
    simulator.reset()
    traces = [[] for _ in range(simulator.n_lanes)]
    for inputs in cycles:
        for name, values in inputs.items():
            simulator.set_input(name, np.array(values[:simulator.n_lanes], dtype=object))
        simulator.settle()
        outputs = simulator.get_outputs()
        for lane, trace in enumerate(traces):
            trace.append({name: int(values[lane]) for name, values in outputs.items()})
        simulator.clock_edge()
    return traces


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(recipe=recipe_st, seed=st.integers(0, 2**32 - 1))
def test_random_modules_agree_on_every_engine(recipe, seed):
    module = _build(recipe)
    cycles = _stimulus(random.Random(seed), module)
    interp = Simulator(module, backend="interp")
    oracle = [_scalar_trace(interp, cycles, lane) for lane in range(MAX_LANES)]
    compiled = Simulator(_build(recipe), backend="compiled")
    assert compiled.backend == "compiled", compiled.backend_fallback
    assert [_scalar_trace(compiled, cycles, lane) for lane in range(MAX_LANES)] == oracle
    for n_lanes in LANE_COUNTS:
        for backend, threads in LANE_ENGINES:
            simulator = BatchSimulator(_build(recipe), n_lanes, kernel_backend=backend,
                                       kernel_threads=threads)
            assert simulator.kernel_backend == backend, simulator.kernel_fallback
            assert simulator.kernel_threads == threads
            assert _lane_traces(simulator, cycles) == oracle[:n_lanes], (
                f"{backend} on {threads} threads at {n_lanes} lanes differs from interp"
            )
