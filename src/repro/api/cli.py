"""The ``python -m repro`` command line.

One CLI over the unified estimation API::

    python -m repro run --design binary_search --engine rtl --max-cycles 64
    python -m repro profile --design MPEG4 --top 8 --trace power.json
    python -m repro sweep --designs DCT HVPeakF --seeds 0:64 --workers 4
    python -m repro sweep --designs HVPeakF --seeds 0:32 --stimulus design
    python -m repro stim --stimulus "burst:active=4,idle=12" --design HVPeakF
    python -m repro characterize --pairs 150
    python -m repro fig3 --workers 4
    python -m repro serve --cache-dir .cache
    python -m repro submit --design DCT --seed 3
    python -m repro status
    python -m repro cache stats --cache-dir .cache
    python -m repro sweep --designs DCT --seeds 0:8 --trace trace.json
    python -m repro obs summarize trace.json
    python -m repro obs dump --url http://127.0.0.1:8350

``run`` executes one :class:`~repro.api.spec.RunSpec` through any engine,
``sweep`` fans a (design × engine × seed) grid over batch lanes + the shard
pool (``--seeds`` accepts ranges like ``0:64`` and rejects duplicates),
``stim`` describes and previews declarative stimulus specs, ``characterize``
fits macromodels against the gate-level references, and ``fig3`` reproduces
the paper's Figure 3 study (the former ``python -m repro.bench.fig3`` entry,
which remains as a shim).  ``run``/``sweep`` accept ``--stimulus`` — a
shorthand like ``markov:p01=0.2,p10=0.1``, inline JSON, ``@file``, or
``design`` for the registry entry's declared scenario — to drive a
:class:`~repro.stim.spec.StimulusSpec` instead of the built-in testbench.
Every subcommand can emit its result as a JSON artifact via ``--json``.

Serving (PR 8): ``serve`` runs the :mod:`repro.serve` job server — compatible
jobs submitted concurrently coalesce into shared lane batches — over HTTP or
stdio; ``submit``/``status`` are its thin clients, and ``cache`` inspects or
clears the on-disk result store (byte budget via ``REPRO_CACHE_MAX_MB``).
Stopping the server with Ctrl-C marks unfinished jobs interrupted, flushes
the job store, and exits 0.

Robustness (PR 7): ``run``/``sweep`` accept ``--timeout-s`` and
``--max-retries`` (per-task deadline and retry budget under the resilient
scheduler); ``sweep`` adds ``--on-error {raise,skip}`` (skip keeps healthy
results and exits 3 when any task failed) and ``--resume`` (recompute only
what the cache is missing).  Ctrl-C during a sweep persists completed
results, prints the partial summary, and exits 130.

Observability (PR 9): ``run``/``sweep`` accept ``--trace out.json`` — a
Chrome ``trace_event`` timeline of every :mod:`repro.obs` span, including
shard-worker spans merged from the pool; ``obs dump`` prints the metrics
registry (or scrapes a live server's ``GET /metrics``), ``obs reset`` zeroes
it, and ``obs summarize`` turns a trace file into a per-span timing table.

Power telemetry (PR 10): ``profile`` runs one estimate with windowed
per-component power collection and prints the hotspot report (top
components, peak windows, power-over-time sparkline); ``run``/``sweep``/
``submit`` accept ``--power-profile out.json`` (plus ``--profile-window N``)
to attach the same :class:`~repro.power.profile.PowerProfile` to any run and
write it as a JSON artifact.  With ``--trace``, per-window power lands on
the timeline as Chrome counter tracks.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _parse_kernel_threads(value: str) -> Optional[int]:
    """``--kernel-threads`` values: an integer, or ``auto`` meaning None."""
    if value == "auto":
        return None
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def _add_common_run_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.api.spec import BACKENDS, KERNEL_BACKENDS

    parser.add_argument("--max-cycles", type=int, default=None,
                        help="cycle budget (default: the testbench's own)")
    parser.add_argument("--backend", choices=BACKENDS, default="auto",
                        help="simulation backend (default auto: a one-lane "
                             "fused block once the module's native kernel is "
                             "built in this process, else compiled; batch = "
                             "lane path)")
    parser.add_argument("--kernel-backend", choices=KERNEL_BACKENDS, default=None,
                        help="fused lane-kernel backend for batch execution "
                             "(native = C via cffi, off = per-op dispatch; "
                             "auto = off while the C kernel compiles in the "
                             "background, then native; default: "
                             "$REPRO_KERNEL_BACKEND, else auto)")
    parser.add_argument("--kernel-threads", type=_parse_kernel_threads,
                        default=None, metavar="N",
                        help="native-kernel worker threads across lane blocks "
                             "(an integer, or 'auto' = 1; "
                             "default: the REPRO_KERNEL_THREADS env or auto; "
                             "any count is bit-identical)")
    parser.add_argument("--stimulus", default=None, metavar="SPEC",
                        help="declarative stimulus instead of the built-in "
                             "testbench: kind[:k=v,...] shorthand, inline "
                             "JSON, @file, or 'design' for the registry "
                             "entry's declared scenario")
    parser.add_argument("--coefficient-bits", type=int, default=12,
                        help="instrumentation coefficient width (emulation engine)")
    parser.add_argument("--power-profile", metavar="PATH", default=None,
                        help="collect a windowed per-component power profile "
                             "and write it as a JSON artifact")
    parser.add_argument("--profile-window", type=int, default=None, metavar="N",
                        help="profile window width in cycles (default: about "
                             "64 windows over the cycle budget on the software "
                             "engines, the strobe period on emulation)")
    parser.add_argument("--timeout-s", type=float, default=None, metavar="S",
                        help="per-task wall-clock deadline; a task past it is "
                             "killed and retried/failed (default: the "
                             "REPRO_TASK_TIMEOUT_S env, else none)")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="retries per task after the first attempt, with "
                             "exponential backoff (default: the "
                             "REPRO_TASK_RETRIES env, else 0)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the result as a JSON artifact")


def parse_seed_list(tokens: List[str]) -> List[int]:
    """Expand ``--seeds`` tokens (ints and ``start:stop[:step]`` ranges).

    Duplicates in the expanded list are rejected downstream by
    :class:`~repro.api.spec.SweepSpec` — every seed is one independent
    lane/run, so a repeat would only re-estimate an identical result.
    """
    seeds: List[int] = []
    for token in tokens:
        if ":" in token:
            parts = token.split(":")
            try:
                numbers = [int(part) for part in parts]
            except ValueError:
                numbers = []
            if len(numbers) not in (2, 3) or (len(numbers) == 3 and numbers[2] == 0):
                raise ValueError(
                    f"bad seed range {token!r}; expected start:stop or "
                    f"start:stop:step with a nonzero step (python range "
                    f"semantics, stop excluded)"
                )
            expanded = list(range(*numbers))
            if not expanded:
                raise ValueError(
                    f"seed range {token!r} is empty (stop is excluded, like "
                    f"python's range)"
                )
            seeds.extend(expanded)
        else:
            try:
                seeds.append(int(token))
            except ValueError:
                raise ValueError(
                    f"bad seed {token!r}; expected an integer or a "
                    f"start:stop[:step] range"
                ) from None
    return seeds


def _resolve_stimulus(args: argparse.Namespace, designs: List[str]):
    """The ``--stimulus`` argument as a StimulusSpec (or None)."""
    if not args.stimulus:
        return None
    from repro.stim import parse_stimulus

    if args.stimulus == "design":
        if len(designs) != 1:
            raise ValueError(
                "--stimulus design needs exactly one design (each registry "
                "entry declares its own scenario)"
            )
        from repro.designs.registry import get

        return get(designs[0]).make_stimulus_spec()
    # run/sweep default the shorthand's cycle count to their --max-cycles;
    # the stim subcommand has no such flag (its --cycles overrides later)
    default_cycles = getattr(args, "max_cycles", None) or 256
    return parse_stimulus(args.stimulus, default_cycles=default_cycles)


def _design_names() -> List[str]:
    from repro.designs.registry import all_designs

    return sorted(all_designs())


def _write_json(path: Optional[str], payload: dict) -> None:
    if not path:
        return
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
    print(f"wrote {path}")


def _write_profile_json(path: Optional[str], payload: dict) -> None:
    """Write a ``--power-profile PATH`` artifact (no-op without the flag)."""
    if not path:
        return
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
    print(f"wrote power profile {path}")


def _traced(args: argparse.Namespace, body):
    """Run ``body`` with span tracing when ``--trace PATH`` was given.

    Tracing is enabled before the work starts and the buffered spans are
    written as one Chrome ``trace_event`` JSON afterwards — also on error
    and on Ctrl-C, so an interrupted sweep still leaves a loadable trace.
    """
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return body()
    from repro import obs

    obs.enable(tracing=True)
    try:
        return body()
    finally:
        n_spans = obs.write_chrome_trace(trace_path)
        print(f"wrote {trace_path} ({n_spans} spans; open in Perfetto or "
              f"chrome://tracing)")


# ------------------------------------------------------------------ run
def _cmd_run(args: argparse.Namespace) -> int:
    return _traced(args, lambda: _run_body(args))


def _run_body(args: argparse.Namespace) -> int:
    from repro.api import RunSpec, estimate

    spec = RunSpec(
        design=args.design,
        engine=args.engine,
        seed=args.seed,
        stimulus=_resolve_stimulus(args, [args.design]),
        max_cycles=args.max_cycles,
        backend=args.backend,
        kernel_backend=args.kernel_backend,
        kernel_threads=args.kernel_threads,
        coefficient_bits=args.coefficient_bits,
        workload_cycles=args.workload_cycles,
        compare_to_rtl=args.compare_to_rtl,
        power_profile=bool(args.power_profile),
        profile_window=args.profile_window,
        timeout_s=args.timeout_s,
        max_retries=args.max_retries,
    )
    result = estimate(spec)
    print(result.report.table(n=args.top))
    print()
    print(result.summary())
    if result.metadata.get("device"):
        print(f"  device {result.metadata['device']} "
              f"@ {result.metadata['emulation_clock_mhz']:.1f} MHz, "
              f"LUT overhead {result.metadata['lut_overhead']:.1%}")
    if result.profile is not None:
        print(f"  profile: {result.profile.n_windows} windows x "
              f"{result.profile.window_cycles} cycles, peak "
              f"{result.profile.peak_power_mw():.4f} mW")
        _write_profile_json(args.power_profile, result.profile.to_dict())
    _write_json(args.json, result.to_dict())
    return 0


# -------------------------------------------------------------- profile
def _cmd_profile(args: argparse.Namespace) -> int:
    return _traced(args, lambda: _profile_body(args))


def _profile_body(args: argparse.Namespace) -> int:
    from repro.api import RunSpec, estimate

    spec = RunSpec(
        design=args.design,
        engine=args.engine,
        seed=args.seed,
        stimulus=_resolve_stimulus(args, [args.design]),
        max_cycles=args.max_cycles,
        backend=args.backend,
        kernel_backend=args.kernel_backend,
        kernel_threads=args.kernel_threads,
        coefficient_bits=args.coefficient_bits,
        power_profile=True,
        profile_window=args.profile_window,
        timeout_s=args.timeout_s,
        max_retries=args.max_retries,
    )
    result = estimate(spec)
    profile = result.profile
    if profile is None:  # defensive: every engine path populates it
        raise ValueError(f"engine {spec.engine!r} produced no power profile")
    print(profile.table(top_k=args.top))
    _write_profile_json(args.power_profile, profile.to_dict())
    _write_json(args.json, {
        "summary": result.summary(),
        "hotspots": profile.hotspots(top_k=args.top),
        "profile": profile.to_dict(),
    })
    return 0


# ---------------------------------------------------------------- sweep
def _cmd_sweep(args: argparse.Namespace) -> int:
    return _traced(args, lambda: _sweep_body(args))


def _sweep_body(args: argparse.Namespace) -> int:
    from repro.api import SweepSpec, sweep
    from repro.api.sweep import SweepInterrupted

    spec = SweepSpec(
        designs=tuple(args.designs),
        engines=tuple(args.engines),
        seeds=tuple(parse_seed_list(args.seeds)),
        stimulus=_resolve_stimulus(args, list(args.designs)),
        max_cycles=args.max_cycles,
        backend=args.backend,
        kernel_backend=args.kernel_backend,
        kernel_threads=args.kernel_threads,
        coefficient_bits=args.coefficient_bits,
        n_workers=args.workers,
        cache_dir=args.cache_dir or None,
        power_profile=bool(args.power_profile),
        profile_window=args.profile_window,
        timeout_s=args.timeout_s,
        max_retries=args.max_retries,
        on_error=args.on_error,
    )
    try:
        result = sweep(spec, resume=args.resume)
    except SweepInterrupted as interrupt:
        # completed results are already persisted; report them and exit with
        # the conventional SIGINT code so scripts can tell "stopped" from
        # "failed" — `sweep --resume` picks up from here
        result = interrupt.partial
        print(result.summary())
        _write_json(args.json, result.to_dict())
        print("interrupted — completed results persisted; rerun with "
              "--resume to finish", file=sys.stderr)
        return 130
    print(result.summary())
    if args.power_profile:
        # one artifact for the whole grid, keyed per run
        profiles = {
            f"{r.spec.design}[{r.spec.engine}] seed={r.spec.seed}":
                r.profile.to_dict()
            for r in result.results if r.profile is not None
        }
        _write_profile_json(args.power_profile, {"profiles": profiles})
    _write_json(args.json, result.to_dict())
    # on_error=skip with losses: partial success gets its own exit code
    return 0 if result.ok else 3


# ----------------------------------------------------------------- stim
def _cmd_stim(args: argparse.Namespace) -> int:
    from repro.stim import CompiledStimulus

    spec = _resolve_stimulus(args, [args.design] if args.design else [])
    if spec is None:
        raise ValueError("stim needs --stimulus (shorthand, JSON, @file or "
                         "'design' with --design)")
    if args.cycles:
        spec = spec.replace(n_cycles=args.cycles)
    if args.seed is not None:
        spec = spec.replace(seed=args.seed)

    if args.design:
        from repro.designs.registry import build_flat

        module = build_flat(args.design)
        widths = {
            name: port.width
            for name, port in module.ports.items()
            if port.is_input
        }
    else:
        # no design: preview against the named ports (default width 16)
        widths = {name: 16 for name, _ in spec.ports} or {"data": 16}

    seeds = [spec.seed + lane for lane in range(args.lanes)]
    compiled = CompiledStimulus(spec, widths, seeds)
    tensor = compiled.tensor()
    print(spec.describe())
    print()
    statistics = compiled.port_statistics(tensor)
    print(f"{'port':16s} {'width':>5s} {'toggles/bit/cyc':>15s} {'nonzero duty':>12s}")
    for row in statistics:
        print(f"{row['port']:16s} {row['width']:5d} {row['toggle_rate']:15.3f} "
              f"{row['nonzero_duty']:12.1%}")
    n_preview = min(args.preview, spec.n_cycles)
    if n_preview:
        preview = tensor[:n_preview]
        print()
        print(f"first {n_preview} cycles (lane 0 of {args.lanes}):")
        header = " ".join(f"{name:>10s}" for name in compiled.port_names)
        print(f"{'cycle':>5s} {header}")
        for cycle in range(n_preview):
            row = " ".join(
                f"{int(preview[cycle, p, 0]):>10d}"
                for p in range(len(compiled.port_names))
            )
            print(f"{cycle:5d} {row}")
    _write_json(args.json, {
        "spec": spec.to_dict(),
        "design": args.design,
        "n_lanes": args.lanes,
        "ports": statistics,
    })
    return 0


# --------------------------------------------------------- characterize
def _characterize_components(names: Optional[List[str]]):
    from repro.netlist.components import Adder, Comparator, LogicOp, Multiplier

    builders = {
        "adder8": lambda: Adder("adder8", 8),
        "adder16": lambda: Adder("adder16", 16),
        "mult8": lambda: Multiplier("mult8", 8),
        "cmp16": lambda: Comparator("cmp16", 16),
        "xor16": lambda: LogicOp("xor16", "xor", 16),
    }
    selected = names if names else sorted(builders)
    unknown = sorted(set(selected) - set(builders))
    if unknown:
        raise SystemExit(
            f"unknown component(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(builders))}"
        )
    return [(name, builders[name]()) for name in selected]


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.power import CharacterizationEngine, characterize_many

    engine = CharacterizationEngine(n_pairs=args.pairs, seed=args.seed,
                                    kernel_backend=args.kernel_backend)
    selected = _characterize_components(args.components)
    results = characterize_many([component for _, component in selected],
                                engine=engine, n_workers=args.workers)
    rows = []
    print(f"{'component':12s} {'R^2':>7s} {'NRMSE':>7s} {'mean E (fJ)':>12s} "
          f"{'max |err| (fJ)':>15s}")
    for (name, _), result in zip(selected, results):
        metrics = result.metrics
        print(f"{name:12s} {metrics.r_squared:7.3f} {metrics.nrmse:7.3f} "
              f"{metrics.mean_energy_fj:12.1f} {metrics.max_abs_error_fj:15.1f}")
        rows.append({
            "component": name,
            "n_samples": metrics.n_samples,
            "r_squared": metrics.r_squared,
            "nrmse": metrics.nrmse,
            "mean_energy_fj": metrics.mean_energy_fj,
            "max_abs_error_fj": metrics.max_abs_error_fj,
        })
    _write_json(args.json, {"n_pairs": args.pairs, "seed": args.seed,
                            "workers": args.workers, "models": rows})
    return 0


# ---------------------------------------------------------------- cache
def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.bench.cache import ResultCache

    namespace_given = args.namespace is not None
    cache = ResultCache(args.cache_dir, namespace=args.namespace or "estimate")
    if args.action == "stats":
        stats = cache.stats()
        budget = (
            f"{stats['max_bytes'] / (1024 * 1024):.1f} MiB"
            if stats["max_bytes"] is not None
            else "unbounded (set REPRO_CACHE_MAX_MB)"
        )
        print(f"cache directory   {stats['directory']}")
        print(f"entries           {stats['entries']} "
              f"({stats['namespace_entries']} in namespace "
              f"{stats['namespace']!r})")
        print(f"bytes             {stats['bytes']:,} "
              f"({stats['bytes'] / (1024 * 1024):.2f} MiB)")
        print(f"byte budget       {budget}")
        print(f"corrupt entries   {stats['corrupt_quarantined']} quarantined")
        from repro import obs

        session = {
            "hits": obs.REGISTRY.counter(
                "repro_cache_hits_total", "").value(namespace=cache.namespace),
            "misses": obs.REGISTRY.counter(
                "repro_cache_misses_total", "").value(namespace=cache.namespace),
            "evictions": obs.REGISTRY.counter(
                "repro_cache_evictions_total", "").value(namespace=cache.namespace),
            "corruptions": obs.REGISTRY.counter(
                "repro_cache_corruptions_total", "").value(namespace=cache.namespace),
        }
        print(f"session counters  {session['hits']:.0f} hits, "
              f"{session['misses']:.0f} misses, "
              f"{session['evictions']:.0f} evicted, "
              f"{session['corruptions']:.0f} corrupt "
              f"(this process, namespace {cache.namespace!r})")
        stats = dict(stats)
        stats["session_counters"] = session
        _write_json(args.json, stats)
        return 0
    # clear: an explicit --namespace restricts; default clears every entry
    removed = cache.clear(all_namespaces=not namespace_given)
    scope = args.namespace if namespace_given else "all namespaces"
    print(f"cleared {removed} cache entries ({scope}) from {cache.directory}")
    return 0


# ------------------------------------------------------------------ obs
def _cmd_obs(args: argparse.Namespace) -> int:
    from repro import obs

    if args.obs_action == "dump":
        if args.url:
            import urllib.error
            import urllib.request

            try:
                with urllib.request.urlopen(
                    f"{args.url}/metrics", timeout=30.0
                ) as response:
                    text = response.read().decode()
            except (urllib.error.URLError, OSError) as error:
                raise ValueError(
                    f"cannot reach {args.url}/metrics: "
                    f"{getattr(error, 'reason', error)} — is "
                    f"`python -m repro serve` running?"
                ) from None
        else:
            text = obs.render_prometheus()
        print(text, end="")
        return 0
    if args.obs_action == "reset":
        summary = obs.reset()
        print(f"reset {summary['metrics_reset']} metrics, dropped "
              f"{summary['spans_dropped']} buffered spans")
        return 0
    # summarize: aggregate a --trace artifact into a per-span-name table
    try:
        summary = obs.summarize_trace(args.trace)
    except OSError as error:
        raise ValueError(f"cannot read trace {args.trace}: {error}") from None
    print(f"{args.trace}: {summary['n_spans']} spans across "
          f"{summary['n_processes']} process(es), "
          f"{summary['wall_ms']:.1f} ms wall")
    print(f"{'span':24s} {'count':>6s} {'total ms':>10s} {'mean ms':>9s} "
          f"{'max ms':>9s}  pids")
    for name, row in summary["by_name"].items():
        pids = ",".join(str(pid) for pid in row["pids"])
        print(f"{name:24s} {row['count']:6d} {row['total_ms']:10.2f} "
              f"{row['mean_ms']:9.3f} {row['max_ms']:9.3f}  {pids}")
    _write_json(args.json, summary)
    return 0


# ---------------------------------------------------------------- serve
def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import HttpFrontend, PowerServer, run_stdio

    async def _serve() -> None:
        server = PowerServer(
            cache_dir=args.cache_dir or None,
            coalesce_window_s=args.coalesce_window,
        )
        await server.start()
        # graceful shutdown on Ctrl-C and on a supervisor's SIGTERM alike:
        # unfinished jobs get marked interrupted and flushed (explicit
        # handlers also cover backgrounded servers, whose inherited SIGINT
        # disposition would otherwise be "ignore")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without loop signal handlers
        try:
            if args.stdio:
                stdio = asyncio.ensure_future(run_stdio(server))
                stopped = asyncio.ensure_future(stop.wait())
                await asyncio.wait(
                    {stdio, stopped}, return_when=asyncio.FIRST_COMPLETED
                )
                for task in (stdio, stopped):
                    task.cancel()
            else:
                http = HttpFrontend(server, host=args.host, port=args.port)
                await http.start()
                print(f"serving on {http.url} "
                      f"(cache: {args.cache_dir or 'in-memory'}; Ctrl-C stops)",
                      flush=True)
                try:
                    await stop.wait()
                finally:
                    await http.stop()
        finally:
            await server.stop()
            stats = server.stats()
            print(f"served {stats['jobs_submitted']} jobs "
                  f"({stats['coalesced_jobs']} coalesced into shared batches, "
                  f"{stats['cache_hits']} cache hits)", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        # Ctrl-C is the intended way to stop: unfinished jobs were marked
        # interrupted and flushed to the job store before the loop closed
        pass
    return 0


def _http_json(url: str, payload: Optional[dict] = None, timeout: float = 600.0):
    """(status, JSON body) of one request; connection errors become ValueError."""
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method="POST" if data is not None else "GET",
        headers={"Content-Type": "application/json"} if data is not None else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        try:
            body = json.load(error)
        except ValueError:
            body = {"error": str(error.reason)}
        return error.code, body
    except (urllib.error.URLError, OSError) as error:
        raise ValueError(
            f"cannot reach server at {url}: "
            f"{getattr(error, 'reason', error)} — is `python -m repro serve` "
            f"running?"
        ) from None


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.api import RunSpec

    spec = RunSpec(
        design=args.design,
        engine=args.engine,
        seed=args.seed,
        stimulus=_resolve_stimulus(args, [args.design]),
        max_cycles=args.max_cycles,
        backend=args.backend,
        kernel_backend=args.kernel_backend,
        kernel_threads=args.kernel_threads,
        coefficient_bits=args.coefficient_bits,
        compare_to_rtl=args.compare_to_rtl,
        power_profile=bool(args.power_profile),
        profile_window=args.profile_window,
        timeout_s=args.timeout_s,
        max_retries=args.max_retries,
    )
    status, body = _http_json(f"{args.url}/jobs", payload=spec.to_dict())
    if status != 202:
        print(f"error: submit rejected ({status}): {body.get('error')}",
              file=sys.stderr)
        return 2
    job_id = body["job_id"]
    print(f"submitted {job_id}")
    if args.no_wait:
        _write_json(args.json, {"job_id": job_id})
        return 0
    status, result = _http_json(f"{args.url}/jobs/{job_id}/result")
    if status != 200:
        error = result.get("error") or {}
        print(f"job {job_id} {result.get('state', 'failed')}: "
              f"{error.get('error_type')}: {error.get('message')}",
              file=sys.stderr)
        _write_json(args.json, result)
        return 3
    report = result["report"]
    metadata = result.get("metadata") or {}
    group = metadata.get("group_size", 1)
    shared = f", lane of {group}" if group and group > 1 else ""
    print(f"{report['design']}: {report['average_power_mw']:.4f} mW over "
          f"{report['cycles']} cycles (job {job_id}{shared})")
    if args.power_profile and result.get("profile") is not None:
        _write_profile_json(args.power_profile, result["profile"])
    _write_json(args.json, result)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    if args.job_id:
        status, record = _http_json(f"{args.url}/jobs/{args.job_id}")
        if status != 200:
            print(f"error: {record.get('error')}", file=sys.stderr)
            return 2
        spec = record["spec"]
        seed = f" seed={spec['seed']}" if spec.get("seed") is not None else ""
        print(f"{record['job_id']}  {spec['design']}[{spec['engine']}]{seed}: "
              f"{record['state']}")
        for event in record.get("events") or []:
            detail = event.get("detail") or {}
            facts = ", ".join(f"{k}={v}" for k, v in sorted(detail.items())
                              if v not in (None, {}, []))
            print(f"  {event['seq']:2d} {event['state']:11s} {facts}")
        if record.get("error"):
            print(f"  error: {record['error'].get('error_type')}: "
                  f"{record['error'].get('message')}")
        _write_json(args.json, record)
        return 0
    status, jobs = _http_json(f"{args.url}/jobs")
    stats_status, stats = _http_json(f"{args.url}/stats")
    print(f"{'job':16s} {'design':14s} {'engine':9s} {'seed':>5s} "
          f"{'state':11s} {'group':>5s}")
    for job in jobs.get("jobs") or []:
        seed = job["seed"] if job["seed"] is not None else "-"
        group = job["group_size"] or "-"
        state = job["state"] + (" (cached)" if job.get("cached") else "")
        print(f"{job['job_id']:16s} {job['design']:14s} {job['engine']:9s} "
              f"{seed!s:>5s} {state:11s} {group!s:>5s}")
    if stats_status == 200:
        print(f"\n{stats['jobs_submitted']} submitted, "
              f"{stats['coalesced_jobs']} coalesced, "
              f"{stats['cache_hits']} cache hits, "
              f"{stats['groups']} groups, "
              f"{stats['program_builds']} program builds, "
              f"{stats['kernel_builds']} kernel builds")
    _write_json(args.json, {"jobs": jobs.get("jobs"), "stats": stats})
    return 0


# ----------------------------------------------------------------- main
def build_parser() -> argparse.ArgumentParser:
    from repro.api.spec import ENGINES, KERNEL_BACKENDS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified power-estimation CLI (Coburn/Ravi/Raghunathan, DATE'05 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one estimation run through any engine")
    run.add_argument("--design", required=True, choices=_design_names())
    run.add_argument("--engine", choices=ENGINES, default="rtl")
    run.add_argument("--seed", type=int, default=None,
                     help="stimulus seed (default: the design's standard stimulus)")
    run.add_argument("--workload-cycles", type=int, default=None,
                     help="nominal workload for the emulation time model")
    run.add_argument("--compare-to-rtl", action="store_true",
                     help="attach accuracy vs a software-RTL reference run")
    run.add_argument("--top", type=int, default=10,
                     help="component rows to print in the power table")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="write the run's spans as a Chrome trace_event "
                          "JSON (open in Perfetto or chrome://tracing)")
    _add_common_run_arguments(run)
    run.set_defaults(func=_cmd_run)

    prof = sub.add_parser("profile", help="one run with windowed power "
                                          "telemetry: hotspot report + "
                                          "power-over-time profile")
    prof.add_argument("--design", required=True, choices=_design_names())
    prof.add_argument("--engine", choices=ENGINES, default="rtl")
    prof.add_argument("--seed", type=int, default=None,
                      help="stimulus seed (default: the design's standard "
                           "stimulus)")
    prof.add_argument("--top", type=int, default=8,
                      help="hotspot components / peak windows to report")
    prof.add_argument("--trace", metavar="PATH", default=None,
                      help="write spans plus per-window power counter events "
                           "as a Chrome trace_event JSON (the counters render "
                           "as a power-over-time track in Perfetto)")
    _add_common_run_arguments(prof)
    prof.set_defaults(func=_cmd_profile)

    swp = sub.add_parser("sweep", help="(design x engine x seed) sweep: "
                                       "batch lanes + shard pool + cache")
    swp.add_argument("--designs", nargs="+", required=True, choices=_design_names())
    swp.add_argument("--engines", nargs="+", choices=ENGINES, default=["rtl"])
    swp.add_argument("--seeds", nargs="+", default=["0", "1"], metavar="SEED",
                     help="stimulus seeds (one RTL lane per seed): integers "
                          "and start:stop[:step] ranges, e.g. --seeds 0:64; "
                          "duplicates are rejected")
    swp.add_argument("--workers", type=int, default=1,
                     help="shard-pool worker processes (1 = serial)")
    swp.add_argument("--cache-dir", default="",
                     help="on-disk result cache directory ('' disables caching)")
    swp.add_argument("--on-error", choices=("raise", "skip"), default="raise",
                     help="task-failure policy: raise = abort the sweep with "
                          "the task's exception; skip = record a structured "
                          "failure, keep the healthy results, exit 3")
    swp.add_argument("--resume", action="store_true",
                     help="resume a failed/interrupted sweep from its cache "
                          "(requires --cache-dir): completed tasks are cache "
                          "hits, only missing/failed tasks recompute")
    swp.add_argument("--trace", metavar="PATH", default=None,
                     help="write the sweep's spans — including shard-worker "
                          "spans, merged onto one timeline — as a Chrome "
                          "trace_event JSON (Perfetto / chrome://tracing)")
    _add_common_run_arguments(swp)
    swp.set_defaults(func=_cmd_sweep)

    stim = sub.add_parser("stim", help="describe & preview a stimulus spec "
                                       "(ports, activity stats, first cycles)")
    stim.add_argument("--stimulus", required=True, metavar="SPEC",
                      help="kind[:k=v,...] shorthand, inline JSON, @file, or "
                           "'design' (with --design) for the registry scenario")
    stim.add_argument("--design", choices=_design_names(), default=None,
                      help="resolve port widths against this design's inputs")
    stim.add_argument("--cycles", type=int, default=None,
                      help="override the spec's n_cycles")
    stim.add_argument("--lanes", type=int, default=4,
                      help="lanes to compile for the activity statistics")
    stim.add_argument("--seed", type=int, default=None,
                      help="override the spec's base seed")
    stim.add_argument("--preview", type=int, default=8,
                      help="cycles of lane-0 values to print (0 disables)")
    stim.add_argument("--json", metavar="PATH", default=None,
                      help="write the spec + port stats as a JSON artifact")
    stim.set_defaults(func=_cmd_stim)

    cha = sub.add_parser("characterize",
                         help="fit macromodels against gate-level references")
    cha.add_argument("--components", nargs="*", default=None,
                     help="subset of the standard component set")
    cha.add_argument("--pairs", type=int, default=150,
                     help="training vector pairs per component")
    cha.add_argument("--seed", type=int, default=2005)
    cha.add_argument("--kernel-backend", default=None,
                     choices=KERNEL_BACKENDS,
                     help="fused settle kernel for the gate-level reference "
                          "simulation (native = C via cffi)")
    cha.add_argument("--workers", type=int, default=1,
                     help="shard-pool worker processes, one warm engine per "
                          "worker (1 = serial)")
    cha.add_argument("--json", metavar="PATH", default=None,
                     help="write fit metrics as a JSON artifact")
    cha.set_defaults(func=_cmd_characterize)

    srv = sub.add_parser("serve", help="run the coalescing power-estimation "
                                       "job server (HTTP or stdio)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8350,
                     help="HTTP port (0 = an ephemeral port, printed on start)")
    srv.add_argument("--cache-dir", default="",
                     help="persistent job + result store; shares the sweep "
                          "runner's result cache ('' = in-memory)")
    srv.add_argument("--coalesce-window", type=float, default=0.05, metavar="S",
                     help="seconds a drain holding a client's job stays "
                          "open after the first queued arrival, so "
                          "concurrent compatible jobs merge into one shared "
                          "lane batch (in-process bursts dispatch as soon "
                          "as arrivals go quiet; this caps their wait)")
    srv.add_argument("--stdio", action="store_true",
                     help="serve JSON-line operations on stdin/stdout "
                          "instead of HTTP")
    srv.set_defaults(func=_cmd_serve)

    sbm = sub.add_parser("submit", help="submit one run to a serve instance "
                                        "and (by default) wait for the result")
    sbm.add_argument("--url", default="http://127.0.0.1:8350",
                     help="base URL of the serve instance")
    sbm.add_argument("--design", required=True, choices=_design_names())
    sbm.add_argument("--engine", choices=ENGINES, default="rtl")
    sbm.add_argument("--seed", type=int, default=None,
                     help="stimulus seed (default: the design's standard stimulus)")
    sbm.add_argument("--compare-to-rtl", action="store_true",
                     help="attach accuracy vs a software-RTL reference run")
    sbm.add_argument("--no-wait", action="store_true",
                     help="print the job id and return immediately")
    _add_common_run_arguments(sbm)
    sbm.set_defaults(func=_cmd_submit)

    sta = sub.add_parser("status", help="job list, job detail, or server "
                                        "stats of a serve instance")
    sta.add_argument("job_id", nargs="?", default=None,
                     help="show one job's record and event history "
                          "(default: list all jobs + server stats)")
    sta.add_argument("--url", default="http://127.0.0.1:8350",
                     help="base URL of the serve instance")
    sta.add_argument("--json", metavar="PATH", default=None,
                     help="write the response as a JSON artifact")
    sta.set_defaults(func=_cmd_status)

    cache = sub.add_parser("cache", help="inspect or clear an on-disk result "
                                         "cache directory")
    cache.add_argument("action", choices=("stats", "clear"),
                       help="stats = entries/bytes/budget/corruption; "
                            "clear = delete cache entries")
    cache.add_argument("--cache-dir", required=True,
                       help="the cache directory (as passed to sweep/serve)")
    cache.add_argument("--namespace", default=None,
                       help="cache namespace: stats counts it separately "
                            "(default estimate); clear restricts to it when "
                            "given (default: clear all namespaces)")
    cache.add_argument("--json", metavar="PATH", default=None,
                       help="write the stats as a JSON artifact")
    cache.set_defaults(func=_cmd_cache)

    obs_p = sub.add_parser("obs", help="observability: dump/reset the metrics "
                                       "registry, summarize a --trace file")
    obs_sub = obs_p.add_subparsers(dest="obs_action", required=True)
    obs_dump = obs_sub.add_parser(
        "dump", help="print metrics in Prometheus text exposition format")
    obs_dump.add_argument("--url", default=None,
                          help="scrape GET <url>/metrics of a live serve "
                               "instance instead of this process's registry")
    obs_sub.add_parser("reset", help="zero every metric in this process's "
                                     "registry and drop buffered spans")
    obs_sum = obs_sub.add_parser(
        "summarize", help="aggregate a Chrome trace JSON (from --trace) into "
                          "a per-span-name timing table")
    obs_sum.add_argument("trace", help="trace_event JSON path")
    obs_sum.add_argument("--json", metavar="PATH", default=None,
                         help="write the summary as a JSON artifact")
    obs_p.set_defaults(func=_cmd_obs)

    # listed for `python -m repro --help` only: every real fig3/gate
    # invocation — including `--help` — is forwarded to the module's own
    # parser by main() before argparse runs
    sub.add_parser("fig3", add_help=False,
                   help="the paper's Figure 3 study (sharded + cached); "
                        "all arguments forward to repro.bench.fig3")
    sub.add_parser("gate", add_help=False,
                   help="gate fresh BENCH_*.json metrics against committed "
                        "baselines; all arguments forward to repro.bench.gate")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["fig3"]:
        # forward everything after `fig3` — including --help — to the
        # study's own parser (argparse REMAINDER does not reliably pass
        # optionals through sub-parsers)
        from repro.bench.fig3 import main as fig3_main

        return fig3_main(argv[1:])
    if argv[:1] == ["gate"]:
        from repro.bench.gate import main as gate_main

        return gate_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as error:
        # registry lookups and spec validation raise with actionable messages
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # a Ctrl-C outside the sweep runner's graceful path (SweepInterrupted
        # is handled — with persistence — inside _cmd_sweep)
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
