"""Tests for the benchmark-study infrastructure (repro.bench).

Covers the on-disk result cache (keying, code fingerprinting, atomicity),
the library-form Figure 3 study, the process-pool shard runner's parity
with serial execution, and the perf-trajectory contract: every benchmark
harness that calls ``write_result`` must have produced a committed repo-root
``BENCH_*.json`` summary.
"""

from __future__ import annotations

import ast
import json
import os

import pytest

from repro.bench import (
    Fig3Row,
    Fig3Study,
    ResultCache,
    StudyConfig,
    code_fingerprint,
    run_sharded,
    run_study_tasks,
)

_CHEAP_DESIGNS = ["Bubble_Sort", "HVPeakF"]


# ----------------------------------------------------------------- cache


def test_result_cache_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path), namespace="t")
    key = cache.key(design="X", config={"bits": 12})
    assert cache.get(key) is None
    cache.put(key, {"value": 1.5})
    assert cache.get(key) == {"value": 1.5}
    assert cache.clear() == 1
    assert cache.get(key) is None


def test_result_cache_key_depends_on_parts_and_namespace(tmp_path):
    cache = ResultCache(str(tmp_path), namespace="a")
    other = ResultCache(str(tmp_path), namespace="b")
    assert cache.key(design="X") != cache.key(design="Y")
    assert cache.key(design="X", config={"bits": 12}) != cache.key(
        design="X", config={"bits": 8}
    )
    assert cache.key(design="X") != other.key(design="X")


def test_result_cache_quarantines_corruption(tmp_path):
    import os

    cache = ResultCache(str(tmp_path), namespace="t")
    key = cache.key(design="X")
    cache.put(key, {"ok": True})
    with open(cache._path(key), "w") as handle:
        handle.write("{not json")
    assert cache.get(key) is None
    # the corrupt entry was moved aside and counted, not left in place:
    # the next lookup is a clean miss, and a fresh put works again
    assert cache.corruption_count == 1
    assert not os.path.exists(cache._path(key))
    assert os.path.exists(cache._path(key) + ".corrupt")
    assert cache.get(key) is None
    assert cache.corruption_count == 1
    cache.put(key, {"ok": True})
    assert cache.get(key) == {"ok": True}


def _put_with_age(cache, age_rank, **parts):
    """Insert an entry whose mtime encodes its LRU age (0 = oldest)."""
    key = cache.key(**parts)
    cache.put(key, {"payload": "x" * 64, **parts})
    stamp = 1_000_000 + age_rank * 1000
    os.utime(cache._path(key), (stamp, stamp))
    return key


def test_result_cache_evicts_lru_to_byte_budget(tmp_path):
    unbounded = ResultCache(str(tmp_path), namespace="t")
    keys = [_put_with_age(unbounded, rank, n=rank) for rank in range(4)]
    entry_bytes = os.path.getsize(unbounded._path(keys[0]))

    # room for three entries (entry sizes vary by a byte or two, hence the
    # slack): the next put must evict exactly the two oldest
    cache = ResultCache(
        str(tmp_path), namespace="t", max_bytes=3 * entry_bytes + 16
    )
    new_key = _put_with_age(cache, 99, n=99)
    assert cache.eviction_count == 2
    assert cache.get(keys[0]) is None
    assert cache.get(keys[1]) is None
    assert cache.get(keys[2]) is not None
    assert cache.get(new_key) is not None


def test_result_cache_hit_refreshes_lru_position(tmp_path):
    cache = ResultCache(str(tmp_path), namespace="t")
    old = _put_with_age(cache, 0, n="old")
    young = _put_with_age(cache, 1, n="young")
    # a hit is a use: the old entry becomes the most recently used
    assert cache.get(old) is not None

    entry_bytes = os.path.getsize(cache._path(old))
    bounded = ResultCache(
        str(tmp_path), namespace="t", max_bytes=2 * entry_bytes
    )
    kept = bounded.key(n="kept")
    bounded.put(kept, {"payload": "x" * 64})
    # the *young-but-unused* entry was the LRU victim, not the touched one
    assert bounded.get(young) is None
    assert bounded.get(old) is not None


def test_result_cache_eviction_spares_just_written_entry(tmp_path):
    # a budget below one entry keeps only the newest write, never zero
    cache = ResultCache(str(tmp_path), namespace="t", max_bytes=1)
    first = _put_with_age(cache, 0, n=1)
    second = _put_with_age(cache, 1, n=2)
    assert cache.get(first) is None
    assert cache.get(second) is not None
    assert cache.stats()["entries"] == 1


def test_result_cache_eviction_spans_namespaces(tmp_path):
    other = ResultCache(str(tmp_path), namespace="other")
    foreign = _put_with_age(other, 0, n="foreign")
    entry_bytes = os.path.getsize(other._path(foreign))

    cache = ResultCache(str(tmp_path), namespace="t", max_bytes=entry_bytes)
    mine = _put_with_age(cache, 1, n="mine")
    # the byte budget is a directory property: the older entry of the other
    # namespace was evicted to make room
    assert other.get(foreign) is None
    assert cache.get(mine) is not None


def test_result_cache_stats_report_counters_and_sizes(tmp_path):
    cache = ResultCache(str(tmp_path), namespace="t", max_bytes=10_000_000)
    other = ResultCache(str(tmp_path), namespace="other")
    key = cache.key(n=1)
    assert cache.get(key) is None  # miss
    cache.put(key, {"n": 1})
    assert cache.get(key) == {"n": 1}  # hit
    other.put(other.key(n=2), {"n": 2})

    stats = cache.stats()
    assert stats["directory"] == str(tmp_path)
    assert stats["namespace"] == "t"
    assert stats["entries"] == 2
    assert stats["namespace_entries"] == 1
    assert stats["bytes"] > 0
    assert stats["max_bytes"] == 10_000_000
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["evictions"] == 0
    assert stats["corrupt_quarantined"] == 0


def test_cache_budget_resolves_from_environment(tmp_path, monkeypatch):
    from repro.bench.cache import resolve_max_bytes

    monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
    assert resolve_max_bytes(None) is None
    assert resolve_max_bytes(123) == 123
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.5")
    assert resolve_max_bytes(None) == 512 * 1024
    assert ResultCache(str(tmp_path)).max_bytes == 512 * 1024
    assert resolve_max_bytes(77) == 77  # an explicit budget beats the env
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "lots")
    with pytest.raises(ValueError, match="REPRO_CACHE_MAX_MB"):
        resolve_max_bytes(None)


def test_result_cache_clear_scopes_by_namespace(tmp_path):
    mine = ResultCache(str(tmp_path), namespace="t")
    other = ResultCache(str(tmp_path), namespace="other")
    mine.put(mine.key(n=1), {"n": 1})
    mine.put(mine.key(n=2), {"n": 2})
    other.put(other.key(n=3), {"n": 3})
    assert mine.clear() == 2  # namespace-scoped by default
    assert other.get(other.key(n=3)) == {"n": 3}
    other.put(other.key(n=4), {"n": 4})
    assert mine.clear(all_namespaces=True) == 2


def test_cache_cli_stats_and_clear(tmp_path, capsys):
    from repro.api.cli import main

    cache = ResultCache(str(tmp_path), namespace="estimate")
    cache.put(cache.key(n=1), {"n": 1})
    other = ResultCache(str(tmp_path), namespace="job")
    other.put(other.key(n=2), {"n": 2})

    stats_json = tmp_path / "stats.json"
    assert main([
        "cache", "stats", "--cache-dir", str(tmp_path),
        "--json", str(stats_json),
    ]) == 0
    out = capsys.readouterr().out
    assert "entries           2 (1 in namespace 'estimate')" in out
    assert "unbounded" in out
    assert json.loads(stats_json.read_text())["entries"] == 2

    # scoped clear drops just the named namespace...
    assert main([
        "cache", "clear", "--cache-dir", str(tmp_path),
        "--namespace", "estimate",
    ]) == 0
    assert "cleared 1 cache entries (estimate)" in capsys.readouterr().out
    assert other.get(other.key(n=2)) == {"n": 2}
    # ...and the default clear sweeps every namespace
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "cleared 1 cache entries (all namespaces)" in capsys.readouterr().out
    assert ResultCache(str(tmp_path), namespace="job").stats()["entries"] == 0


def test_code_fingerprint_stable_and_hexadecimal():
    first = code_fingerprint()
    assert first == code_fingerprint()
    assert len(first) == 64
    int(first, 16)


# ------------------------------------------------------------ fig3 study


def test_fig3_study_disk_cache_hit(tmp_path):
    cache = ResultCache(str(tmp_path), namespace="fig3")
    cold = Fig3Study(cache=cache)
    row = cold.compute("Bubble_Sort")
    assert cold.cache_hits == {"Bubble_Sort": False}

    warm = Fig3Study(cache=cache)
    again = warm.compute("Bubble_Sort")
    assert warm.cache_hits == {"Bubble_Sort": True}
    assert again.time_emulation_s == row.time_emulation_s
    assert again.monitored_bits == row.monitored_bits
    assert again.nominal_cycles == row.nominal_cycles


def test_fig3_row_dict_roundtrip():
    study = Fig3Study()
    row = study.compute("HVPeakF")
    clone = Fig3Row.from_dict(json.loads(json.dumps(row.to_dict())))
    assert clone == row
    assert clone.speedup_nec == pytest.approx(row.speedup_nec)


def test_study_config_participates_in_cache_key(tmp_path):
    cache = ResultCache(str(tmp_path), namespace="fig3")
    study = Fig3Study(config=StudyConfig(coefficient_bits=12), cache=cache)
    study.compute("Bubble_Sort")
    other = Fig3Study(config=StudyConfig(coefficient_bits=8), cache=cache)
    other.compute("Bubble_Sort")
    assert other.cache_hits == {"Bubble_Sort": False}, "different config must miss"


# ------------------------------------------------------------- sharding


def test_run_sharded_serial_path():
    outcome = run_sharded(_CHEAP_DESIGNS, n_workers=1)
    assert sorted(outcome.rows) == sorted(_CHEAP_DESIGNS)
    assert outcome.n_workers == 1
    assert all(seconds >= 0.0 for seconds in outcome.task_times_s.values())


def test_run_sharded_pool_matches_serial(tmp_path):
    """One design per worker produces exactly the serial study's rows."""
    serial = run_sharded(_CHEAP_DESIGNS, n_workers=1)
    cache = ResultCache(str(tmp_path), namespace="fig3")
    pooled = run_sharded(_CHEAP_DESIGNS, n_workers=2, cache=cache)
    for name in _CHEAP_DESIGNS:
        ours, theirs = serial.rows[name], pooled.rows[name]
        assert ours.monitored_bits == theirs.monitored_bits
        assert ours.time_nec_s == theirs.time_nec_s
        assert ours.time_powertheater_s == theirs.time_powertheater_s
        assert ours.time_emulation_s == theirs.time_emulation_s
        assert ours.average_power_mw == theirs.average_power_mw
    # pooled rows were persisted for the next run
    config = StudyConfig()
    for name in _CHEAP_DESIGNS:
        key = cache.key(design=name, config=config.as_key())
        assert cache.get(key) is not None


def test_run_study_tasks_multi_config():
    tasks = [(name, StudyConfig(coefficient_bits=bits))
             for bits in (8, 12) for name in ["Bubble_Sort"]]
    outcome = run_study_tasks(tasks, n_workers=1)
    assert len(outcome.task_rows) == 2
    rows = list(outcome.task_rows.values())
    # coefficient width changes the instrumentation overhead, not the design
    assert rows[0].monitored_bits == rows[1].monitored_bits


# ------------------------------------------------------- perf trajectory

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_BENCH_DIR = os.path.join(_REPO_ROOT, "benchmarks")


def _expected_trajectory_names():
    """BENCH summary names every harness's write_result calls produce.

    Statically extracts the literal ``filename``/``bench_name`` arguments of
    each ``write_result(...)`` call in ``benchmarks/bench_*.py`` and applies
    conftest.write_result's naming rule (``bench_name`` wins, else the
    filename stem).
    """
    names = {}
    for entry in sorted(os.listdir(_BENCH_DIR)):
        if not (entry.startswith("bench_") and entry.endswith(".py")):
            continue
        path = os.path.join(_BENCH_DIR, entry)
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "write_result"
            ):
                continue
            assert node.args and isinstance(node.args[0], ast.Constant), (
                f"{entry}: write_result must be called with a literal "
                f"filename so the perf trajectory is statically checkable"
            )
            bench_name = None
            for keyword in node.keywords:
                if keyword.arg == "bench_name":
                    assert isinstance(keyword.value, ast.Constant), (
                        f"{entry}: bench_name must be a literal"
                    )
                    bench_name = keyword.value.value
            filename = node.args[0].value
            name = bench_name or os.path.splitext(os.path.basename(filename))[0]
            names.setdefault(name, entry)
    return names


def test_every_write_result_harness_has_a_trajectory_entry():
    """Each harness's BENCH_<name>.json summary exists at the repo root.

    The repo-root summaries are the committed per-PR perf trajectory; a
    harness whose artifact is missing was never (re)run — exactly the gap
    that left the trajectory empty before this test existed.  Run the
    harness (``python -m pytest benchmarks/bench_<x>.py``) and commit the
    refreshed ``BENCH_*.json`` to fix a failure here.
    """
    names = _expected_trajectory_names()
    assert names, "no write_result callers found under benchmarks/"
    missing = []
    for name, harness in sorted(names.items()):
        path = os.path.join(_REPO_ROOT, f"BENCH_{name}.json")
        if not os.path.exists(path):
            missing.append(f"{harness} -> BENCH_{name}.json")
            continue
        with open(path) as handle:
            payload = json.load(handle)
        assert payload.get("benchmark") == name, path
        assert payload.get("table"), f"{path} has an empty table"
        assert "metrics" in payload and "python" in payload, path
    assert not missing, (
        "benchmark harnesses without a perf-trajectory entry: "
        + ", ".join(missing)
    )


def test_write_result_emits_trajectory_summary(tmp_path, monkeypatch):
    """write_result always produces the machine-readable BENCH summary."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_conftest", os.path.join(_BENCH_DIR, "conftest.py")
    )
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    monkeypatch.setattr(conftest, "RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setattr(conftest, "REPO_ROOT", str(tmp_path))
    conftest.write_result("demo_table.txt", "a table", metrics={"x": 1.5})
    summary = tmp_path / "BENCH_demo_table.json"
    assert summary.exists()
    payload = json.loads(summary.read_text())
    assert payload["benchmark"] == "demo_table"
    assert payload["metrics"] == {"x": 1.5}
    assert payload["table"] == "a table"


# ----------------------------------------------------------------- perf gate


def _gate():
    from repro.bench import gate

    return gate


def test_gate_classify_metric_directions():
    gate = _gate()
    assert gate.classify_metric("lane_cycles_per_s_HVPeakF_1thr") == "higher"
    assert gate.classify_metric("speedup_4thr") == "higher"
    assert gate.classify_metric("characterize_wall_s") == "lower"
    assert gate.classify_metric("estimate_time_s") == "lower"
    # configuration values never gate
    assert gate.classify_metric("n_lanes") is None
    assert gate.classify_metric("host_cores") is None
    assert gate.classify_metric("threading_mode") is None


def test_gate_metrics_thresholds():
    gate = _gate()
    baseline = {"rate_per_s": 100.0, "wall_time_s": 10.0, "n_lanes": 64}
    improved = gate.gate_metrics("b", baseline, {"rate_per_s": 150.0, "wall_time_s": 8.0})
    assert {f.severity for f in improved} == {"ok"}
    warned = gate.gate_metrics("b", baseline, {"rate_per_s": 80.0, "wall_time_s": 10.0})
    assert {f.metric: f.severity for f in warned} == {
        "rate_per_s": "warn", "wall_time_s": "ok"
    }
    failed = gate.gate_metrics("b", baseline, {"rate_per_s": 50.0, "wall_time_s": 25.0})
    assert {f.metric: f.severity for f in failed} == {
        "rate_per_s": "fail", "wall_time_s": "fail"
    }


def test_gate_metrics_unpaired_is_informational():
    gate = _gate()
    findings = gate.gate_metrics("b", {"old_per_s": 5.0}, {"new_per_s": 7.0})
    assert {f.severity for f in findings} == {"info"}
    # info findings never fail a run
    assert all(f.severity != "fail" for f in findings)


def test_gate_metrics_rejects_bad_thresholds():
    gate = _gate()
    with pytest.raises(ValueError, match="warn"):
        gate.gate_metrics("b", {}, {}, warn_fraction=0.5, fail_fraction=0.2)


def _write_bench(directory, name, metrics):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump({"benchmark": name, "metrics": metrics, "table": "t"}, handle)
    return path


def test_gate_dirs_and_cli_exit_codes(tmp_path):
    gate = _gate()
    base = str(tmp_path / "base")
    curr = str(tmp_path / "curr")
    _write_bench(base, "demo", {"rate_per_s": 100.0})
    _write_bench(curr, "demo", {"rate_per_s": 99.0})
    # only-in-one-side benchmarks are skipped, not errors
    _write_bench(base, "retired", {"rate_per_s": 1.0})
    findings = gate.gate_dirs(base, curr)
    assert [(f.bench, f.severity) for f in findings] == [("demo", "ok")]
    assert gate.main(["--baseline-dir", base, "--current-dir", curr]) == 0

    _write_bench(curr, "demo", {"rate_per_s": 10.0})
    report = str(tmp_path / "gate.json")
    assert gate.main(
        ["--baseline-dir", base, "--current-dir", curr, "--json", report]
    ) == 1
    payload = json.load(open(report))
    assert payload[0]["severity"] == "fail"

    with pytest.raises(SystemExit, match="unknown benchmark"):
        gate.gate_dirs(base, curr, names=["nope"])


def test_gate_reports_retired_numpy_kernel_metrics_as_info(tmp_path):
    """Baselines recorded with the retired fused-NumPy kernel column gate
    cleanly against a fresh lane-kernel run that no longer measures it."""
    gate = _gate()
    with open(os.path.join(_REPO_ROOT, "BENCH_lane_kernels.json")) as handle:
        current = json.load(handle)["metrics"]
    assert not any(name.startswith("speedup_numpy_") for name in current)
    retired = {"speedup_numpy_Bubble_Sort": 0.95, "speedup_numpy_DCT": 0.99,
               "speedup_numpy_HVPeakF": 0.99}
    base = str(tmp_path / "base")
    curr = str(tmp_path / "curr")
    _write_bench(base, "lane_kernels", {**current, **retired})
    _write_bench(curr, "lane_kernels", current)
    findings = gate.gate_dirs(base, curr)
    severity = {f.metric: f.severity for f in findings}
    assert {severity[name] for name in retired} == {"info"}
    assert gate.main(["--baseline-dir", base, "--current-dir", curr]) == 0


def test_gate_self_check_against_committed_baselines():
    """The committed BENCH_*.json files gate cleanly against themselves."""
    gate = _gate()
    findings = gate.gate_dirs(_REPO_ROOT, _REPO_ROOT)
    assert findings, "no committed BENCH_*.json metrics were gateable"
    assert {f.severity for f in findings} == {"ok"}
