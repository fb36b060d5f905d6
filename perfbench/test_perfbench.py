"""Self-test of the benchmark: python3 -m pytest perfbench -q

Runs guided-2d, nested-2d, query-mix and oracle-boxes with tracing off and
on (about three minutes), and checks the metric contract of BENCHMARK.json, seeded
determinism, the references and the tracer's counts.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hostref  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)

#: the design's end-to-end figures printed before the result, per workload
FIGURES = {
    "guided-2d": {"setup_s": "s", "spectrum_s": "s", "ref_err_max": "abs",
                  "fail_frac": "fraction", "inconclusive_frac": "fraction",
                  "peak_rss_mb": "MB"},
    "nested-2d": {"setup_s": "s", "spectrum_s": "s", "ref_err_max": "abs",
                  "fail_frac": "fraction", "inconclusive_frac": "fraction",
                  "peak_rss_mb": "MB"},
    "query-mix": {"setup_s": "s", "query_p50_ms": "ms", "query_p95_ms": "ms",
                  "query_per_s": "1/s", "ref_err_max": "abs",
                  "fail_frac": "fraction", "inconclusive_frac": "fraction",
                  "peak_rss_mb": "MB"},
    "oracle-boxes": {"setup_s": "s", "oracle_s": "s", "ref_err_max": "abs",
                     "fail_frac": "fraction", "peak_rss_mb": "MB"},
}


def bench(workload, trace, seed=7, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


_RUNS = {}


def run(workload, trace, seed=7):
    """Parsed output of one benchmark run, cached per arguments."""
    key = (workload, trace, seed)
    if key not in _RUNS:
        done = bench(workload, trace, seed)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        figures = {}
        for line in lines[:-2]:
            name, _, rest = line.partition(": ")[2].partition(" = ")
            value, unit = rest.rsplit(" ", 1)
            figures[name] = (float(value), unit)
        _RUNS[key] = (figures, json.loads(lines[-2]), json.loads(lines[-1]))
    return _RUNS[key]


def test_contract_names_match_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == \
        list(workloads.WORKLOADS)
    assert CONTRACT["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", list(FIGURES))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_with_its_unit(workload, trace):
    figures, info, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    env = info["environment"]
    assert env["blas_threads"] == 1 and env["seed"] == 7
    assert {"python", "numpy", "scipy", "nproc"} <= set(env)
    if not trace:
        for name, unit in FIGURES[workload].items():
            assert figures[name][1] == unit, name
        assert figures["fail_frac"][0] == 0.0
        for value in result["metrics"].values():
            assert value["value"] > 0
        assert figures["peak_rss_mb"][0] > 0


def test_fastest_repeat_of_each_input():
    tally = workloads.Tally()
    tally.sink("a").extend([3.0, 1.0, 2.0])
    tally.sink("b").append(5.0)
    assert sorted(tally.best()) == [1.0, 5.0]
    assert sorted(tally.latencies) == [1.0, 2.0, 3.0, 5.0]


def test_relative_time_divides_each_unit_by_the_samples_around_it():
    gauge = hostref.HostGauge()
    gauge.times.append(1.0)
    gauge.unit_done("a", 4.0, 2)         # 4 / mean(1, 3)
    gauge.times.append(3.0)
    gauge.unit_done("b", 6.0, 1)         # 6 / mean(3, 2)
    gauge.unit_done("a", 10.0, 2)        # 10 / mean(3, 2)
    gauge.times.append(2.0)
    # key a: median of 2 and 4, two operations; key b: 2.4, one operation
    assert gauge.relative() == pytest.approx((3.0 + 2.4) / 3)


def test_query_mix_asks_its_whole_query_set():
    figures, info, _ = run("query-mix", 0)
    queries = workloads.QUERY_BLOCKS * 6 * workloads.QUERIES_PER_KIND
    assert info["counts"]["inputs"] == queries
    assert info["counts"]["operations"] >= queries
    assert figures["query_p95_beyond"][0] >= 10


@pytest.mark.parametrize("workload", ("guided-2d", "nested-2d"))
def test_same_csv_bytes_across_runs(workload):
    digests = {run(workload, trace)[1]["details"]["csv_sha256"]
               for trace in (0, 1)}
    assert len(digests) == 1 and None not in digests


def test_query_stream_depends_on_seed_only():
    first = run("query-mix", 0)[1]["details"]["stream_sha256"]
    assert run("query-mix", 1)[1]["details"]["stream_sha256"] == first
    assert run("query-mix", 0, seed=8)[1]["details"]["stream_sha256"] != first

    def blocks(seed):
        load = workloads.QueryWorkload(seed, out_root=None)
        load.prepare()
        return [load.block(i) for i in range(3)]

    assert blocks(3) == blocks(3)
    assert blocks(3) != blocks(4)


def test_undecided_answers_far_from_every_edge_fail(monkeypatch):
    load = workloads.QueryWorkload(1, None)
    load.prepare()
    spec, _ = load.loaded["square_line_defect.json"]
    tally = workloads.Tally()
    assert load._undecided(tally, "line", spec, 4.01, "near") == []
    assert load._undecided(tally, "line", spec, 5.0, "far")
    assert tally.undecided == 2

    def refuse(spec, omega, g, grids=None):
        raise workloads.spectrum.UncertifiedLevel(
            f"omega={omega!r} is in or unresolvably close to the spectrum "
            "(membership: in, step 0)")

    monkeypatch.setattr(workloads.spectrum, "resolvent_apply", refuse)
    tally = workloads.Tally()
    load.unit(0, tally)
    solves = sum(kind == "resolvent" for _, kind, _, _ in load.block(0))
    assert solves > 0 and tally.failed == solves


def test_nested_reference_matches_fresh_mpmath():
    assert ref.nested_point_mpmath() == pytest.approx(ref.NESTED_POINT,
                                                      abs=1e-15)
    assert ref.nested_point_mpmath(dps=50) == pytest.approx(ref.NESTED_POINT,
                                                            abs=1e-15)


def test_independent_residual_matches_engine_forward():
    from defect_bands.spectrum import forward_apply

    rng = np.random.default_rng(5)
    for tag, config in workloads.QUERY_MODELS:
        spec, grids = workloads.cli.spec_from_config(
            workloads.cli.load_config(workloads.config_path(config)))
        n, dim = 16, spec.lattice_dim
        f = rng.normal(size=(n,) * dim + (1,)) + 0j
        coeffs = {(0,) * dim: 1.0 + 0.5j}
        g = ref.trig_values(coeffs, dim, n)
        applied = forward_apply(spec, 5.5, f, n)[..., 0]
        want = np.linalg.norm(applied - g) / np.linalg.norm(g)
        got = ref.resolvent_residual(tag, 5.5, f, coeffs, n)
        assert got == pytest.approx(want, rel=1e-12)


def test_traced_guided_counts_match_independent_counts():
    metrics = {k: v["value"] for k, v in run("guided-2d", 1)[2]["metrics"].items()}
    spec, _ = workloads.cli.spec_from_config(workloads.cli.load_config(
        workloads.config_path("square_line_defect.json")))
    grids = workloads.GUIDED_GRIDS
    # a scan omega is evaluated when some k2 node keeps band_guard from the
    # bulk band [2 cos k2 - 2, 2 cos k2 + 2] at that node
    scan = np.linspace(*spec.omega_window, grids["omega_points"])
    centre = 2 * np.cos(ref.grid_axis(grids["k_points"]))
    gap = np.maximum(np.abs(scan[:, None] - centre[None, :]) - 2.0, 0.0)
    admissible = int(np.sum(np.any(gap >= spec.tolerances.band_guard, axis=1)))
    assert metrics["spectrum.dispersion.scan_evals"] == admissible
    assert metrics["spectrum.dispersion.roots"] == grids["k_points"]
    assert metrics["spectrum.dispersion.near_band"] == 0
    assert metrics["quadrature.bracket.calls"] == 0
    assert metrics["spectrum.dispersion.polish_evals"] > 0
    assert metrics["symbol.inverse.calls"] >= metrics[
        "spectrum.dispersion.scan_evals"] + metrics[
        "spectrum.dispersion.polish_evals"]
    assert metrics["trace.spans"] > 0


def test_refuses_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("guided-2d", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
