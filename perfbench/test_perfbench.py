"""Self-tests of the benchmark:  python3 -m pytest perfbench -q

The last test runs one plain and one traced pass of every workload on the
held-out seed, about a minute and 600 MB at peak.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run as bench
import speed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _inputs(workload: str, seed: int, workdir: Path) -> tuple:
    runs = workloads.prepare(workload, seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.glob("*.json"))}
    return [run.argv for run in runs], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    first = _inputs(workload, 5, tmp_path)
    for p in tmp_path.glob("*.json"):
        p.unlink()
    assert _inputs(workload, 5, tmp_path) == first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs(tmp_path, workload):
    assert _inputs(workload, 5, tmp_path) != _inputs(workload, 6, tmp_path)


def test_generated_groupoid_matches_library():
    from groupoidal import groupoid

    lib = groupoid.transitive_groupoid(16, groupoid.cyclic_group_table(4)).to_dict()
    ours = workloads.transitive_z4_dict(16, np.arange(16 * 16 * 4))
    assert {k: ours[k] for k in lib} == lib


def test_corruption_changes_one_product_within_its_hom_set():
    ok = workloads.transitive_z4_dict(16, np.random.default_rng(0).permutation(1024))
    bad = workloads.corrupt(ok, np.random.default_rng(1))
    diff = [(a, b) for a, b in zip(ok["compose"], bad["compose"]) if a != b]
    assert len(diff) == 1
    (_, _, old), (_, _, new) = diff[0]
    assert ok["source"][old] == ok["source"][new] and ok["target"][old] == ok["target"][new]


def test_self_time_on_nested_spans():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 7]
    spans = [
        ("cli.main", 0.0, 10.0, -1, 1),
        ("tomography.a", 1.0, 4.0, 0, 1),
        ("tomography.b", 5.0, 9.0, 0, 1),
        ("numpy.linalg.eigh", 6.0, 7.0, 2, 1),
        ("tomography.b", 8.0, 8.5, 2, 1),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.5, 3: 1.0, 4: 0.5}
    s = tracing.summarize(spans)
    assert s["busy"]["tomography.b"] == 4.0  # the nested call is not counted twice
    assert s["calls"]["tomography.b"] == 2
    assert s["calls"]["tomography.eigh"] == 1
    assert s["layer_self"] == {"cli": 3.0, "tomography": 7.0}
    # a slice starting at a later root keeps its own arithmetic
    later = spans + [("cli.main", 20.0, 21.0, -1, 2), ("groupoid.f", 20.2, 20.6, 5, 2)]
    assert tracing.self_times(later, 5) == {5: pytest.approx(0.6), 6: pytest.approx(0.4)}


def test_speed_probe_fires_and_its_time_is_taken_out():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t_end = time.perf_counter() + 3 * speed.PERIOD_S
        while time.perf_counter() < t_end:
            pass
    assert probe.samples and signal.getsignal(signal.SIGALRM) is previous
    probe.samples = [(1.0, 0.1), (2.0, 0.2), (5.0, 0.4)]
    assert probe.within(1.0, 5.0) == pytest.approx(0.3)


def test_tracer_installs_and_restores():
    from groupoidal import cli, groupoid, tomography

    original = tomography.displaced_rows
    tr = tracing.Tracer(bench.PROBES)
    tr.install([groupoid, tomography, cli])
    try:
        assert tomography.displaced_rows is not original
        tomography.displaced_rows(3, 4, 0.5)
        G = groupoid.pair_groupoid(3)
        groupoid.validate_axioms(G)
    finally:
        tr.uninstall()
    assert tomography.displaced_rows is original
    names = [s[0] for s in tr.spans]
    assert names[:2] == ["tomography.displaced_rows", "groupoid.pair_groupoid"]
    assert tr.counters["tomography.displaced_rows.bytes_computed"] == 3 * 4 * 16
    assert tr.counters["groupoid.assoc_triples_checked"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in bench.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == set(bench.END_TO_END)


# metrics that must be non-zero in a traced pass of each workload
EXERCISED = {
    "symplectic": ["tomography.symplectic_reconstruct.s", "tomography.symplectic_tomogram.calls",
                   "tomography.quadrature_operator.calls",
                   "tomography.characteristic_value.calls", "tomography.eigh.calls",
                   "tomography.eigh.s"],
    "photon": ["tomography.photon_tomogram.s", "tomography.displaced_rows.bytes_computed",
               "tomography.photon_reconstruct.s", "tomography.number_power_block.calls",
               "tomography.spin_tomogram.calls", "tomography.wigner_little_d.s",
               "realizations.disk_lattice.s", "cli.csv_rows"],
    "star": ["starproduct.kernel.calls", "starproduct.kernel.bytes_computed",
             "starproduct.kernel.builds_per_pair", "starproduct.star.calls",
             "starproduct.verify_prop1.s", "starproduct.verify_gen_conv.s",
             "starproduct.export_kernel_csv.s", "algebra.convolve.calls",
             "algebra.d_realization_stack.s", "algebra.normalization_constant.s",
             "algebra.weighted_grid_convolve.s", "realizations.coherent_discrepancy_report.s",
             "realizations.fock_to_position_symbol.s",
             "realizations.position_to_fock_symbol.s"],
    "axioms": ["groupoid.validate_axioms.calls", "groupoid.assoc_triples_checked",
               "groupoid.assoc_triples_per_s", "groupoid.FiniteGroupoid.load.s",
               "groupoid.classify.s"],
}
DOMINANT = {
    "symplectic": ["tomography.symplectic_reconstruct.s"],
    "photon": ["tomography.photon_tomogram.s", "tomography.photon_reconstruct.s"],
    "star": ["starproduct.kernel.s"],
    "axioms": ["groupoid.validate_axioms.s", "groupoid.FiniteGroupoid.load.s"],
}


def test_held_out_seed_runs_clean_and_traces_every_layer(tmp_path):
    from groupoidal import algebra, cli, groupoid, realizations, starproduct, tomography

    modules = [groupoid, algebra, starproduct, realizations, tomography, cli]
    for workload in workloads.WORKLOADS:
        workdir = tmp_path / workload
        runs = workloads.prepare(workload, workloads.HELD_OUT_SEED, workdir)
        plain = bench.run_pass(runs, cli, workdir)
        tr = tracing.Tracer(bench.PROBES)
        tr.install(modules)
        try:
            traced = bench.run_pass(runs, cli, workdir, tr)
        finally:
            tr.uninstall()
        for p in (plain, traced):
            assert [v["problems"] for v in p["verdicts"]] == [[] for _ in runs], workload
        layers = traced["layers"]
        missing = [name for name in EXERCISED[workload] if not layers.get(name)]
        assert not missing, (workload, missing)
        dominant = sum(layers[name] for name in DOMINANT[workload])
        assert dominant > 0.5 * layers["cli.main.s"], workload
