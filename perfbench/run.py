"""Benchmark of seeded groupoidal CLI campaigns.

    python3 perfbench/run.py --workload {symplectic,photon,star,axioms}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The library is imported from ``src/``
and driven in-process through ``groupoidal.cli.main(argv)``.  Each pass runs
every CLI invocation of the workload once; passes repeat until ``--seconds``
is spent (at least two).  After every pass the benchmark reads back each
run's exit code, ``--json`` report and reconstruction JSON and checks the
verdicts.  A SpeedProbe samples the machine's speed during the untraced
passes, and ``campaign_s`` is the mean pass time rescaled to the probe's
nominal speed, so the shared machine's drift cancels; the plain median pass
time is printed as ``campaign_wall_s``.  With ``--trace 0`` it reports the
end-to-end metrics, with
``--trace 1`` it alternates plain and traced passes and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the full result, with the environment record, goes to
``.perfbench/results/`` and traced spans to ``.perfbench/spans/``.
"""

from __future__ import annotations

import os

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # one BLAS thread, set before numpy loads: the plain single-threaded
    # baseline, and steadier on a small shared machine
    for _var in THREAD_ENV:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
MIN_PASSES = 2
MAX_MEASURE_S = 120.0

# reported with --trace 0; the other end-to-end figures are printed only,
# because they are zero or undefined on some workloads (see README.md)
END_TO_END = {"setup_s": "s", "campaign_s": "s", "peak_rss_mb": "MB"}

# (name, unit, better, "end-to-end metric and workload it should move")
PER_LAYER = [
    ("cli.main.s", "s", "lower", "campaign_s on photon (CSV-heavy); flat elsewhere"),
    ("cli.self_s", "s", "lower", "campaign_s on photon; flat elsewhere"),
    ("cli.csv_rows", "count", "higher", "none: output volume, must not drop"),
    ("tomography.symplectic_reconstruct.s", "s", "lower", "campaign_s on symplectic"),
    ("tomography.symplectic_reconstruct.self_s", "s", "lower", "campaign_s on symplectic"),
    ("tomography.symplectic_tomogram.calls", "count", "lower", "campaign_s on symplectic"),
    ("tomography.quadrature_operator.calls", "count", "lower", "campaign_s on symplectic"),
    ("tomography.characteristic_value.calls", "count", "lower", "campaign_s on symplectic"),
    ("tomography.eigh.calls", "count", "lower", "campaign_s on symplectic"),
    ("tomography.eigh.s", "s", "lower", "campaign_s on symplectic"),
    ("tomography.photon_tomogram.s", "s", "lower", "campaign_s on photon"),
    ("tomography.photon_tomogram.self_s", "s", "lower", "campaign_s on photon"),
    ("tomography.displaced_rows.calls", "count", "lower", "campaign_s on photon"),
    ("tomography.displaced_rows.s", "s", "lower", "campaign_s on photon"),
    ("tomography.displaced_rows.bytes_computed", "bytes", "lower", "campaign_s on photon"),
    ("tomography.photon_reconstruct.s", "s", "lower", "campaign_s on photon"),
    ("tomography.photon_reconstruct.self_s", "s", "lower", "campaign_s on photon"),
    ("tomography.number_power_block.calls", "count", "lower", "campaign_s on photon"),
    ("tomography.number_power_block.s", "s", "lower", "campaign_s on photon"),
    ("tomography.spin_tomogram.calls", "count", "lower", "campaign_s on photon"),
    ("tomography.spin_tomogram.s", "s", "lower", "campaign_s on photon"),
    ("tomography.wigner_little_d.s", "s", "lower", "campaign_s on photon"),
    ("starproduct.kernel.calls", "count", "lower", "campaign_s, peak_rss_mb on star"),
    ("starproduct.kernel.s", "s", "lower", "campaign_s on star"),
    ("starproduct.kernel.bytes_computed", "bytes", "lower", "peak_rss_mb on star"),
    ("starproduct.kernel.builds_per_pair", "ratio", "lower", "campaign_s, peak_rss_mb on star"),
    ("starproduct.star.calls", "count", "lower", "campaign_s on star"),
    ("starproduct.star.s", "s", "lower", "campaign_s on star"),
    ("starproduct.verify_prop1.s", "s", "lower", "campaign_s on star"),
    ("starproduct.verify_gen_conv.s", "s", "lower", "campaign_s on star"),
    ("starproduct.export_kernel_csv.s", "s", "lower", "campaign_s on star"),
    ("algebra.convolve.calls", "count", "lower", "campaign_s on star; expected flat"),
    ("algebra.convolve.s", "s", "lower", "campaign_s on star; expected flat"),
    ("algebra.d_realization_stack.s", "s", "lower", "campaign_s on star"),
    ("algebra.normalization_constant.s", "s", "lower", "campaign_s on star"),
    ("algebra.weighted_grid_convolve.s", "s", "lower", "campaign_s on star"),
    ("realizations.coherent_discrepancy_report.s", "s", "lower", "campaign_s on star"),
    ("realizations.fock_to_position_symbol.s", "s", "lower", "campaign_s on star"),
    ("realizations.position_to_fock_symbol.s", "s", "lower", "campaign_s on star"),
    ("realizations.disk_lattice.s", "s", "lower", "setup_s, campaign_s on photon"),
    ("groupoid.validate_axioms.calls", "count", "lower", "campaign_s on axioms"),
    ("groupoid.validate_axioms.s", "s", "lower", "campaign_s, reject_s on axioms"),
    ("groupoid.assoc_triples_checked", "count", "higher", "none: scan coverage, must not drop"),
    ("groupoid.assoc_triples_per_s", "1/s", "higher", "campaign_s on axioms"),
    ("groupoid.FiniteGroupoid.load.s", "s", "lower", "campaign_s, reject_s on axioms"),
    ("groupoid.classify.s", "s", "lower", "campaign_s on axioms and star"),
] + [
    (f"{layer}.self_s", "s", "lower", f"campaign_s where {layer} runs")
    for layer in tracing.LAYERS if layer != "cli"
] + [
    (f"{layer}.errors", "count", "lower", "op_error_frac on every workload")
    for layer in tracing.LAYERS
] + [
    ("trace.overhead_frac", "ratio", "lower", "none: cost of tracing itself"),
]


# -- counters taken at layer boundaries while tracing -----------------------


def _count_rows(tr, args, kwargs, result) -> None:
    tr.counters["tomography.displaced_rows.bytes_computed"] += result.nbytes


def _count_kernel(tr, args, kwargs, result) -> None:
    pair = args[0] if args else kwargs["pair"]
    m, d = len(pair.space), pair.hilbert_dim
    tr.counters["starproduct.kernel.bytes_computed"] += m * m * d * d * 16
    tr.keep[id(pair)] = pair  # held so that ids stay distinct within a pass


def _count_triples(tr, args, kwargs, result) -> None:
    tr.counters["groupoid.assoc_triples_checked"] += result.entries["d"].checked


PROBES = {
    "tomography.displaced_rows": _count_rows,
    "starproduct.kernel": _count_kernel,
    "groupoid.validate_axioms": _count_triples,
}


# -- verdict read-back -------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _compose_table(path: str) -> np.ndarray:
    data = json.loads(Path(path).read_text())
    table = np.full((data["order"], data["order"]), -1, dtype=np.int64)
    for j, k, i in data["compose"]:
        table[j, k] = i
    return table


def _violates_associativity(table: np.ndarray, g1: int, g2: int, g3: int) -> bool:
    p12, p23 = table[g1, g2], table[g2, g3]
    lhs = table[p12, g3] if p12 >= 0 else -1
    rhs = table[g1, p23] if p23 >= 0 else -1
    return lhs != rhs


def read_back(run: workloads.Run, code, error: str | None, outdir: Path) -> dict:
    """Verdict of one run: its checks, and the reasons it is an op error."""
    problems, checks, recon_err = [], [], None
    rundir = outdir / run.label
    if error is not None:
        problems.append(error)
    elif code not in (0, 1):
        problems.append(f"exit code {code}")
    else:
        try:
            checks = json.loads((rundir / f"{run.label}.json").read_text())["checks"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"report unreadable: {exc}")
    failed = [c for c in checks if not c["passed"]]
    if not problems:
        if (code == 0) != (not failed):
            problems.append(f"exit code {code} disagrees with the report")
        elif run.expect_exit == 1:
            if code != 1:
                problems.append("corrupted input accepted")
            elif any("witness" not in c for c in failed):
                problems.append("failed axiom without a witness")
            else:
                table = _compose_table(run.bad_table)
                for c in failed:
                    if c["name"] == "axiom:d" and not _violates_associativity(
                            table, *c["witness"]):
                        problems.append(f"witness {c['witness']} is associative")
        elif not {c["name"] for c in failed} <= run.known_fail:
            problems.append("checks failed: " + ", ".join(c["name"] for c in failed))
    if run.recon and not problems:
        try:
            recon = json.loads((rundir / run.recon).read_text())
            recon_err = float(recon["frobenius_error"])
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"reconstruction JSON unreadable: {exc}")
    csv_rows = 0
    for path in sorted(rundir.glob("*.csv")):
        with open(path) as fh:
            csv_rows += max(0, sum(1 for _ in fh) - 1)
    return {
        "label": run.label,
        "exit": code,
        "expected_exit": run.expect_exit,
        "checks": len(checks),
        "failed_checks": [c["name"] for c in failed],
        "recon_frobenius_error": recon_err,
        "csv_rows": csv_rows,
        "problems": problems,
    }


def run_pass(runs: list, cli, workdir: Path, tr: tracing.Tracer | None = None) -> dict:
    """Run every CLI invocation once, then read back every verdict.

    An untraced pass runs under a SpeedProbe; the probe's own time is taken
    out of each run's seconds.
    """
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    outcomes, seconds = [], []
    start = tr.new_pass() if tr else 0
    probe = speed.SpeedProbe()
    with contextlib.nullcontext() if tr else probe:
        for run in runs:
            outcomes.append(_invoke(run, cli, tr, probe, seconds))
    verdicts = [read_back(run, code, error, outdir) for run, (code, error) in zip(runs, outcomes)]
    for v, s in zip(verdicts, seconds):
        v["seconds"] = s
    result = {
        "traced": tr is not None,
        "campaign_s": sum(seconds),
        "probe_s": [d for _, d in probe.samples],
        "reject_s": sum(s for run, s in zip(runs, seconds) if run.expect_exit == 1),
        "verdicts": verdicts,
    }
    if tr:
        result["layers"] = layer_metrics(tr, start, verdicts)
    return result


def _invoke(run: workloads.Run, cli, tr, probe: speed.SpeedProbe, seconds: list) -> tuple:
    """One CLI invocation: its exit code and the error it raised, if any."""
    if tr:
        tr.run_id += 1
    code, error = None, None
    t0 = time.perf_counter()
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(run.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        error = traceback.format_exc(limit=-3).strip().splitlines()[-1]
    t1 = time.perf_counter()
    seconds.append(t1 - t0 - probe.within(t0, t1))
    return code, error


def layer_metrics(tr: tracing.Tracer, start: int, verdicts: list) -> dict:
    """Flat per-layer metrics of one traced pass."""
    summary = tracing.summarize(tr.spans, start)
    out = {}
    for name, n in summary["calls"].items():
        out[f"{name}.calls"] = n
        out[f"{name}.s"] = summary["busy"][name]
        out[f"{name}.self_s"] = summary["self"][name]
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = summary["layer_self"][layer]
        out[f"{layer}.errors"] = sum(n for k, n in tr.errors.items()
                                     if tracing.layer_of(k) == layer)
    out.update(tr.counters)
    out["cli.csv_rows"] = sum(v["csv_rows"] for v in verdicts)
    builds = summary["calls"]["starproduct.kernel"]
    out["starproduct.kernel.builds_per_pair"] = builds / len(tr.keep) if tr.keep else 0.0
    triples = tr.counters["groupoid.assoc_triples_checked"]
    busy = summary["busy"]["groupoid.validate_axioms"]
    out["groupoid.assoc_triples_per_s"] = triples / busy if busy else 0.0
    return out


# -- set-up, environment, report --------------------------------------------


def measure_setup(root: Path, workload: str, seed: int, workdir: Path) -> list:
    """Seconds to import groupoidal.cli and generate the inputs, each sample
    in a fresh interpreter, with the probe time taken right after it:
    (seconds, probe seconds) pairs."""
    samples = []
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), str(root / "src"),
             workload, str(seed), str(workdir / f"setup{i}")],
            cwd=root, capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(tuple(float(x) for x in proc.stdout.split()[-2:]))
    return samples


def environment(seed: int) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    if not (src / "groupoidal" / "cli.py").is_file():
        print(f"error: no groupoidal sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    state = root / ".perfbench"
    workdir = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = measure_setup(root, args.workload, args.seed, workdir)
        sys.path.insert(0, str(src))
        import groupoidal
        import groupoidal.cli as cli

        if not Path(groupoidal.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: groupoidal imported from {groupoidal.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        runs = workloads.prepare(args.workload, args.seed, workdir)
        tr = None
        if args.trace:
            tr = tracing.Tracer(PROBES)
        passes = []
        t0 = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                tr.install([groupoidal.groupoid, groupoidal.algebra, groupoidal.starproduct,
                            groupoidal.realizations, groupoidal.tomography, cli])
            try:
                passes.append(run_pass(runs, cli, workdir, tr if traced else None))
            finally:
                if traced:
                    tr.uninstall()
            elapsed = time.perf_counter() - t0
            per_pass = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and (
                    elapsed + per_pass > args.seconds or elapsed > MAX_MEASURE_S):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    verdicts = [v for p in passes for v in p["verdicts"]]
    attempted = len(verdicts)
    failed = sum(1 for v in verdicts if v["problems"])
    expected_pass = [v for v in verdicts if v["expected_exit"] == 0]
    n_checks = sum(v["checks"] for v in expected_pass)
    recon = [v["recon_frobenius_error"] for v in verdicts
             if v["recon_frobenius_error"] is not None]
    has_reject = any(run.expect_exit == 1 for run in runs)
    wall_s = statistics.median([p["campaign_s"] for p in plain])
    # the probe samples the machine uniformly in time across the plain
    # passes, so mean pass time over mean probe time cancels the drift
    probe_s = statistics.fmean([d for p in plain for d in p["probe_s"]])
    e2e = {
        "setup_s": statistics.median([t * speed.NOMINAL_S / p for t, p in setup]),
        "campaign_s": (statistics.fmean([p["campaign_s"] for p in plain])
                       * speed.NOMINAL_S / probe_s),
        "peak_rss_mb": peak_rss_mb,
    }
    report = {name: (value, END_TO_END[name]) for name, value in e2e.items()}
    report["campaign_wall_s"] = (wall_s, "s")
    report["probe_s"] = (probe_s, "s")
    reject = statistics.median([p["reject_s"] for p in plain]) if has_reject else None
    report["reject_s"] = (reject, "s")
    report["op_error_frac"] = (failed / attempted, "ratio")
    report["check_fail_frac"] = (
        sum(len(v["failed_checks"]) for v in expected_pass) / n_checks if n_checks else 0.0,
        "ratio")
    report["recon_frobenius_error"] = (max(recon) if recon else None, "1")

    layers = {}
    if traced_passes:
        per_pass = [p["layers"] for p in traced_passes]
        names = sorted(set().union(*per_pass))
        for name in names:
            values = [lp.get(name, 0) for lp in per_pass]
            timed = name.endswith((".s", "_s"))
            if not timed and len(set(values)) > 1:
                print(f"warning: count {name} differs between passes: {values}")
            layers[name] = statistics.median(values) if timed else values[0]
        traced_s = statistics.median([p["campaign_s"] for p in traced_passes])
        layers["trace.overhead_frac"] = traced_s / wall_s - 1.0

    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} plain"
          f" + {len(traced_passes)} traced  runs {attempted}  op errors {failed}")
    print("environment " + json.dumps(env))
    for name, (value, unit) in report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<24} {shown:>12} {unit}")
    for v in verdicts:
        for problem in v["problems"]:
            print(f"  op error in {v['label']}: {problem}")

    if args.trace:
        metrics = {name: {"value": float(layers.get(name, 0)), "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in e2e.items()}
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({
        "environment": env,
        "workload": args.workload,
        "argv": [list(run.argv) for run in runs],
        "setup_samples_s": setup,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "per_layer": layers,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }, indent=1))
    if tr:
        spans = state / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tr.write(spans / f"{stem}.csv.gz")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
