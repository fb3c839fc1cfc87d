"""Command-line front end for verification campaigns and tomography demos.

Subcommands: ``axioms``, ``equiv``, ``tomo``, ``kernel``, ``roundtrip``.
Every run emits a human-readable summary and, on request, a JSON report;
tomography runs write plot-ready CSV tables.  Exit codes are stable:
0 pass, 1 check failed, 2 input error, 3 infeasible parameters.  Each
``cmd_*`` returns a ``RunReport``; ``main`` alone times it, prints it and
maps exceptions to exit codes (``INFEASIBLE_ERRORS`` exit 3, other bad
input exits 2, anything else is a bug and keeps its traceback).

All randomized campaigns run from an explicit seed (default 0) and the
reports record it, so reruns reproduce every deviation bit for bit.
Output lands only in the directory selected by ``--out`` (or the
GROUPOIDAL_OUT environment variable).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import algebra, groupoid, realizations, starproduct, tomography

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3


class InfeasibleGridError(ValueError):
    """Raised when a reconstruction lattice is too coarse or too small for the scheme."""


# The parameter refusals that exit 3; any other ValueError is bad input (exit 2).
INFEASIBLE_ERRORS = (
    starproduct.KernelLimitError,
    realizations.TruncationRegionError,
    realizations.GridSupportError,
    tomography.WeightRangeError,
    InfeasibleGridError,
)


@dataclass
class RunReport:
    command: str
    parameters: dict
    seed: int | None = None
    checks: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def add(self, name: str, passed: bool, deviation: float | None = None, **details):
        self.checks.append(
            {"name": name, "passed": bool(passed), "deviation": deviation, **details}
        )

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "checks": self.checks,
            "wall_time_s": self.wall_time_s,
        }


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("GROUPOIDAL_OUT", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _finish(report: RunReport, args) -> int:
    for c in report.checks:
        mark = "PASS" if c["passed"] else "FAIL"
        dev = "" if c["deviation"] is None else f"  deviation={c['deviation']:.3e}"
        print(f"[{mark}] {c['name']}{dev}")
    if getattr(args, "json", None):
        path = _out_dir(args) / args.json
        path.write_text(json.dumps(report.to_dict(), indent=2, default=float))
        print(f"report: {path}")
    return EXIT_PASS if report.all_passed else EXIT_CHECK_FAILED


def _build_groupoid(args) -> groupoid.FiniteGroupoid:
    chosen = [bool(args.pair), bool(args.group), bool(args.file), args.units is not None]
    if sum(chosen) != 1:
        raise ValueError(
            "choose exactly one of --pair / --group / --units+--isotropy / --file"
        )
    if args.pair:
        return groupoid.pair_groupoid(args.pair)
    if args.group:
        return groupoid.group_groupoid(
            groupoid.cyclic_group_table(_cyclic_order(args.group)), name=args.group
        )
    if args.units is not None:
        if not args.isotropy:
            raise ValueError("--units requires --isotropy ZK")
        table = groupoid.cyclic_group_table(_cyclic_order(args.isotropy))
        return groupoid.transitive_groupoid(args.units, table)
    return groupoid.FiniteGroupoid.load(args.file)


def _cyclic_order(spec: str) -> int:
    spec = spec.strip()
    if spec[:1].upper() != "Z" or not spec[1:].isdecimal():
        raise ValueError(f"group spec {spec!r} not understood; use e.g. Z4")
    return int(spec[1:])


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def cmd_axioms(args) -> RunReport:
    G = _build_groupoid(args)
    report = RunReport("axioms", {"order": G.order, "name": G.name}, seed=args.seed)
    ax = groupoid.validate_axioms(G)
    for name, check in ax.entries.items():
        detail = {}
        if check.witness is not None:
            detail["witness"] = list(check.witness)
        report.add(f"axiom:{name}", check.passed, **detail)
    if ax.all_passed:
        cls = groupoid.classify(G)
        orbs = groupoid.orbits(G)
        iso = groupoid.isotropy_group(G, min(G.units))
        print(
            f"groupoid {G.name or '?'}: order {G.order}, {len(G.units)} units, "
            f"{len(orbs)} orbit(s), isotropy order {iso.order}, "
            f"principal={cls.principal}, transitive={cls.transitive}"
        )
    else:
        for name, check in ax.failures().items():
            print(f"violated {name}: witness {check.witness}")
    return report


# ---------------------------------------------------------------------------
# equiv
# ---------------------------------------------------------------------------


def cmd_equiv(args) -> RunReport:
    if args.scheme == "prop1":
        rep = starproduct.verify_prop1(args.n, n_pairs=args.pairs, seed=args.seed)
        report = RunReport("equiv prop1", {"n": args.n, "pairs": args.pairs}, seed=args.seed)
        report.add("kernel_is_boolean", rep.kernel_is_boolean)
        report.add("star_equals_convolution", rep.max_dev < 1e-12, rep.max_dev)
        exact_dev = rep.details["integer_max_dev"]
        report.add("integer_symbols_exact", exact_dev == 0.0, exact_dev)
        return report
    if args.scheme == "genconv":
        G = _build_groupoid(args)
        rep = starproduct.verify_gen_conv(G, seed=args.seed)
        report = RunReport("equiv genconv", {"order": G.order, "name": G.name}, seed=args.seed)
        norm = rep.details["normalization"]
        print(f"normalization constant: {norm}")
        report.add("kernel_equals_delta", rep.details["kernel_vs_delta_dev"] == 0.0,
                   rep.details["kernel_vs_delta_dev"])
        report.add("star_equals_convolution", rep.max_dev < 1e-12, rep.max_dev,
                   normalization=norm)
        return report
    # coherent counterexample: passes when the discrepancy is LARGE
    grid = realizations.coherent_grid(args.grid, args.spacing)
    rep = realizations.coherent_discrepancy_report(grid, args.nt)
    report = RunReport("equiv coherent",
                       {"grid": args.grid, "spacing": args.spacing, "n_trunc": args.nt},
                       seed=args.seed)
    gap = rep["star_vs_convolution_gap"]
    report.add("star_differs_from_convolution", gap > 1e-2, gap)
    report.add("duality_residual_large", rep["duality_residual"] > 0.1,
               rep["duality_residual"])
    report.add("overlap_matches_series", rep["overlap_series_dev"] < 1e-10,
               rep["overlap_series_dev"])
    return report


# ---------------------------------------------------------------------------
# tomo
# ---------------------------------------------------------------------------


def _parse_state(spec: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    if dim < 1:
        raise ValueError(f"state dimension must be at least 1 (got {dim})")
    if spec == "vac":
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    if spec.startswith("fock:"):
        k = int(spec.split(":", 1)[1])
        if not 0 <= k < dim:
            raise ValueError(f"fock index {k} outside 0..{dim - 1}")
        rho = np.zeros((dim, dim), dtype=complex)
        rho[k, k] = 1.0
        return rho
    if spec.startswith("coherent:"):
        z = complex(spec.split(":", 1)[1])
        v = realizations.coherent_state_vector(dim, z)
        return np.outer(v, v.conj())
    if spec == "mixed":
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = X @ X.conj().T
        return rho / np.trace(rho).real
    if spec.startswith("file:"):
        return algebra.load_operator(spec.split(":", 1)[1])
    raise ValueError(f"state spec {spec!r} not understood")


def cmd_tomo(args) -> RunReport:
    tomo = {"spin": _tomo_spin, "photon": _tomo_photon, "symplectic": _tomo_symplectic}
    return tomo[args.scheme](args, np.random.default_rng(args.seed), _out_dir(args))


def _add_reconstruction(report: RunReport, rec, rho, args, out: Path, **details) -> None:
    """The reconstruction_frobenius check plus the ``<scheme>_reconstruction.json`` file."""
    errs = rec.errors_against(rho)
    report.add("reconstruction_frobenius", errs["frobenius_error"] < args.tol,
               errs["frobenius_error"], reliable_dim=rec.reliable_dim,
               frobenius_error_full=errs["frobenius_error_full"],
               max_abs_beyond_reliable=rec.max_abs_beyond_reliable, **details)
    (out / f"{rec.scheme}_reconstruction.json").write_text(
        json.dumps(rec.report(rho, seed=args.seed), indent=2, default=float)
    )


def _tomo_spin(args, rng, out: Path) -> RunReport:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1 (got {args.samples})")
    j = args.j
    dim = int(round(2 * j)) + 1
    rho = _parse_state(args.state, dim, rng)
    report = RunReport("tomo spin", {"j": j, "state": args.state, "samples": args.samples},
                       seed=args.seed)
    angles = rng.uniform(-np.pi, np.pi, (args.samples, 3))
    probs = tomography.spin_tomogram(j, tomography.EulerAngles(*angles.T), rho).probabilities
    worst_sum = float(np.abs(probs.sum(axis=1) - 1.0).max())
    worst_neg = max(0.0, -float(probs.min()))
    alpha, beta, gamma = np.repeat(angles, dim, axis=0).T.tolist()
    m = np.tile(np.arange(dim) - j, args.samples).tolist()
    path = out / "spin_tomogram.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "alpha", "beta", "gamma", "m", "probability"])
        writer.writerows(zip(itertools.repeat(j), alpha, beta, gamma, m, probs.ravel().tolist()))
    print(f"tomograms: {path}")
    report.add("sums_equal_one", worst_sum < 1e-12, worst_sum)
    report.add("entries_nonnegative", worst_neg < 1e-12, worst_neg)
    if args.reconstruct:
        worst = 0.0
        for _ in range(10):
            g = tomography.EulerAngles(*rng.uniform(-np.pi, np.pi, 3))
            w = tomography.spin_symbol(j, g, rho)
            back = tomography.spin_reconstruct_at_g(j, g, w)
            worst = max(worst, float(np.abs(back - rho).max()))
        report.add("fixed_g_roundtrip", worst < 1e-12, worst)
    return report


def _tomo_photon(args, rng, out: Path) -> RunReport:
    n_t = args.nt
    rho = _parse_state(args.state, n_t, rng)
    report = RunReport(
        "tomo photon",
        {"state": args.state, "N_t": n_t, "radius": args.radius,
         "spacing": args.spacing, "s": args.s, "z": str(args.z)},
        seed=args.seed,
    )
    if args.reconstruct:
        if args.spacing > 0.25 or args.radius < 3.0:
            raise InfeasibleGridError(
                "reconstruction needs spacing <= 0.25 and radius >= 3 "
                f"(got spacing={args.spacing}, radius={args.radius}); "
                "suggested: --spacing 0.2 --radius 4"
            )
        lattice = realizations.disk_lattice(args.radius, args.spacing)
    else:
        lattice = realizations.CoherentGrid(np.array([complex(args.z)]), args.spacing**2)
    tom = tomography.photon_tomogram(rho, lattice, n_max=n_t)
    path = out / "photon_tomogram.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_z", "im_z", "n", "P"])
        z = np.repeat(lattice.z_points, tom.n_max)
        n = itertools.cycle(range(tom.n_max))
        writer.writerows(zip(z.real.tolist(), z.imag.tolist(), n, tom.table.T.ravel().tolist()))
    print(f"tomograms: {path}")
    # column sums equal the trace up to the mass a displaced state leaks
    # beyond n_max; at the lattice edge that truncation tail dominates
    sums = tom.table.sum(axis=0)
    report.add(
        "columns_normalized",
        bool(np.all(np.abs(sums - np.trace(rho).real) < 1e-3)),
        float(np.abs(sums - np.trace(rho).real).max()),
    )
    if args.reconstruct:
        rec = tomography.photon_reconstruct(tom, s=args.s, n_trunc=n_t)
        _add_reconstruction(report, rec, rho, args, out)
    return report


def _tomo_symplectic(args, rng, out: Path) -> RunReport:
    n_t = args.nt
    rho = _parse_state(args.state, n_t, rng)
    report = RunReport(
        "tomo symplectic",
        {"state": args.state, "N_t": n_t, "L": args.L, "step": args.step,
         "mu": args.mu, "nu": args.nu},
        seed=args.seed,
    )
    tom = tomography.symplectic_tomogram(n_t, args.mu, args.nu, rho)
    path = out / "symplectic_tomogram.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "nu", "x_k", "p_k"])
        for x, p in tom.atoms:
            writer.writerow([args.mu, args.nu, repr(x), repr(p)])
    print(f"tomogram: {path}")
    report.add("weights_sum_to_trace",
               abs(tom.p.sum() - np.trace(rho).real) < 1e-12,
               abs(float(tom.p.sum() - np.trace(rho).real)))
    if args.reconstruct:
        if args.L < 6.0 or args.step > 0.15:
            raise InfeasibleGridError(
                f"reconstruction needs L >= 6 and step <= 0.15 (got L={args.L}, "
                f"step={args.step}); suggested: --L 6 --step 0.1"
            )
        rec = tomography.symplectic_reconstruct(
            n_t, tomography.state_tomogram_provider(rho),
            grid_limit=args.L, grid_step=args.step,
        )
        _add_reconstruction(report, rec, rho, args, out,
                            boundary_tail=rec.params["boundary_tail"])
    return report


# ---------------------------------------------------------------------------
# kernel / roundtrip
# ---------------------------------------------------------------------------


def cmd_kernel(args) -> RunReport:
    if args.weyl:
        pair = starproduct.weyl_qdpair(args.weyl)
        name = f"weyl{args.weyl}"
    else:
        G = _build_groupoid(args)
        pair = starproduct.d_realization_qdpair(G)
        name = f"dreal{G.order}"
    report = RunReport("kernel", {"pair": name}, seed=args.seed)
    path = _out_dir(args) / f"kernel_{name}.csv"
    starproduct.export_kernel_csv(pair, path)
    print(f"kernel: {path}")
    report.add("kernel_exported", True)
    return report


def cmd_roundtrip(args) -> RunReport:
    rng = np.random.default_rng(args.seed)
    grid = realizations.position_grid(-args.xmax, args.xmax, args.points)
    report = RunReport("roundtrip", {"N_t": args.nt, "xmax": args.xmax, "points": args.points},
                       seed=args.seed)
    F = rng.standard_normal((args.nt, args.nt)) + 1j * rng.standard_normal((args.nt, args.nt))
    f = realizations.fock_to_position_symbol(F, grid)
    F2 = realizations.position_to_fock_symbol(f, grid, args.nt)
    dev = float(np.abs(F2 - F).max())
    report.add("fock_position_roundtrip", dev < args.tol, dev)
    # product carried through the position representation = matrix product
    G2 = rng.standard_normal((args.nt, args.nt)) + 1j * rng.standard_normal((args.nt, args.nt))
    g = realizations.fock_to_position_symbol(G2, grid)
    prod_grid = algebra.weighted_grid_convolve(f, g, grid.weights)
    FG = realizations.position_to_fock_symbol(prod_grid, grid, args.nt)
    dev2 = float(np.abs(FG - F @ G2).max())
    report.add("position_product_matches_matrix_product", dev2 < args.tol, dev2)
    if args.csv:
        path = _out_dir(args) / args.csv
        realizations.save_grid_symbol_csv(f, grid, path)
        print(f"grid symbol: {path}")
    return report


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_groupoid_selectors(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pair", type=int, default=0, metavar="N",
                   help="pair groupoid over N points")
    p.add_argument("--group", default="", metavar="ZK", help="cyclic group, e.g. Z4")
    p.add_argument("--units", type=int, default=None, metavar="U",
                   help="transitive groupoid with U units (needs --isotropy)")
    p.add_argument("--isotropy", default="", metavar="ZK",
                   help="isotropy group of the transitive groupoid")
    p.add_argument("--file", default="", help="groupoid JSON file")


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", default=None, help="output directory (or $GROUPOIDAL_OUT)")
    p.add_argument("--json", default=None, metavar="NAME", help="write a JSON report")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="groupoidal",
        description="verification campaigns for groupoid algebras, star products, "
                    "and tomographic reconstruction",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="validate groupoid axioms exhaustively")
    _add_groupoid_selectors(p)
    _common(p)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("equiv", help="star-product vs convolution equivalence checks")
    p.add_argument("scheme", choices=["prop1", "genconv", "coherent"])
    p.add_argument("--n", type=int, default=4, help="pair-groupoid size for prop1")
    p.add_argument("--pairs", type=int, default=100, help="random symbol pairs")
    p.add_argument("--grid", type=int, default=5, help="coherent lattice side")
    p.add_argument("--spacing", type=float, default=0.5, help="coherent lattice spacing")
    p.add_argument("--nt", type=int, default=64, help="Fock truncation")
    _add_groupoid_selectors(p)
    _common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("tomo", help="tomograms and tomographic reconstruction")
    p.add_argument("scheme", choices=["spin", "photon", "symplectic"])
    p.add_argument("--state", default="vac",
                   help="vac | fock:K | coherent:Z | mixed | file:PATH")
    p.add_argument("--j", type=float, default=1.0, help="spin quantum number")
    p.add_argument("--samples", type=int, default=100, help="random group elements")
    p.add_argument("--nt", "--Nt", dest="nt", type=int, default=32, help="Fock truncation")
    p.add_argument("--z", default="0j", help="displacement for a single photon column")
    p.add_argument("--radius", type=float, default=4.0, help="photon lattice radius")
    p.add_argument("--spacing", type=float, default=0.2, help="photon lattice spacing")
    p.add_argument("--s", type=float, default=-0.5, help="ordering parameter")
    p.add_argument("--L", type=float, default=6.0, help="symplectic grid limit")
    p.add_argument("--step", type=float, default=0.1, help="symplectic grid step")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=None,
                   help="reconstruction tolerance (defaults per scheme)")
    p.add_argument("--reconstruct", action="store_true")
    _common(p)
    p.set_defaults(func=cmd_tomo)

    p = sub.add_parser("kernel", help="export a star-product kernel as CSV (m <= 16)")
    p.add_argument("--weyl", type=int, default=0, metavar="N",
                   help="Weyl pair of dimension N")
    _add_groupoid_selectors(p)
    _common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("roundtrip", help="Fock <-> position symbol round trip")
    p.add_argument("--nt", "--Nt", dest="nt", type=int, default=16)
    p.add_argument("--xmax", type=float, default=8.0)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--csv", default=None, metavar="NAME",
                   help="export the test position symbol as (x, y, re, im) CSV")
    _common(p)
    p.set_defaults(func=cmd_roundtrip)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "tol", None) is None and args.command == "tomo":
        args.tol = {"spin": 1e-12, "photon": 5e-3, "symplectic": 1e-3}[args.scheme]
    t0 = time.perf_counter()
    try:
        report = args.func(args)
        report.wall_time_s = time.perf_counter() - t0
        return _finish(report, args)
    except INFEASIBLE_ERRORS as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    # GroupoidStructureError and JSONDecodeError are ValueErrors; anything
    # else is a bug and keeps its traceback
    except (OSError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
