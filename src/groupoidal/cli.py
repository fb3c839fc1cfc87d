"""Command-line front end for verification campaigns and tomography demos.

Subcommands: ``axioms``, ``equiv prop1|genconv|coherent``,
``tomo spin|photon|symplectic``, ``kernel``, ``roundtrip``.  Each leaf has its
own parser holding exactly the options its ``cmd_*`` reads, with their
defaults, so an option a leaf does not take is refused, never ignored.
Every run emits a human-readable summary and, on request, a JSON report;
tomography runs write plot-ready CSV tables.  Exit codes are stable:
0 pass, 1 check failed, 2 input error, 3 infeasible parameters.  Each
``cmd_*`` returns a ``RunReport``; ``main`` alone parses the arguments, times
the command, prints its report and maps exceptions to exit codes
(``groupoid.InfeasibleError`` exit 3; a parse error or other ``ValueError``,
``OSError`` or ``KeyError`` exit 2; anything else is a bug and keeps its
traceback).

All randomized campaigns run from an explicit seed (default 0) and the
reports record it, so reruns reproduce every deviation bit for bit.
Output lands only in the directory selected by ``--out`` (or the
GROUPOIDAL_OUT environment variable).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import algebra, groupoid, realizations, starproduct, tomography

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3


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
        return {"schema": 1, **asdict(self)}


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("GROUPOIDAL_OUT", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _finish(report: RunReport, path: Path | None) -> int:
    for c in report.checks:
        mark = "PASS" if c["passed"] else "FAIL"
        dev = "" if c["deviation"] is None else f"  deviation={c['deviation']:.3e}"
        print(f"[{mark}] {c['name']}{dev}")
    if path:
        path.write_text(json.dumps(report.to_dict(), indent=2, default=float))
        print(f"report: {path}")
    return EXIT_PASS if report.all_passed else EXIT_CHECK_FAILED


def _write_csv(path: Path, header: list, prefix, rows) -> None:
    """Write ``header``, then per group a block of rows, each led by the group's prefix.

    ``prefix`` holds columns of one entry per group, ``rows`` columns of one
    entry per row, group-major, as many in every group.  A cell is the repr of
    its column's ``tolist()`` value, as ``csv.writer`` writes numbers, and a
    prefix is formatted once for its block; lines end in ``\\r\\n``.
    """
    heads = map(",".join, zip(*(map(repr, np.ravel(c).tolist()) for c in prefix)))
    lines = map(",".join, zip(*(map(repr, np.ravel(c).tolist()) for c in rows)))
    per_group = np.size(rows[0]) // max(np.size(prefix[0]), 1)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for head in heads:
            head += ","
            fh.write(head + ("\r\n" + head).join(itertools.islice(lines, per_group)) + "\r\n")


def _finite(value, what: str):
    """``value`` if it is a finite float or complex number, else bad input (exit 2)."""
    if not cmath.isfinite(value):
        raise ValueError(f"{what} must be finite (got {value})")
    return value


def _build_groupoid(args) -> groupoid.FiniteGroupoid:
    """The groupoid of the one selector the parser let through."""
    if (args.units is None) != (args.isotropy is None):
        raise ValueError("--units and --isotropy go together")
    if args.pair is not None:
        return groupoid.pair_groupoid(args.pair)
    if args.group is not None:
        table = groupoid.cyclic_group_table(_cyclic_order(args.group))
        return groupoid.group_groupoid(table, name=args.group)
    if args.units is not None:
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
    ax = groupoid.validate_axioms(G, rng=np.random.default_rng(args.seed))
    for name, check in ax.entries.items():
        detail = {"sampled": check.sampled} if name == "d" else {}
        if check.witness is not None:
            detail["witness"] = list(check.witness)
        report.add(f"axiom:{name}", check.passed, checked=check.checked, **detail)
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


def _add_star_checks(report: RunReport, rep, **details) -> None:
    """The kernel, float and Gaussian-integer checks both ``equiv`` propositions report."""
    report.add("kernel_equals_delta", rep.details["kernel_vs_delta_dev"] == 0.0,
               rep.details["kernel_vs_delta_dev"])
    report.add("star_equals_convolution", rep.max_dev < starproduct.STAR_CONVOLUTION_TOL,
               rep.max_dev, **details)
    exact_dev = rep.details["integer_max_dev"]
    report.add("integer_symbols_exact", exact_dev == 0.0, exact_dev)


def cmd_equiv_prop1(args) -> RunReport:
    rep = starproduct.verify_prop1(args.n, n_pairs=args.pairs, seed=args.seed)
    report = RunReport("equiv prop1", {"n": args.n, "pairs": args.pairs}, seed=args.seed)
    report.add("kernel_is_boolean", rep.kernel_is_boolean)
    _add_star_checks(report, rep)
    return report


def cmd_equiv_genconv(args) -> RunReport:
    G = _build_groupoid(args)
    rep = starproduct.verify_gen_conv(G, n_pairs=args.pairs, seed=args.seed)
    report = RunReport("equiv genconv", {"order": G.order, "name": G.name, "pairs": args.pairs},
                       seed=args.seed)
    norm = rep.details["normalization"]  # one int when every N(g) agrees, else the distinct N(g)
    print(f"normalization constant: {', '.join(map(str, np.atleast_1d(norm)))}")
    _add_star_checks(report, rep, normalization=norm)
    return report


def cmd_equiv_coherent(args) -> RunReport:
    """The coherent counterexample: passes when the discrepancy is LARGE."""
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
    groupoid.check_dense_size((dim, dim), np.complex128, "density matrix")
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
        z = _finite(complex(spec.split(":", 1)[1]), "coherent label")
        v = realizations.coherent_state_vector(dim, z)
        return np.outer(v, v.conj())
    if spec == "mixed":
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = X @ X.conj().T
        return rho / np.trace(rho).real
    if spec.startswith("file:"):
        rho = algebra.load_operator(spec.split(":", 1)[1])
        if len(rho) != dim:  # the file fixes the dimension, so no other option can mend it
            raise ValueError(f"state {spec!r} has dimension {len(rho)}, but this run's is {dim} "
                             "(--nt, or 2j + 1 for spin)")
        if np.abs(rho - rho.conj().T).max() > 1e-10:  # state_tomogram_provider's tolerance
            raise ValueError(f"state {spec!r} is not a Hermitian operator")
        return rho
    raise ValueError(f"state spec {spec!r} not understood")


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


def cmd_tomo_spin(args) -> RunReport:
    rng, out = np.random.default_rng(args.seed), _out_dir(args)
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1 (got {args.samples})")
    j = args.j
    dim = realizations.SpinSpace(j).dim
    # spin_tomogram holds the probability table and rotates 2^18 entries, or one matrix, at a time
    groupoid.check_dense_size((args.samples, dim), float, "probability table")
    groupoid.check_dense_size((dim, dim), np.complex128, "rotation matrix")
    rho = _parse_state(args.state, dim, rng)
    report = RunReport("tomo spin", {"j": j, "state": args.state, "samples": args.samples},
                       seed=args.seed)
    angles = rng.uniform(-np.pi, np.pi, (args.samples, 3))
    probs = tomography.spin_tomogram(j, tomography.EulerAngles(*angles.T), rho)
    worst_sum = float(np.abs(probs.sum(axis=1) - 1.0).max())
    worst_neg = max(0.0, -float(probs.min()))
    path = out / "spin_tomogram.csv"
    _write_csv(path, ["j", "alpha", "beta", "gamma", "m", "probability"],
               [[j] * args.samples, *angles.T], [np.tile(np.arange(dim) - j, args.samples), probs])
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


def cmd_tomo_photon(args) -> RunReport:
    rng, out = np.random.default_rng(args.seed), _out_dir(args)
    n_t = args.nt
    rho = _parse_state(args.state, n_t, rng)
    report = RunReport(
        "tomo photon",
        {"state": args.state, "N_t": n_t, "radius": args.radius,
         "spacing": args.spacing, "s": args.s, "z": str(args.z)},
        seed=args.seed,
    )
    if args.reconstruct:  # before any file is written, so a refusal leaves none
        tomography.check_photon_reconstruction(args.s, n_t)
        if args.spacing > 0.25 or args.radius < 3.0:
            raise groupoid.InfeasibleError(
                "reconstruction needs spacing <= 0.25 and radius >= 3 "
                f"(got spacing={args.spacing}, radius={args.radius}); "
                "suggested: --spacing 0.2 --radius 4"
            )
        lattice = realizations.disk_lattice(args.radius, args.spacing)
    else:
        z = _finite(complex(args.z), "--z")
        lattice = realizations.CoherentGrid(np.array([z]), args.spacing**2)
    tom = tomography.photon_tomogram(rho, lattice, n_max=n_t)
    # column sums equal the trace up to the mass a displaced state leaks
    # beyond n_max; at the lattice edge that truncation tail dominates
    sums, trace = tom.table.sum(axis=0), np.trace(rho).real
    if not args.reconstruct and sums[0] < 1e-3 * trace:  # before the CSV is written
        raise groupoid.InfeasibleError(
            f"|z|^2 = {abs(z) * abs(z):.3g} displaces the state out of the N_t = {n_t} levels "
            f"(the tomogram keeps {sums[0]:.2e} of the trace); lower |z| or raise --nt")
    path = out / "photon_tomogram.csv"
    _write_csv(path, ["re_z", "im_z", "n", "P"], [lattice.z_points.real, lattice.z_points.imag],
               [np.tile(np.arange(tom.n_max), len(lattice.z_points)), tom.table.T])
    print(f"tomograms: {path}")
    report.add(
        "columns_normalized",
        bool(np.all(np.abs(sums - trace) < 1e-3)),
        float(np.abs(sums - trace).max()),
    )
    if args.reconstruct:
        rec = tomography.photon_reconstruct(tom, s=args.s)
        _add_reconstruction(report, rec, rho, args, out)
    return report


def cmd_tomo_symplectic(args) -> RunReport:
    rng, out = np.random.default_rng(args.seed), _out_dir(args)
    n_t = args.nt
    rho = _parse_state(args.state, n_t, rng)
    report = RunReport(
        "tomo symplectic",
        {"state": args.state, "N_t": n_t, "L": args.L, "step": args.step,
         "mu": args.mu, "nu": args.nu},
        seed=args.seed,
    )
    if args.reconstruct and (args.L < 6.0 or args.step > 0.15):
        raise groupoid.InfeasibleError(
            f"reconstruction needs L >= 6 and step <= 0.15 (got L={args.L}, "
            f"step={args.step}); suggested: --L 6 --step 0.1"
        )
    provider = tomography.state_tomogram_provider(rho)  # one weight table serves both
    tom = provider(args.mu, args.nu)
    if args.reconstruct:  # before any file is written, so a refused grid or window leaves none
        with warnings.catch_warnings():  # the boundary tail is gated on --tol below
            warnings.filterwarnings("ignore", "characteristic values reach", RuntimeWarning)
            rec = tomography.symplectic_reconstruct(n_t, provider, grid_limit=args.L,
                                                    grid_step=args.step)
        tail = rec.params["boundary_tail"]
        if tail > args.tol:  # the window misses characteristic-function mass
            raise groupoid.InfeasibleError(f"boundary tail |chi| = {tail:.2e} at L={args.L:g} exceeds "
                                           f"--tol {args.tol:g}; enlarge --L, with --nt above L^2/2")
    path = out / "symplectic_tomogram.csv"
    _write_csv(path, ["mu", "nu", "x_k", "p_k"], [[args.mu], [args.nu]], [tom.x, tom.p])
    print(f"tomogram: {path}")
    report.add("weights_sum_to_trace",
               abs(tom.p.sum() - np.trace(rho).real) < 1e-12,
               abs(float(tom.p.sum() - np.trace(rho).real)))
    if args.reconstruct:
        _add_reconstruction(report, rec, rho, args, out, boundary_tail=tail)
    return report


# ---------------------------------------------------------------------------
# kernel / roundtrip
# ---------------------------------------------------------------------------


def cmd_kernel(args) -> RunReport:
    """Flat (x1, x2, x, re, im) CSV of a kernel; refused above m = 16 before it is built."""
    if args.weyl is not None and args.isotropy is None:
        pair = starproduct.weyl_qdpair(args.weyl)
        m, name = len(pair.space), f"weyl{args.weyl}"
        build = functools.partial(starproduct.kernel, pair)
    else:  # a groupoid selector, or --isotropy without --units (refused there)
        G = _build_groupoid(args)
        m, name = G.order, f"dreal{G.order}"
        build = functools.partial(starproduct.d_realization_kernel, G)
    if m > 16:
        raise groupoid.InfeasibleError("kernel CSV export is limited to m <= 16 index points")
    K = build()
    report = RunReport("kernel", {"pair": name}, seed=args.seed)
    path = _out_dir(args) / f"kernel_{name}.csv"
    _write_csv(path, ["x1", "x2", "x", "re", "im"], np.indices((m, m)),
               [np.tile(np.arange(m), m * m), K.real, K.imag])
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
        _write_csv(path, ["x", "y", "re", "im"], [grid.points],
                   [np.tile(grid.points, len(grid)), f.real, f.imag])
        print(f"grid symbol: {path}")
    return report


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parse error is bad input: ``main`` reports it in one line (exit 2)."""

    def error(self, message):
        raise ValueError(message)


def _add_groupoid_selectors(p: argparse.ArgumentParser, weyl: bool = False) -> None:
    one = p.add_mutually_exclusive_group(required=True)
    if weyl:
        one.add_argument("--weyl", type=int, metavar="N", help="Weyl pair of dimension N")
    one.add_argument("--pair", type=int, metavar="N", help="pair groupoid over N points")
    one.add_argument("--group", metavar="ZK", help="cyclic group, e.g. Z4")
    one.add_argument("--units", type=int, metavar="U",
                     help="transitive groupoid with U units (needs --isotropy)")
    one.add_argument("--file", help="groupoid JSON file")
    p.add_argument("--isotropy", metavar="ZK", help="isotropy group of the --units groupoid")


class _ReconstructOnly(argparse.Action):
    """A float option that only ``--reconstruct`` reads; ``main`` refuses it without."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.reconstruct_only = option_string


def _add_tomo_options(p: argparse.ArgumentParser, **reconstruct_only):
    """Add --state, --reconstruct and the options only it reads; return its exclusive group."""
    p.add_argument("--state", default="vac", help="vac | fock:K | coherent:Z | mixed | file:PATH")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--reconstruct", action="store_true", help="reconstruct the state")
    for name, (default, what) in reconstruct_only.items():
        p.add_argument(f"--{name}", type=float, default=default, action=_ReconstructOnly,
                       help=f"{what}, needs --reconstruct (default {default:g})")
    return mode


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state on it."""
    ap = _Parser(
        prog="groupoidal",
        description="verification campaigns for groupoid algebras, star products, "
                    "and tomographic reconstruction",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def _leaf(parent, name: str, func, help: str) -> argparse.ArgumentParser:
        """A subcommand that runs ``func``, taking the common options unabbreviated."""
        p = parent.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func.__name__)  # looked up per run, so a wrapped cmd_* is called
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--out", default=None, help="output directory (or $GROUPOIDAL_OUT)")
        p.add_argument("--json", default=None, metavar="NAME", help="write a JSON report")
        return p

    p = _leaf(sub, "axioms", cmd_axioms, "validate groupoid axioms (sampled above 2^24 triples)")
    _add_groupoid_selectors(p)

    equiv = sub.add_parser("equiv", help="star-product vs convolution equivalence checks")
    schemes = equiv.add_subparsers(dest="scheme", required=True)
    p = _leaf(schemes, "prop1", cmd_equiv_prop1, "Weyl units on the pair groupoid")
    p.add_argument("--n", type=int, default=4, help="pair-groupoid size (default 4)")
    p.add_argument("--pairs", type=int, default=100, help="random symbol pairs (default 100)")
    p = _leaf(schemes, "genconv", cmd_equiv_genconv, "regular realization of a groupoid")
    _add_groupoid_selectors(p)
    p.add_argument("--pairs", type=int, default=20, help="random symbol pairs (default 20)")
    p = _leaf(schemes, "coherent", cmd_equiv_coherent, "coherent-lattice counterexample")
    p.add_argument("--grid", type=int, default=5, help="lattice side (default 5)")
    p.add_argument("--spacing", type=float, default=0.5, help="lattice spacing (default 0.5)")
    p.add_argument("--nt", type=int, default=64, help="Fock truncation (default 64)")

    tomo = sub.add_parser("tomo", help="tomograms and tomographic reconstruction")
    schemes = tomo.add_subparsers(dest="scheme", required=True)
    p = _leaf(schemes, "spin", cmd_tomo_spin, "spin tomograms; checks fixed at 1e-12")
    _add_tomo_options(p)
    p.add_argument("--j", type=float, default=1.0, help="spin quantum number (default 1)")
    p.add_argument("--samples", type=int, default=100, help="random group elements (default 100)")
    p = _leaf(schemes, "photon", cmd_tomo_photon, "photon-number tomograms")
    mode = _add_tomo_options(p, radius=(4.0, "lattice radius"), s=(-0.5, "ordering parameter"),
                             tol=(5e-3, "Frobenius tolerance"))
    mode.add_argument("--z", default="0j", help="single-column displacement")
    p.add_argument("--nt", type=int, default=32, help="Fock truncation (default 32)")
    p.add_argument("--spacing", type=float, default=0.2, help="lattice spacing (default 0.2)")
    p = _leaf(schemes, "symplectic", cmd_tomo_symplectic, "symplectic tomograms")
    _add_tomo_options(p, L=(6.0, "grid limit"), step=(0.1, "grid step"),
                      tol=(1e-3, "Frobenius tolerance"))
    p.add_argument("--nt", type=int, default=32, help="Fock truncation (default 32)")
    p.add_argument("--mu", type=float, default=1.0, help="tomogram direction (default 1)")
    p.add_argument("--nu", type=float, default=0.0, help="tomogram direction (default 0)")

    p = _leaf(sub, "kernel", cmd_kernel, "export a star-product kernel as CSV (m <= 16)")
    _add_groupoid_selectors(p, weyl=True)

    p = _leaf(sub, "roundtrip", cmd_roundtrip, "Fock <-> position symbol round trip")
    p.add_argument("--nt", type=int, default=16, help="Fock truncation (default 16)")
    p.add_argument("--xmax", type=float, default=8.0, help="grid half-width (default 8)")
    p.add_argument("--points", type=int, default=512, help="grid points (default 512)")
    p.add_argument("--tol", type=float, default=1e-6, help="round-trip tolerance (default 1e-6)")
    p.add_argument("--csv", default=None, metavar="NAME",
                   help="export the test position symbol as (x, y, re, im) CSV")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "reconstruct_only", None) and not args.reconstruct:
            raise ValueError(f"{args.reconstruct_only} is read only with --reconstruct")
        t0 = time.perf_counter()
        for name, value in vars(args).items():
            if isinstance(value, float):
                _finite(value, f"--{name}")
        if getattr(args, "tol", 1.0) <= 0:  # a check `error < tol` could never pass
            raise ValueError(f"--tol must be positive (got {args.tol})")
        path = args.json and _out_dir(args) / args.json
        if path:  # made before the work, so a path that cannot be made exits 2 first
            path.parent.mkdir(parents=True, exist_ok=True)
        report = globals()[args.func](args)
        report.wall_time_s = time.perf_counter() - t0
        return _finish(report, path)
    except groupoid.InfeasibleError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    # GroupoidStructureError, JSONDecodeError and parse errors are ValueErrors;
    # anything else is a bug and keeps its traceback
    except (OSError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
