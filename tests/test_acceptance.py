"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a single summary line (run with ``pytest -s`` to see them
on success).  Criterion 2 is split: the equivalence statements hold exactly
with the trace-derived normalization constant, while the closed-form
expression ord(G0) + ord(H) - 1 is asserted verbatim in a companion test
and fails for the two-unit/Z2-isotropy groupoid, where the brute-force
trace gives ord(G0) * ord(H) = 4 instead of 3.  That failure is expected
and documented; it reflects the closed form, not the equivalence theorem.
"""

import math
import time

import numpy as np
import pytest

from groupoidal.algebra import normalization_constant
from groupoidal.groupoid import (
    FiniteGroupoid,
    UNDEFINED,
    cyclic_group_table,
    group_groupoid,
    pair_groupoid,
    transitive_groupoid,
    validate_axioms,
)
from groupoidal.realizations import (
    coherent_discrepancy_report,
    coherent_grid,
    disk_lattice,
    fock_to_position_symbol,
    position_grid,
    position_to_fock_symbol,
)
from groupoidal.algebra import weighted_grid_convolve
from groupoidal.starproduct import verify_gen_conv, verify_prop1
from groupoidal.tomography import (
    EulerAngles,
    characteristic_value,
    photon_reconstruct,
    photon_tomogram,
    quadrature_operator,
    quasi_symbol_from_tomograms,
    spin_reconstruct_at_g,
    spin_symbol,
    spin_tomogram,
    state_tomogram_provider,
    symplectic_reconstruct,
    symplectic_tomogram,
    wigner_D,
)
from oracles import (
    d_realization,
    ground_state_position_density,
    photon_symbol,
    smoothed_atom_density,
    smoothed_reference_density,
)


def _announce(num, passed, detail):
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} ({detail})")


def _corpus():
    return [
        pair_groupoid(2),
        pair_groupoid(3),
        pair_groupoid(5),
        pair_groupoid(8),
        group_groupoid(cyclic_group_table(2), name="Z2"),
        group_groupoid(cyclic_group_table(3), name="Z3"),
        group_groupoid(cyclic_group_table(4), name="Z4"),
        group_groupoid(cyclic_group_table(5), name="Z5"),
        transitive_groupoid(2, cyclic_group_table(2), name="T(2,Z2)"),
    ]


def _brute_force_trace(G):
    # independent of normalization_constant: multiply out the regular
    # realization matrices and read the diagonal trace
    traces = {
        float(np.trace(d_realization(G, g) @ d_realization(G, g).T))
        for g in range(G.order)
    }
    assert len(traces) == 1
    return traces.pop()


def test_criterion_1_prop1_weyl_star_equals_convolution():
    t0 = time.perf_counter()
    worst_complex = 0.0
    worst_integer = 0.0
    for n in range(1, 9):
        rep = verify_prop1(n, n_pairs=100, seed=1)
        assert rep.kernel_is_boolean
        worst_integer = max(worst_integer, rep.details["integer_max_dev"])
        worst_complex = max(worst_complex, rep.max_dev)
    elapsed = time.perf_counter() - t0
    ok = worst_integer == 0.0 and worst_complex < 1e-12 and elapsed < 5.0
    _announce(1, ok, f"integer dev {worst_integer}, complex dev {worst_complex:.2e}, {elapsed:.1f}s")
    assert worst_integer == 0.0
    assert worst_complex < 1e-12
    assert elapsed < 5.0


def test_criterion_2_prop2_kernel_and_star():
    t0 = time.perf_counter()
    corpus = _corpus()
    assert len(corpus) >= 5
    worst = 0.0
    for G in corpus:
        assert G.order <= 64
        rep = verify_gen_conv(G, n_pairs=20, seed=2)
        assert rep.details["kernel_vs_delta_dev"] == 0.0, G.name
        worst = max(worst, rep.max_dev)
        # the constant used by the kernel is the brute-force trace
        assert rep.details["normalization"] == _brute_force_trace(G), G.name
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 30.0
    _announce(2, ok, f"star-vs-convolution dev {worst:.2e} on {len(corpus)} groupoids, {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 30.0


def test_criterion_2_closed_form_normalization_formula():
    """Faithful check of the closed form N = ord(G0) + (ord(H) - 1).

    EXPECTED TO FAIL on T(2,Z2): the brute-force trace over the 8x8
    regular-realization matrices gives ord(G0) * ord(H) = 4, while the
    closed form evaluates to 3.  The closed form agrees with the trace
    exactly when the groupoid is principal or has a single unit, which
    covers every other corpus member.  See the README paragraph on the
    normalization constant ("One acceptance test fails by design").
    """
    mismatches = []
    for G in _corpus():
        info = normalization_constant(G)
        trace = _brute_force_trace(G)
        if info.formula_value != trace:
            mismatches.append((G.name, info.formula_value, int(trace)))
    passed = not mismatches
    _announce("2 (closed form)", passed, f"mismatches: {mismatches}")
    assert passed, (
        "closed form ord(G0) + ord(H) - 1 disagrees with the brute-force "
        f"trace normalizer on {mismatches} (formula value vs trace); the "
        "equivalence theorem itself holds with the trace normalizer, see "
        "test_criterion_2_prop2_kernel_and_star"
    )


def test_criterion_3_coherent_counterexample():
    t0 = time.perf_counter()
    rep = coherent_discrepancy_report(coherent_grid(5, 0.5), 64)
    elapsed = time.perf_counter() - t0
    ok = (
        rep["duality_residual"] > 0.1
        and rep["star_vs_convolution_gap"] > 1e-2
        and rep["overlap_series_dev"] < 1e-10
        and elapsed < 30.0
    )
    _announce(3, ok, (
        f"duality {rep['duality_residual']:.3f}, gap {rep['star_vs_convolution_gap']:.3f}, "
        f"overlap dev {rep['overlap_series_dev']:.1e}, {elapsed:.1f}s"
    ))
    assert rep["duality_residual"] > 0.1
    assert rep["star_vs_convolution_gap"] > 1e-2
    assert rep["overlap_series_dev"] < 1e-10
    assert elapsed < 30.0


def test_criterion_4_fock_position_round_trip():
    t0 = time.perf_counter()
    grid = position_grid(-8.0, 8.0, 512)
    rng = np.random.default_rng(4)
    n_t = 16
    F = rng.standard_normal((n_t, n_t)) + 1j * rng.standard_normal((n_t, n_t))
    G2 = rng.standard_normal((n_t, n_t)) + 1j * rng.standard_normal((n_t, n_t))
    f = fock_to_position_symbol(F, grid)
    g = fock_to_position_symbol(G2, grid)
    round_dev = float(np.abs(position_to_fock_symbol(f, grid, n_t) - F).max())
    prod = weighted_grid_convolve(f, g, grid.weights)
    prod_dev = float(np.abs(position_to_fock_symbol(prod, grid, n_t) - F @ G2).max())
    elapsed = time.perf_counter() - t0
    ok = round_dev < 1e-6 and prod_dev < 1e-6 and elapsed < 10.0
    _announce(4, ok, f"round trip {round_dev:.2e}, product {prod_dev:.2e}, {elapsed:.1f}s")
    assert round_dev < 1e-6
    assert prod_dev < 1e-6
    assert elapsed < 10.0


def test_criterion_5_spin_tomography():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_sum = 0.0
    worst_neg = 0.0
    for j in (0.5, 1.0, 1.5, 2.0, 2.5):
        dim = int(round(2 * j)) + 1
        rhos = []
        for _ in range(100):
            X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = X @ X.conj().T
            rhos.append(rho / np.trace(rho).real)
        rhos = np.stack(rhos)
        for _ in range(100):
            g = EulerAngles(*rng.uniform(-np.pi, np.pi, 3))
            D = wigner_D(j, g)
            probs = np.einsum("bm,rbc,cm->rm", np.conj(D), rhos, D).real
            worst_sum = max(worst_sum, float(np.abs(probs.sum(axis=1) - 1.0).max()))
            worst_neg = max(worst_neg, float(max(0.0, -probs.min())))
    # fixed-g reconstruction round trip
    worst_rt = 0.0
    for j in (0.5, 1.5, 2.5):
        dim = int(round(2 * j)) + 1
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(20):
            g = EulerAngles(*rng.uniform(-np.pi, np.pi, 3))
            back = spin_reconstruct_at_g(j, g, spin_symbol(j, g, A))
            worst_rt = max(worst_rt, float(np.abs(back - A).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_sum < 1e-12 and worst_neg < 1e-12 and worst_rt < 1e-12 and elapsed < 20.0
    _announce(5, ok, (
        f"sum dev {worst_sum:.1e}, negativity {worst_neg:.1e}, "
        f"round trip {worst_rt:.1e}, {elapsed:.1f}s"
    ))
    assert worst_sum < 1e-12
    assert worst_neg < 1e-12
    assert worst_rt < 1e-12
    assert elapsed < 20.0


def test_criterion_6_photon_number_tomography():
    t0 = time.perf_counter()
    # vacuum tomogram matches the Poisson law for |z| <= 2 at N_t = 64
    rho64 = np.zeros((64, 64), dtype=complex)
    rho64[0, 0] = 1.0
    poisson_dev = 0.0
    for z in (0.5, 1.0, 1.0 + 1.0j, 2.0, 1.2 - 1.1j):
        phi = photon_symbol(64, z, rho64)
        lam = abs(z) ** 2
        for n in range(64):
            want = math.exp(-lam) * lam**n / math.factorial(n) if lam > 0 else float(n == 0)
            poisson_dev = max(poisson_dev, abs(phi[n, n].real - want))
    assert poisson_dev < 1e-8

    # reconstruction of |0><0| and |1><1| from lattice tomograms, s = -0.5
    n_t = 32
    lattice = disk_lattice(4.0, 0.2)
    results = {}
    for level, tol in ((0, 5e-3), (1, 1e-2)):
        rho = np.zeros((n_t, n_t), dtype=complex)
        rho[level, level] = 1.0
        tom = photon_tomogram(rho, lattice, n_max=n_t)
        rec = photon_reconstruct(tom, s=-0.5)
        errs = rec.errors_against(rho)
        results[level] = (errs["frobenius_error"], rec.reliable_dim, tol)
        assert errs["frobenius_error"] < tol, (level, errs)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _announce(6, ok, (
        f"poisson dev {poisson_dev:.1e}; vacuum frob {results[0][0]:.1e} "
        f"(block {results[0][1]}), |1><1| frob {results[1][0]:.1e}, {elapsed:.1f}s"
    ))
    assert elapsed < 120.0


def test_criterion_7_symplectic_tomography():
    t0 = time.perf_counter()
    # smoothed ground-state tomogram vs |phi_0|^2, sup norm on [-3, 3]
    n64 = 64
    rho64 = np.zeros((n64, n64), dtype=complex)
    rho64[0, 0] = 1.0
    tom = symplectic_tomogram(n64, 1.0, 0.0, rho64)
    xs = np.linspace(-3, 3, 601)
    est = smoothed_atom_density(tom, xs)
    ref = smoothed_reference_density(ground_state_position_density, tom, xs)
    density_dev = float(np.abs(est - ref).max())
    assert density_dev < 1e-3

    # homogeneity at the spectral level is exact
    rng = np.random.default_rng(7)
    X = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    rho16 = X @ X.conj().T
    rho16 /= np.trace(rho16).real
    base = symplectic_tomogram(16, 0.6, -0.8, rho16)
    scaled = symplectic_tomogram(16, 1.8, -2.4, rho16)
    assert np.abs(scaled.x - 3.0 * base.x).max() < 1e-10
    assert np.abs(scaled.p - base.p).max() < 1e-10

    # chi(0, 0) = 1 for any density matrix
    chi0 = characteristic_value(symplectic_tomogram(16, 1e-14, 0.0, rho16))
    assert abs(chi0 - 1.0) < 1e-12

    # reconstruction of |0><0| via the spectral reconstruction formula
    n_t = 32
    rho = np.zeros((n_t, n_t), dtype=complex)
    rho[0, 0] = 1.0
    rec = symplectic_reconstruct(n_t, state_tomogram_provider(rho), 6.0, 0.1)
    errs = rec.errors_against(rho)
    assert errs["frobenius_error"] < 1e-3, errs
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _announce(7, ok, (
        f"density dev {density_dev:.1e}, reconstruction frob "
        f"{errs['frobenius_error']:.1e} (block {rec.reliable_dim}), {elapsed:.1f}s"
    ))
    assert elapsed < 120.0


def test_criterion_8_intertwining_identity():
    t0 = time.perf_counter()
    n_t = 24
    rho = np.zeros((n_t, n_t), dtype=complex)
    rho[0, 0] = 1.0
    mu, nu = 0.8, 0.6
    via = quasi_symbol_from_tomograms(
        n_t, state_tomogram_provider(rho), mu, nu, 6.0, 0.1
    )
    # compare the quasi-symbols of the reliable-block projections; beyond
    # that block the (mu', nu') lattice cannot resolve the quantizer
    r = max(1, int(0.375 * n_t))
    P = np.zeros((n_t, n_t))
    P[:r, :r] = np.eye(r)
    V = via.basis
    D = V.conj().T @ quadrature_operator(n_t, mu, nu) @ V
    assert np.abs(D - np.diag(via.x)).max() < 1e-12
    rec_op = V @ via.matrix @ V.conj().T
    lhs = V.conj().T @ (P @ rho @ P) @ V
    rhs = V.conj().T @ (P @ rec_op @ P) @ V
    frob = float(np.linalg.norm(lhs - rhs))
    frob_full = float(np.linalg.norm(rho - rec_op))
    elapsed = time.perf_counter() - t0
    ok = frob < 5e-3 and elapsed < 300.0
    _announce(8, ok, (
        f"projected frob {frob:.1e} (block {r}), unprojected {frob_full:.1e}, {elapsed:.1f}s"
    ))
    assert frob < 5e-3
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 9: axiom fuzzing with an independent pure-python witness oracle
# ---------------------------------------------------------------------------


def _oracle_scan(G):
    """Minimal violation witnesses recomputed by plain nested loops."""
    K = G.order
    units = set(int(u) for u in G.units)
    src = [int(v) for v in G.source]
    tgt = [int(v) for v in G.target]
    inv = [int(v) for v in G.inverse]
    comp = [[int(v) for v in row] for row in G.compose]
    out = {}

    out["maps_into_units"] = next(
        ((g,) for g in range(K) if src[g] not in units or tgt[g] not in units), None
    )
    out["domain"] = next(
        (
            (j, k)
            for j in range(K)
            for k in range(K)
            if (comp[j][k] != UNDEFINED) != (src[j] == tgt[k])
        ),
        None,
    )
    out["a"] = next(
        (
            (j, k)
            for j in range(K)
            for k in range(K)
            if comp[j][k] != UNDEFINED
            and (tgt[comp[j][k]] != tgt[j] or src[comp[j][k]] != src[k])
        ),
        None,
    )
    out["b"] = next(
        ((u,) for u in sorted(units) if src[u] != u or tgt[u] != u), None
    )
    out["c"] = next(
        (
            (g,)
            for g in range(K)
            if comp[tgt[g]][g] != g or comp[g][src[g]] != g
        ),
        None,
    )

    witness = None
    for g1 in range(K):
        if witness:
            break
        for g2 in range(K):
            if witness:
                break
            if comp[g1][g2] == UNDEFINED:
                continue
            p12 = comp[g1][g2]
            for g3 in range(K):
                if comp[p12][g3] == UNDEFINED and comp[g2][g3] == UNDEFINED:
                    continue
                lhs = comp[p12][g3]
                rhs = UNDEFINED
                if comp[g2][g3] != UNDEFINED:
                    p23 = comp[g2][g3]
                    rhs = comp[g1][p23]
                if lhs != rhs:
                    witness = (g1, g2, g3)
                    break
    out["d"] = witness

    out["e"] = next(
        (
            (g,)
            for g in range(K)
            if comp[g][inv[g]] != tgt[g] or comp[inv[g]][g] != src[g]
        ),
        None,
    )
    out["e_left_cancellation"] = next(
        (
            (gp, g)
            for gp in range(K)
            for g in range(K)
            if comp[gp][g] != UNDEFINED and comp[comp[gp][g]][inv[g]] != gp
        ),
        None,
    )
    out["e_right_cancellation"] = next(
        (
            (g, g2)
            for g in range(K)
            for g2 in range(K)
            if comp[g][g2] != UNDEFINED and comp[inv[g]][comp[g][g2]] != g2
        ),
        None,
    )
    out["involution"] = next(
        ((g,) for g in range(K) if inv[inv[g]] != g), None
    )
    return out


def _mutate(G, rng):
    """One random structural mutation; returns a new groupoid."""
    compose = np.array(G.compose)
    source = np.array(G.source)
    target = np.array(G.target)
    inverse = np.array(G.inverse)
    units = set(int(u) for u in G.units)
    K = G.order
    defined = np.argwhere(compose != UNDEFINED)
    undefined = np.argwhere(compose == UNDEFINED)

    choices = ["redirect", "inverse", "source", "target"]
    if len(defined):
        choices.append("undefine")
    if len(undefined):
        choices.append("define")
    if len(units) >= 2:
        choices.append("drop_unit")
    if len(units) < K:
        choices.append("add_unit")
    kind = choices[rng.integers(len(choices))]

    if kind == "redirect":
        j, k = defined[rng.integers(len(defined))]
        old = compose[j, k]
        compose[j, k] = (old + 1 + rng.integers(K - 1)) % K
    elif kind == "undefine":
        j, k = defined[rng.integers(len(defined))]
        compose[j, k] = UNDEFINED
    elif kind == "define":
        j, k = undefined[rng.integers(len(undefined))]
        compose[j, k] = rng.integers(K)
    elif kind == "inverse":
        g = rng.integers(K)
        inverse[g] = (inverse[g] + 1 + rng.integers(K - 1)) % K
    elif kind == "source":
        g = rng.integers(K)
        source[g] = (source[g] + 1 + rng.integers(K - 1)) % K
    elif kind == "target":
        g = rng.integers(K)
        target[g] = (target[g] + 1 + rng.integers(K - 1)) % K
    elif kind == "drop_unit":
        units.discard(int(sorted(units)[rng.integers(len(units))]))
    else:  # add_unit
        non_units = [g for g in range(K) if g not in units]
        units.add(int(non_units[rng.integers(len(non_units))]))

    return FiniteGroupoid(
        order=K,
        units=frozenset(units),
        source=source,
        target=target,
        inverse=inverse,
        compose=compose,
    )


def test_criterion_9_axiom_fuzzing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    bases = [
        pair_groupoid(2),
        pair_groupoid(3),
        pair_groupoid(4),
        group_groupoid(cyclic_group_table(3)),
        group_groupoid(cyclic_group_table(4)),
        transitive_groupoid(2, cyclic_group_table(2)),
    ]
    assert all(b.order <= 16 for b in bases)
    detected = 0
    for trial in range(1000):
        mutant = _mutate(bases[rng.integers(len(bases))], rng)
        report = validate_axioms(mutant)
        oracle = _oracle_scan(mutant)
        assert set(report.entries) == set(oracle)
        for name, want in oracle.items():
            check = report.entries[name]
            assert check.passed == (want is None), (trial, name, check, want)
            if want is not None:
                assert check.witness == want, (trial, name, check.witness, want)
        assert any(w is not None for w in oracle.values()), (
            "mutation produced a valid groupoid", trial
        )
        detected += 1
    elapsed = time.perf_counter() - t0
    ok = detected == 1000 and elapsed < 60.0
    _announce(9, ok, f"{detected}/1000 mutations detected with matching witnesses, {elapsed:.1f}s")
    assert detected == 1000
    assert elapsed < 60.0
