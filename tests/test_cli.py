import csv
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupoidal
from groupoidal import groupoid, realizations, starproduct, tomography
from groupoidal.cli import _write_csv, build_parser, main
from groupoidal.groupoid import FiniteGroupoid, disjoint_union, pair_groupoid
from oracles import traced_peak, write_csv


@pytest.fixture()
def broken_groupoid_file(tmp_path):
    G = pair_groupoid(3)
    data = G.to_dict()
    # redirect one composition entry: (0,1) o (1,2) lands on a unit instead
    for triple in data["compose"]:
        if triple[0] == 1 and triple[1] == 5:
            triple[2] = 4
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    return path


class TestAxioms:
    def test_pair_passes(self, capsys):
        assert main(["axioms", "--pair", "4"]) == 0
        assert "principal=True, transitive=True" in capsys.readouterr().out

    def test_broken_file_fails_with_witness(self, broken_groupoid_file, capsys):
        code = main(["axioms", "--file", str(broken_groupoid_file)])
        out = capsys.readouterr().out
        assert code == 1
        assert "violated" in out and "witness" in out

    def test_group_classification(self, capsys):
        assert main(["axioms", "--group", "Z4"]) == 0
        assert "principal=False, transitive=True" in capsys.readouterr().out

    def test_unreadable_file_is_input_error(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{]")
        assert main(["axioms", "--file", str(bad)]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["axioms", "--file", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize(
        "compose",
        [[[-1, -1, 0]], [[0, 0, 0], [0, 9, 0]], [[0, 0, 0], [0, 0, 0]]],
        ids=["negative_id", "id_beyond_order", "duplicate_pair"],
    )
    def test_malformed_table_is_input_error(self, tmp_path, capsys, compose):
        data = pair_groupoid(1).to_dict()
        data["compose"] = compose
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        assert main(["axioms", "--file", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,values", [("source", [0.9, 3.2, 0, 3]), ("units", [0.5, 3.7])])
    def test_non_integer_map_is_input_error(self, tmp_path, capsys, key, values):
        # truncated, these would load as the valid pair(2)
        data = pair_groupoid(2).to_dict()
        data[key] = values
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(data))
        assert main(["axioms", "--file", str(path)]) == 2
        assert "integer element ids" in capsys.readouterr().err

    def test_fractional_order_is_input_error(self, tmp_path, capsys):
        data = pair_groupoid(2).to_dict()
        data["order"] = 4.9
        path = tmp_path / "fractional_order.json"
        path.write_text(json.dumps(data))
        assert main(["axioms", "--file", str(path)]) == 2
        assert "order must be an integer" in capsys.readouterr().err

    def test_report_json(self, tmp_path, capsys):
        code = main(["axioms", "--pair", "3", "--out", str(tmp_path), "--json", "r.json"])
        assert code == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["schema"] == 1
        assert data["command"] == "axioms"
        assert all("passed" in c for c in data["checks"])

    def test_report_json_in_a_new_subdirectory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["axioms", "--pair", "3", "--out", str(out), "--json", "sub/r.json"]) == 0
        assert json.loads((out / "sub" / "r.json").read_text())["command"] == "axioms"
        assert f"report: {out / 'sub' / 'r.json'}" in capsys.readouterr().out

    def test_report_path_that_cannot_be_made_exits_2_before_any_check(self, tmp_path, capsys):
        (tmp_path / "plain").write_text("")
        code = main(["axioms", "--pair", "3", "--out", str(tmp_path), "--json", "plain/r.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("seed", [5, 6])
    def test_seed_drives_the_sampled_associativity_check(self, tmp_path, monkeypatch, seed):
        # pair(72) has 72^4 = 26.9 M composable triples > 2^24: associativity is sampled
        validate, runs = groupoid.validate_axioms, []

        def spy(G, rng):
            state = rng.bit_generator.state
            report = validate(G, rng=rng)
            runs.append((state, report.entries))
            return report

        monkeypatch.setattr(groupoid, "validate_axioms", spy)
        for _ in range(2):
            assert main(["axioms", "--pair", "72", "--seed", str(seed), "--out", str(tmp_path)]) == 0
        want = validate(pair_groupoid(72), rng=np.random.default_rng(seed)).entries
        assert runs == [(np.random.default_rng(seed).bit_generator.state, want)] * 2
        # whole rows of 72 composable triples until the budget is reached
        budget = groupoid.DEFAULT_ASSOCIATIVITY_SAMPLES
        assert want["d"].sampled and want["d"].checked == 72 * -(-budget // 72)

    def test_sampled_witness_follows_the_seed(self, tmp_path, monkeypatch, broken_groupoid_file):
        # with the limit and the budget under its |G^(3)| = 81 the broken pair(3)
        # table is sampled, so the first violating triple depends on --seed; a
        # 7-pair sample may also miss the redirected product (seed 6 does)
        monkeypatch.setattr(groupoid, "EXHAUSTIVE_TRIPLE_LIMIT", 80)
        monkeypatch.setattr(groupoid, "DEFAULT_ASSOCIATIVITY_SAMPLES", 20)
        G = FiniteGroupoid.load(broken_groupoid_file)
        witnesses = set()
        # no --seed is seed 0, so the default report is unchanged
        for seed, argv in ((0, []), (5, ["--seed", "5"]), (6, ["--seed", "6"])):
            for name in ("a.json", "b.json"):
                assert main(["axioms", "--file", str(broken_groupoid_file), *argv,
                             "--out", str(tmp_path), "--json", name]) == 1
            a, b = (json.loads((tmp_path / n).read_text())["checks"] for n in ("a.json", "b.json"))
            assert a == b
            want = groupoid.validate_axioms(G, rng=np.random.default_rng(seed)).entries["d"]
            assert want.sampled
            d = next(c for c in a if c["name"] == "axiom:d")
            assert d["passed"] == want.passed
            assert d.get("witness") == (want.witness and list(want.witness))
            witnesses.add(want.witness)
        assert len(witnesses) == 3

    def test_report_says_what_each_axiom_checked(self, tmp_path):
        # pair(65) has 65^4 = 17.9 M composable triples > 2^24: associativity is sampled
        assert main(["axioms", "--pair", "65", "--out", str(tmp_path), "--json", "r.json"]) == 0
        checks = json.loads((tmp_path / "r.json").read_text())["checks"]
        want = groupoid.validate_axioms(pair_groupoid(65), rng=np.random.default_rng(0)).entries
        assert [c["name"] for c in checks] == [f"axiom:{name}" for name in want]
        for c in checks:
            check = want[c["name"].removeprefix("axiom:")]
            assert c["checked"] == check.checked > 0
            assert ("sampled" in c) == (c["name"] == "axiom:d")
        d = next(c for c in checks if c["name"] == "axiom:d")
        assert d["sampled"] is True and d["checked"] >= groupoid.DEFAULT_ASSOCIATIVITY_SAMPLES
        assert main(["axioms", "--pair", "4", "--out", str(tmp_path), "--json", "r.json"]) == 0
        checks = json.loads((tmp_path / "r.json").read_text())["checks"]
        d = next(c for c in checks if c["name"] == "axiom:d")
        assert d["sampled"] is False and d["checked"] == 4**4


class TestEquiv:
    def test_prop1(self, capsys):
        assert main(["equiv", "prop1", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "star_equals_convolution" in out

    def test_prop1_reports_kernel_equals_delta(self, tmp_path):
        assert main(["equiv", "prop1", "--n", "3", "--out", str(tmp_path), "--json", "r.json"]) == 0
        checks = json.loads((tmp_path / "r.json").read_text())["checks"]
        assert [c["name"] for c in checks] == ["kernel_is_boolean", "kernel_equals_delta",
                                              "star_equals_convolution", "integer_symbols_exact"]
        assert checks[1]["passed"] and checks[1]["deviation"] == 0.0

    def test_prop1_permuted_kernel_is_boolean_but_not_delta(self, monkeypatch, tmp_path, capsys):
        # a 0/1 kernel with its last axis permuted passes kernel_is_boolean alone
        weyl_kernel = starproduct.kernel
        monkeypatch.setattr(starproduct, "kernel", lambda pair: weyl_kernel(pair)[:, :, ::-1])
        assert main(["equiv", "prop1", "--n", "2", "--out", str(tmp_path), "--json", "r.json"]) == 1
        checks = {c["name"]: c for c in json.loads((tmp_path / "r.json").read_text())["checks"]}
        assert checks["kernel_is_boolean"]["passed"]
        assert not checks["kernel_equals_delta"]["passed"]
        assert checks["kernel_equals_delta"]["deviation"] == 1.0
        assert "[FAIL] kernel_equals_delta" in capsys.readouterr().out

    def test_genconv_reports_normalization(self, capsys):
        assert main(["equiv", "genconv", "--units", "2", "--isotropy", "Z2"]) == 0
        assert "normalization constant: 4" in capsys.readouterr().out

    def test_genconv_group(self):
        assert main(["equiv", "genconv", "--group", "Z4"]) == 0

    def test_genconv_reports_integer_symbols_exact(self, tmp_path):
        # N(g) = 6: the product is divided once by N, so Gaussian integers come back exactly
        argv = ["equiv", "genconv", "--group", "Z6", "--out", str(tmp_path), "--json", "r.json"]
        assert main(argv) == 0
        checks = json.loads((tmp_path / "r.json").read_text())["checks"]
        assert [c["name"] for c in checks] == ["kernel_equals_delta", "star_equals_convolution",
                                              "integer_symbols_exact"]
        assert checks[2]["passed"] and checks[2]["deviation"] == 0.0

    def test_genconv_file_that_is_no_groupoid_keeps_its_report(self, tmp_path):
        # Z2 with a o a = a loads, since equiv does not validate axioms.  e and a
        # both send a to a, so reconstruct must add both terms at (a, a).  The
        # figures are the ones the dense (m, m, m) operator stacks gave.
        data = {"order": 2, "units": [0], "source": [0, 0], "target": [0, 0], "inverse": [0, 1],
                "compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]], "name": "Z2, a o a = a"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["equiv", "genconv", "--file", str(path), "--out", str(tmp_path),
                     "--json", "r.json"]) == 1
        report = json.loads((tmp_path / "r.json").read_text())
        del report["wall_time_s"]
        integer = report["checks"].pop()
        assert integer["name"] == "integer_symbols_exact" and not integer["passed"]
        assert report == {
            "schema": 1, "command": "equiv genconv",
            "parameters": {"order": 2, "name": "Z2, a o a = a", "pairs": 20}, "seed": 0,
            "checks": [
                {"name": "kernel_equals_delta", "passed": False, "deviation": 0.5},
                {"name": "star_equals_convolution", "passed": False,
                 "deviation": 3.222917598125614, "normalization": 2},
            ],
        }

    def test_coherent_counterexample_passes_when_gap_large(self, capsys):
        assert main(["equiv", "coherent", "--grid", "5", "--spacing", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "star_differs_from_convolution" in out


class TestTomo:
    def test_spin_stochastic(self, tmp_path, capsys):
        code = main([
            "tomo", "spin", "--j", "1", "--state", "mixed", "--samples", "10",
            "--out", str(tmp_path),
        ])
        assert code == 0
        rows = list(csv.reader((tmp_path / "spin_tomogram.csv").open()))
        assert rows[0] == ["j", "alpha", "beta", "gamma", "m", "probability"]
        assert len(rows) == 1 + 10 * 3

    def test_photon_single_column_poisson(self, tmp_path):
        code = main([
            "tomo", "photon", "--state", "vac", "--z", "1+0j", "--nt", "64",
            "--out", str(tmp_path),
        ])
        assert code == 0
        rows = list(csv.reader((tmp_path / "photon_tomogram.csv").open()))
        assert rows[0] == ["re_z", "im_z", "n", "P"]
        table = {int(r[2]): float(r[3]) for r in rows[1:]}
        import math

        for n in range(10):
            assert abs(table[n] - np.exp(-1) / math.factorial(n)) < 1e-8

    def test_photon_far_displacement_is_refused_before_any_file(self, tmp_path, capsys):
        # the displaced vacuum leaves the 4 levels entirely: infeasible, not a failed check
        code = main(["tomo", "photon", "--z", "1e200", "--nt", "4", "--out", str(tmp_path),
                     "--json", "r.json"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible parameters: |z|^2 = ") and err.count("\n") == 1
        assert "N_t = 4" in err
        assert not (tmp_path / "photon_tomogram.csv").exists()

    def test_photon_partial_leak_fails_the_check_with_strict_json(self, tmp_path):
        # |z|^2 = 9 keeps a Poisson mass of ~0.021 on the 4 levels: a failed check, not a refusal
        code = main(["tomo", "photon", "--z", "3", "--nt", "4", "--out", str(tmp_path),
                     "--json", "r.json"])
        assert code == 1
        rows = list(csv.reader((tmp_path / "photon_tomogram.csv").open()))
        kept = sum(float(r[3]) for r in rows[1:])
        assert abs(kept - np.exp(-9) * (1 + 9 + 81 / 2 + 729 / 6)) < 1e-12

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse)
        [check] = report["checks"]
        assert check["name"] == "columns_normalized" and not check["passed"]
        assert abs(check["deviation"] - (1 - kept)) < 1e-12

    def test_symplectic_writes_atoms(self, tmp_path):
        code = main([
            "tomo", "symplectic", "--state", "vac", "--nt", "16",
            "--mu", "1.0", "--nu", "0.0", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = list(csv.reader((tmp_path / "symplectic_tomogram.csv").open()))
        assert rows[0] == ["mu", "nu", "x_k", "p_k"]
        assert len(rows) == 17
        weights = np.array([float(r[3]) for r in rows[1:]])
        assert abs(weights.sum() - 1.0) < 1e-12

    def test_symplectic_infeasible_grid(self, tmp_path, capsys):
        code = main([
            "tomo", "symplectic", "--state", "vac", "--nt", "8", "--L", "4",
            "--step", "0.1", "--reconstruct", "--out", str(tmp_path),
        ])
        assert code == 3
        assert "suggested" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["--step 0.5", "--nt 8 --step 1e-3"])
    def test_symplectic_refusal_writes_no_file(self, tmp_path, capsys, grid):
        # a coarse lattice (by the CLI check) or a 12,001^2-point one (by the
        # library's point limit) is refused before the tomogram CSV is written
        t0 = time.perf_counter()
        code = main(["tomo", "symplectic", "--reconstruct", *grid.split(),
                     "--out", str(tmp_path)])
        assert code == 3 and time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.startswith("infeasible parameters: ")
        assert list(tmp_path.iterdir()) == []

    def test_symplectic_window_tail_refused_before_any_file(self, tmp_path, capsys):
        # |chi| of |1> is still 2.1e-3 on the L = 6 edge, above the default --tol 1e-3
        code = main(["tomo", "symplectic", "--reconstruct", "--state", "fock:1",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1
        assert err.startswith("infeasible parameters: boundary tail |chi| = 2.10e-03")
        assert "L=6 " in err and "--tol 0.001" in err
        assert list(tmp_path.iterdir()) == []

    def test_symplectic_wider_window_holds_fock_1(self, tmp_path):
        code = main(["tomo", "symplectic", "--reconstruct", "--state", "fock:1", "--L", "7",
                     "--out", str(tmp_path)])
        assert code == 0

    def test_symplectic_overflowing_direction_is_infeasible(self, tmp_path, capsys):
        # hypot(1e308, 1e308) overflows: refused before the tomogram CSV is written
        code = main(["tomo", "symplectic", "--mu", "1e308", "--nu", "1e308", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1
        assert err.startswith("infeasible parameters: ") and "overflow" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_photon_infeasible_grid(self, tmp_path, capsys):
        code = main([
            "tomo", "photon", "--state", "vac", "--nt", "8", "--radius", "2",
            "--spacing", "0.3", "--reconstruct", "--out", str(tmp_path),
        ])
        assert code == 3
        assert "suggested" in capsys.readouterr().err

    def test_bad_state_is_input_error(self, tmp_path):
        code = main(["tomo", "spin", "--state", "nonsense", "--out", str(tmp_path)])
        assert code == 2

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GROUPOIDAL_OUT", str(tmp_path))
        assert main(["tomo", "spin", "--state", "mixed", "--samples", "2"]) == 0
        assert (tmp_path / "spin_tomogram.csv").exists()

    def test_symplectic_reconstruct_report(self, tmp_path):
        # the spectrum of N_t = 20 holds the L = 6 window under --tol 0.05
        # (tail 5.9e-3; at N_t = 16 it is 9.7e-2 and the run exits 3);
        # acceptance runs the criterion-scale N_t = 32 configuration
        code = main([
            "tomo", "symplectic", "--state", "vac", "--nt", "20", "--L", "6",
            "--step", "0.15", "--reconstruct", "--tol", "0.05",
            "--out", str(tmp_path), "--json", "run.json",
        ])
        assert code == 0
        rep = json.loads((tmp_path / "symplectic_reconstruction.json").read_text())
        for key in ("scheme", "grid", "N_t", "frobenius_error", "trace_error", "seed"):
            assert key in rep
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["schema"] == 1 and run["seed"] == 0
        check = next(c for c in run["checks"] if c["name"] == "reconstruction_frobenius")
        assert check["boundary_tail"] == rep["boundary_tail"]
        assert check["max_abs_beyond_reliable"] == rep["max_abs_beyond_reliable"]

    def test_photon_reconstruct_report_sizes_entries_beyond_block(self, tmp_path, monkeypatch):
        # a photon result holds only the resolvable block, so nothing lies beyond it
        recs, reconstruct = [], tomography.photon_reconstruct
        monkeypatch.setattr(tomography, "photon_reconstruct",
                            lambda *a, **kw: recs.append(reconstruct(*a, **kw)) or recs[-1])
        code = main([
            "tomo", "photon", "--state", "vac", "--nt", "32", "--radius", "3",
            "--spacing", "0.25", "--reconstruct", "--out", str(tmp_path), "--json", "run.json",
        ])
        assert code == 0
        rep = json.loads((tmp_path / "photon_reconstruction.json").read_text())
        run = json.loads((tmp_path / "run.json").read_text())
        check = next(c for c in run["checks"] if c["name"] == "reconstruction_frobenius")
        assert check["max_abs_beyond_reliable"] == rep["max_abs_beyond_reliable"] == 0.0
        assert rep["frobenius_error_full"] == rep["frobenius_error"]
        assert recs[0].operator.shape == (rep["reliable_dim"],) * 2

    def test_symplectic_reconstruct_makes_one_eigendecomposition(self, tmp_path, monkeypatch):
        # the provider's quadrature frame serves the one-direction CSV and the reconstruction
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
        code = main(["tomo", "symplectic", "--reconstruct", "--state", "vac",
                     "--out", str(tmp_path)])
        assert code == 0 and calls == [(32, 32)]

    def test_spin_workload_memory(self, tmp_path):
        # the benchmark's photon-workload spin run: the (500, 21, 21) rotation stack
        # is 3.5 MB, so a peak under 6 MB holds only a few 1 MB rotation blocks
        argv = ["tomo", "spin", "--j", "10", "--state", "mixed", "--samples", "500",
                "--reconstruct", "--out", str(tmp_path)]
        code, peak = traced_peak(main, argv)
        assert code == 0 and peak < 6e6

    @pytest.mark.parametrize("j", ["20", "60"])
    def test_spin_large_j(self, tmp_path, j):
        code = main([
            "tomo", "spin", "--j", j, "--state", "mixed", "--reconstruct",
            "--out", str(tmp_path), "--json", "run.json",
        ])
        assert code == 0
        rows = list(csv.reader((tmp_path / "spin_tomogram.csv").open()))
        assert len(rows) == 1 + 100 * (2 * int(j) + 1)


class TestKernelRoundtrip:
    def test_kernel_export(self, tmp_path):
        assert main(["kernel", "--weyl", "3", "--out", str(tmp_path)]) == 0
        rows = list(csv.reader((tmp_path / "kernel_weyl3.csv").open()))
        assert len(rows) == 1 + 9**3

    def test_kernel_group_z6_is_exact(self, tmp_path):
        # N = 6: against U's rounded 1/6 the ones would read 0.9999999999999999
        assert main(["kernel", "--group", "Z6", "--out", str(tmp_path)]) == 0
        rows = list(csv.reader((tmp_path / "kernel_dreal6.csv").open()))[1:]
        ones = [r for r in rows if r[3] != "0.0"]
        assert len(rows) == 6**3 and len(ones) == 36
        assert all(r[3] == "1.0" and r[4] == "0.0" for r in ones)
        assert {tuple(map(int, r[:3])) for r in ones} == {(j, k, (j + k) % 6)
                                                         for j in range(6) for k in range(6)}

    def test_kernel_file_with_rows_of_width_2_and_7(self, tmp_path):
        z7 = groupoid.group_groupoid(groupoid.cyclic_group_table(7))
        path = tmp_path / "union.json"
        path.write_text(json.dumps(disjoint_union([pair_groupoid(2), z7]).to_dict()))
        assert main(["kernel", "--file", str(path), "--out", str(tmp_path)]) == 0
        rows = list(csv.reader((tmp_path / "kernel_dreal11.csv").open()))[1:]
        assert len(rows) == 11**3
        assert {r[3] for r in rows} == {"0.0", "1.0"} and {r[4] for r in rows} == {"0.0"}
        assert sum(r[3] == "1.0" for r in rows) == 2**3 + 7**2

    def test_kernel_size_limit(self, tmp_path, capsys):
        assert main(["kernel", "--weyl", "5", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("infeasible parameters: kernel CSV export")

    def test_prop1_without_pairs_is_input_error(self, capsys):
        assert main(["equiv", "prop1", "--n", "3", "--pairs", "0"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_genconv_without_pairs_is_input_error(self, capsys):
        assert main(["equiv", "genconv", "--pair", "2", "--pairs", "0"]) == 2
        assert "n_pairs >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,pairs,verify",
        [
            (["prop1", "--n", "3"], 100, lambda p: starproduct.verify_prop1(3, n_pairs=p, seed=5)),
            (["prop1", "--n", "2", "--pairs", "7"], 7,
             lambda p: starproduct.verify_prop1(2, n_pairs=p, seed=5)),
            (["genconv", "--pair", "3"], 20,
             lambda p: starproduct.verify_gen_conv(pair_groupoid(3), n_pairs=p, seed=5)),
            (["genconv", "--pair", "2", "--pairs", "3"], 3,
             lambda p: starproduct.verify_gen_conv(pair_groupoid(2), n_pairs=p, seed=5)),
        ],
        ids=["prop1_default", "prop1_pairs", "genconv_default", "genconv_pairs"],
    )
    def test_cli_checks_agree_with_report(self, tmp_path, argv, pairs, verify):
        assert main(["equiv", *argv, "--seed", "5", "--out", str(tmp_path), "--json", "r.json"]) == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["parameters"]["pairs"] == pairs
        rep = verify(pairs)
        assert rep.passed == all(c["passed"] for c in data["checks"])
        star_check = next(c for c in data["checks"] if c["name"] == "star_equals_convolution")
        assert star_check["deviation"] == rep.max_dev

    @pytest.mark.parametrize(
        "argv",
        [["prop1", "--n", "9"], ["genconv", "--pair", "9"], ["coherent", "--grid", "20"]],
        ids=["prop1", "genconv", "coherent"],
    )
    def test_equiv_beyond_size_limits_is_infeasible(self, argv, capsys):
        assert main(["equiv", *argv]) == 3
        assert "infeasible parameters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["prop1", "--n", "0"], ["coherent", "--grid", "0"]], ids=["prop1", "coherent"]
    )
    def test_equiv_empty_input_is_input_error(self, argv, capsys):
        assert main(["equiv", *argv]) == 2
        assert "input error" in capsys.readouterr().err

    def test_equiv_genconv_checks_a_nontransitive_union(self, tmp_path, capsys):
        z2, z3 = groupoid.cyclic_group_table(2), groupoid.cyclic_group_table(3)
        G = disjoint_union([pair_groupoid(2), groupoid.group_groupoid(z3),
                            groupoid.transitive_groupoid(2, z2)])
        path = tmp_path / "union.json"
        path.write_text(json.dumps(G.to_dict()))
        assert main(["equiv", "genconv", "--file", str(path), "--out", str(tmp_path),
                     "--json", "r.json"]) == 0
        assert "normalization constant: 2, 3, 4" in capsys.readouterr().out
        checks = json.loads((tmp_path / "r.json").read_text())["checks"]
        assert checks[0]["name"] == "kernel_equals_delta" and checks[0]["deviation"] == 0.0
        assert checks[1]["normalization"] == [2, 3, 4]

    @pytest.mark.parametrize("command", [["equiv", "genconv"], ["kernel"]])
    def test_empty_composition_row_is_input_error(self, tmp_path, capsys, command):
        data = pair_groupoid(3).to_dict()
        data["compose"] = [t for t in data["compose"] if t[0] != 1]
        path = tmp_path / "empty_row.json"
        path.write_text(json.dumps(data))
        assert main([*command, "--file", str(path), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: element 1 composes with no element")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_roundtrip(self, tmp_path):
        code = main([
            "roundtrip", "--nt", "12", "--points", "384", "--out", str(tmp_path),
        ])
        assert code == 0

    def test_roundtrip_infeasible_grid(self, tmp_path, capsys):
        code = main([
            "roundtrip", "--nt", "24", "--xmax", "4", "--out", str(tmp_path),
        ])
        assert code == 3


class TestStarWorkloadMemory:
    """The benchmark's star-workload runs build each large array once."""

    @pytest.mark.parametrize("argv,bound", [
        # one (64, 64, 64) complex kernel is 4.2 MB; the checks reduce it one slice at a time
        (["equiv", "prop1", "--n", "8"], 7e6),
        # the 625-point pair's (625, 64) vector stacks, then 1 MiB blocks of the duality overlap
        (["equiv", "coherent", "--grid", "5", "--spacing", "0.5"], 6e6),
        # three 512 x 512 complex grid arrays (f, g and their product), 4 MiB each, plus one
        # 1 MiB row block of the product and a block's slack: 14 MiB
        (["roundtrip", "--nt", "16", "--xmax", "8", "--points", "512"], 3 * 2**22 + 2 * 2**20),
    ], ids=["prop1", "coherent", "roundtrip"])
    def test_star_workload_memory(self, tmp_path, argv, bound):
        code, peak = traced_peak(main, argv + ["--out", str(tmp_path)])
        assert code == 0 and peak < bound


class TestExitCodes:
    """main alone maps errors to exit codes: 2 for bad input, 3 for infeasible parameters."""

    @pytest.fixture()
    def state_files(self, tmp_path):
        (tmp_path / "empty.json").write_text("{}")
        (tmp_path / "list.json").write_text("[]")
        return tmp_path

    @pytest.mark.parametrize(
        "argv",
        [
            "kernel --weyl -3",
            "roundtrip --xmax -8",
            "roundtrip --points 0",
            "roundtrip --points 1",
            "roundtrip --nt 0",
            "tomo photon --nt 0",
            "tomo symplectic --nt 0",
            "equiv coherent --nt 0",
            "tomo photon --spacing 0 --reconstruct",
            "tomo symplectic --nt 4 --L inf --reconstruct",
            "tomo symplectic --state file:{dir}/empty.json",
            "tomo symplectic --state file:{dir}/list.json",
            "axioms --file {dir}/empty.json",
            "axioms --file {dir}/list.json",
            "tomo spin --j inf",
            "tomo photon --z nan",
            "tomo photon --state coherent:inf",
            "tomo symplectic --mu nan",
            "roundtrip --xmax inf",
            "roundtrip --xmax nan",
            "equiv coherent --spacing nan",
            "equiv coherent --spacing inf",
            # options a subcommand does not take
            "tomo spin --tol 0",
            "tomo spin --nt 5",
            "tomo symplectic --radius 3",
            "tomo photon --L 3",
            # options only --reconstruct reads, and --z, which it excludes
            "tomo photon --s 0.9 --radius 1 --tol 0",
            "tomo photon --tol 5e-3",
            "tomo photon --z 1+1j --reconstruct",
            "tomo symplectic --L 1 --step 5 --tol 0",
            "tomo symplectic --step 0.1",
            # a tolerance no error can fall below
            "tomo symplectic --reconstruct --tol -1",
            "roundtrip --tol -1",
            "tomo photon --reconstruct --tol 0",
            "equiv prop1 --pair 8",
            "equiv prop1 --units 2 --isotropy Z2",
            "equiv coherent --pairs 0",
            "kernel --weyl 3 --pair 2",
            "kernel --weyl 3 --isotropy Z2",
            "axioms --pair 3 --isotropy Z2",
            "kernel --weyl 0",
            "roundtrip --Nt 16",
            # a parse error is one line too, not usage text
            "tomo photon --nt x",
            "axioms",
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, state_files, capsys, argv):
        code = main([*argv.format(dir=state_files).split(), "--out", str(state_files)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("scheme", ["spin --j 0.5", "photon --nt 2", "symplectic --nt 2"])
    def test_non_hermitian_file_state_is_refused(self, tmp_path, capsys, scheme):
        # one 1e-9 entry off the diagonal, above the 1e-10 tolerance, refused
        # before any scheme reads the state
        (tmp_path / "rho.json").write_text(json.dumps(
            {"dim": 2, "entries": [[1, 0], [1e-9, 0], [0, 0], [0, 0]]}))
        code = main(["tomo", *scheme.split(), "--state", f"file:{tmp_path}/rho.json",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error: ") and "not a Hermitian operator" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("scheme, run_dim, file_dim", [
        ("spin --j 1 --reconstruct", 3, 8),
        ("photon --nt 32 --reconstruct", 32, 8),
        ("symplectic --nt 32 --reconstruct", 32, 8),
        ("photon --nt 32", 32, 40),
        ("symplectic --nt 32", 32, 40),
    ])
    def test_file_state_of_another_dimension_is_refused(self, tmp_path, capsys, scheme,
                                                        run_dim, file_dim):
        # the file fixes the dimension: a fock:1 state on file_dim levels against the run's
        rho = np.zeros((file_dim, file_dim))
        rho[1, 1] = 1.0
        (tmp_path / "rho.json").write_text(json.dumps(
            {"dim": file_dim, "entries": [[x, 0.0] for x in rho.reshape(-1).tolist()]}))
        code = main(["tomo", *scheme.split(), "--state", f"file:{tmp_path}/rho.json",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert f"dimension {file_dim}," in err and f"is {run_dim} " in err
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*_reconstruction.json"))

    def test_readme_cli_commands_parse(self):
        """Every ``groupoidal ...`` command in README's shell blocks parses."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
        commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("groupoidal ")]
        assert len(commands) >= 10
        for line in commands:
            try:
                build_parser().parse_args(shlex.split(line, comments=True)[1:])
            except ValueError as exc:
                pytest.fail(f"{line}: {exc}")

    def test_module_entry_point_prints_no_traceback(self, tmp_path):
        src = str(Path(groupoidal.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "groupoidal.cli", "roundtrip", "--points", "1",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == "input error: a trapezoid grid needs at least 2 points (got 1)\n"

    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(groupoidal.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = "import sys, groupoidal.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_negative_fock_index_no_longer_wraps(self, tmp_path, capsys):
        assert main(["tomo", "photon", "--nt", "4", "--state", "fock:3", "--out", str(tmp_path)]) == 0
        assert main(["tomo", "photon", "--nt", "4", "--state", "fock:-1", "--out", str(tmp_path)]) == 2
        assert "fock index -1 outside 0..3" in capsys.readouterr().err

    def test_spin_without_samples_checks_nothing_so_is_refused(self, tmp_path, capsys):
        assert main(["tomo", "spin", "--samples", "0", "--out", str(tmp_path)]) == 2
        assert "--samples must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "spin_tomogram.csv").exists()

    def test_photon_weight_overflow_is_infeasible(self, tmp_path, capsys):
        code = main([
            "tomo", "photon", "--s", "-0.9999999999999", "--reconstruct", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("infeasible parameters: ") and "n_max <= 22" in err
        assert list(tmp_path.iterdir()) == []

    def test_photon_ordering_outside_domain_is_refused_before_the_tomogram(self, tmp_path, capsys):
        code = main(["tomo", "photon", "--s", "0.5", "--reconstruct", "--out", str(tmp_path)])
        assert code == 2
        assert "needs s in (-1, 0]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, what",
        [
            ("tomo spin --j 1e6 --samples 1", "rotation matrix"),
            ("tomo spin --j 1e300 --samples 1", "probability table"),
            ("tomo photon --nt 100000", "density matrix"),
            ("axioms --pair 182", "composition table"),
            ("axioms --pair 300", "composition table"),
            ("axioms --file {dir}/huge.json", "composition table"),
            ("axioms --group Z100000", "cyclic group table"),
            ("tomo photon --reconstruct --radius 1e6", "coherent lattice"),
            ("tomo symplectic --reconstruct --step 1e-9", "reconstruction grid"),
        ],
    )
    def test_sizes_beyond_the_dense_limit_are_infeasible(self, tmp_path, capsys, argv, what):
        data = {"order": 100_000, "units": [], "source": [], "target": [], "inverse": [],
                "compose": []}
        (tmp_path / "huge.json").write_text(json.dumps(data))
        code = main([*argv.format(dir=tmp_path).split(), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1
        if what == "reconstruction grid":  # refused by its work, not by its bytes
            assert err.startswith(f"infeasible parameters: {what} of 144,000,000,024,000,000,001 "
                                  "points exceeds the 1,048,576-point limit; use a coarser step")
        else:
            assert err.startswith(f"infeasible parameters: {what} of shape")
            assert "GiB limit" in err


    @pytest.mark.parametrize("j", ["1e6", "1e300"])
    def test_spin_refusal_writes_no_file(self, tmp_path, capsys, j):
        out = tmp_path / "out"
        argv = ["tomo", "spin", "--j", j, "--samples", "1", "--out", str(out), "--json", "r.json"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("infeasible parameters: ")
        assert list(out.rglob("*")) == []

    def test_spin_admits_what_the_tomogram_holds(self, tmp_path, monkeypatch):
        # j = 300 and 2000 samples: the whole rotation batch would be 10.8 GiB, but
        # spin_tomogram holds a 9.6 MB probability table and one 5.8 MB rotation
        class Admitted(Exception):
            pass

        def admitted(j, g, rho):
            raise Admitted

        monkeypatch.setattr(tomography, "spin_tomogram", admitted)
        with pytest.raises(Admitted):
            main(["tomo", "spin", "--j", "300", "--samples", "2000", "--out", str(tmp_path)])


class TestDeterminism:
    def test_same_seed_reproduces_report(self, tmp_path):
        for name in ("a.json", "b.json"):
            main([
                "tomo", "spin", "--state", "mixed", "--samples", "5",
                "--seed", "7", "--out", str(tmp_path), "--json", name,
            ])
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert a["checks"] == b["checks"]


class TestKernelGenconv:
    def test_regular_realization_kernel_export(self, tmp_path):
        code = main([
            "kernel", "--units", "2", "--isotropy", "Z2", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "kernel_dreal8.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 8**3


def _spin_columns(j: float, samples: int, seed: int) -> tuple:
    """``tomo spin --j J --samples S --seed SEED`` of the vacuum, as the row-by-row columns."""
    dim = int(round(2 * j)) + 1
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    angles = np.random.default_rng(seed).uniform(-np.pi, np.pi, (samples, 3))
    probs = tomography.spin_tomogram(j, tomography.EulerAngles(*angles.T), rho)
    return (["j", "alpha", "beta", "gamma", "m", "probability"], itertools.repeat(j),
            *np.repeat(angles, dim, axis=0).T, np.tile(np.arange(dim) - j, samples), probs)


def _photon_columns(lattice, state_z, n_t: int) -> tuple:
    """The photon CSV of the coherent state |state_z> on ``lattice``, row by row."""
    v = realizations.coherent_state_vector(n_t, state_z)
    tom = tomography.photon_tomogram(np.outer(v, v.conj()), lattice, n_max=n_t)
    z = np.repeat(lattice.z_points, tom.n_max)
    return (["re_z", "im_z", "n", "P"], z.real, z.imag, itertools.cycle(range(tom.n_max)),
            tom.table.T)


def _symplectic_columns(n_t: int, mu: float, nu: float) -> tuple:
    rho = np.zeros((n_t, n_t), dtype=complex)
    rho[0, 0] = 1.0
    tom = tomography.state_tomogram_provider(rho)(mu, nu)
    return (["mu", "nu", "x_k", "p_k"], itertools.repeat(mu), itertools.repeat(nu),
            tom.x, tom.p)


def _kernel_columns(K: np.ndarray) -> tuple:
    return (["x1", "x2", "x", "re", "im"], *np.indices(K.shape), K.real, K.imag)


def _roundtrip_columns(n_t: int, xmax: float, points: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    grid = realizations.position_grid(-xmax, xmax, points)
    F = rng.standard_normal((n_t, n_t)) + 1j * rng.standard_normal((n_t, n_t))
    f = realizations.fock_to_position_symbol(F, grid)
    return (["x", "y", "re", "im"], np.repeat(grid.points, points), np.tile(grid.points, points),
            f.real, f.imag)


# label: (argv, exit code, CSV file, the columns csv.writer writes row by row)
CSV_RUNS = {
    "spin_integer_j": ("tomo spin --j 10 --samples 40 --seed 3", 0, "spin_tomogram.csv",
                       lambda: _spin_columns(10.0, 40, 3)),
    "spin_half_integer_j": ("tomo spin --j 2.5 --samples 25 --seed 5", 0, "spin_tomogram.csv",
                            lambda: _spin_columns(2.5, 25, 5)),
    # columns_normalized fails at the lattice edge, where the Fock truncation leaks
    "photon_lattice": (
        "tomo photon --reconstruct --state coherent:0.3-0.2j", 1, "photon_tomogram.csv",
        lambda: _photon_columns(realizations.disk_lattice(4.0, 0.2), 0.3 - 0.2j, 32)),
    "photon_z": (
        "tomo photon --z 0.5-0.25j --nt 16 --state coherent:0.1+0.4j", 0, "photon_tomogram.csv",
        lambda: _photon_columns(realizations.CoherentGrid(np.array([0.5 - 0.25j]), 0.04),
                                0.1 + 0.4j, 16)),
    "symplectic": ("tomo symplectic --nt 16 --mu 0.3 --nu -1.7", 0, "symplectic_tomogram.csv",
                   lambda: _symplectic_columns(16, 0.3, -1.7)),
    "kernel_weyl3": ("kernel --weyl 3", 0, "kernel_weyl3.csv",
                     lambda: _kernel_columns(starproduct.kernel(starproduct.weyl_qdpair(3)))),
    "kernel_units2_z2": (
        "kernel --units 2 --isotropy Z2", 0, "kernel_dreal8.csv",
        lambda: _kernel_columns(starproduct.d_realization_kernel(
            groupoid.transitive_groupoid(2, groupoid.cyclic_group_table(2))))),
    # 16 points are too few for the round trip to pass; the symbol is written all the same
    "roundtrip_csv": ("roundtrip --points 16 --csv grid.csv", 1, "grid.csv",
                      lambda: _roundtrip_columns(16, 8.0, 16, 0)),
}

_FLOAT_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 1e-4, 0.1, 1 / 3,
                float("inf"), float("-inf"), float("nan"), 1.7976931348623157e308]
_CELLS = {
    np.float64: st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats()),
    np.int64: st.one_of(st.sampled_from([0, -1, 2**53 + 1, -(2**63), 2**63 - 1]),
                        st.integers(-(2**63), 2**63 - 1)),
}


@st.composite
def _column(draw, length: int):
    """A float64 or int64 column, as a Python list or a numpy array."""
    dtype = draw(st.sampled_from(list(_CELLS)))
    values = draw(st.lists(_CELLS[dtype], min_size=length, max_size=length))
    return np.array(values, dtype=dtype) if draw(st.booleans()) else values


class TestCsvBytes:
    """Every CSV the CLI writes is byte for byte the row-by-row ``csv.writer`` table."""

    @pytest.mark.parametrize("argv,code,name,columns", list(CSV_RUNS.values()), ids=list(CSV_RUNS))
    def test_cli_csv_matches_csv_writer(self, tmp_path, argv, code, name, columns):
        out = tmp_path / "out"
        assert main([*argv.split(), "--out", str(out)]) == code
        write_csv(tmp_path / "oracle.csv", *columns())
        assert (out / name).read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), groups=st.integers(0, 4), per_group=st.integers(1, 4),
           n_prefix=st.integers(1, 3), n_rows=st.integers(1, 3))
    def test_block_writer_matches_csv_writer(self, tmp_path_factory, data, groups, per_group,
                                             n_prefix, n_rows):
        prefix = [data.draw(_column(groups)) for _ in range(n_prefix)]
        rows = [data.draw(_column(groups * per_group)) for _ in range(n_rows)]
        header = [f"c{i}" for i in range(n_prefix + n_rows)]
        tmp = tmp_path_factory.mktemp("csv")
        _write_csv(tmp / "block.csv", header, prefix, rows)
        write_csv(tmp / "oracle.csv", header,
                  *(np.repeat(np.array(c, dtype=object), per_group) for c in prefix), *rows)
        assert (tmp / "block.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()


class TestParserOnce:
    """The parser is built once per process; each run still reads as in a fresh process."""

    # the last photon run would exit 2 if the refused --s had left a default behind
    RUNS = [("tomo photon --s -0.5 --reconstruct", 0),
            ("tomo photon --s -0.5", 2),
            ("tomo photon --nt 8", 0),
            ("axioms --pair 3", 0)]

    def test_runs_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        src = str(Path(groupoidal.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for i, (argv, code) in enumerate(self.RUNS):
            args = [*argv.split(), "--out", ".", "--json", "r.json"]
            fresh, same = tmp_path / f"fresh{i}", tmp_path / f"same{i}"
            fresh.mkdir()
            same.mkdir()
            proc = subprocess.run([sys.executable, "-m", "groupoidal.cli", *args], cwd=fresh,
                                  capture_output=True, text=True, env=env, timeout=120)
            monkeypatch.chdir(same)
            assert main(args) == proc.returncode == code, argv
            assert capsys.readouterr() == (proc.stdout, proc.stderr), argv
            reports = [d / "r.json" for d in (fresh, same)]
            assert [p.exists() for p in reports] == [code == 0] * 2
            if code == 0:
                fresh_report, same_report = (json.loads(p.read_text()) for p in reports)
                for r in (fresh_report, same_report):
                    del r["wall_time_s"]
                assert same_report == fresh_report, argv
        assert build_parser.cache_info().misses <= 1
