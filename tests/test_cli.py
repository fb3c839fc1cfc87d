import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupoidal
from groupoidal.cli import main
from groupoidal.groupoid import FiniteGroupoid, disjoint_union, pair_groupoid


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


class TestEquiv:
    def test_prop1(self, capsys):
        assert main(["equiv", "prop1", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "star_equals_convolution" in out

    def test_genconv_reports_normalization(self, capsys):
        assert main(["equiv", "genconv", "--units", "2", "--isotropy", "Z2"]) == 0
        assert "normalization constant: 4" in capsys.readouterr().out

    def test_genconv_group(self):
        assert main(["equiv", "genconv", "--group", "Z4"]) == 0

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
        # N_t = 16 floors the reliable-block error near 2e-2 (truncation, not
        # grid); acceptance runs the criterion-scale N_t = 32 configuration
        code = main([
            "tomo", "symplectic", "--state", "vac", "--nt", "16", "--L", "6",
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

    def test_photon_reconstruct_report_sizes_entries_beyond_block(self, tmp_path):
        code = main([
            "tomo", "photon", "--state", "vac", "--nt", "32", "--radius", "3",
            "--spacing", "0.25", "--reconstruct", "--out", str(tmp_path), "--json", "run.json",
        ])
        assert code == 0
        rep = json.loads((tmp_path / "photon_reconstruction.json").read_text())
        run = json.loads((tmp_path / "run.json").read_text())
        check = next(c for c in run["checks"] if c["name"] == "reconstruction_frobenius")
        assert check["max_abs_beyond_reliable"] == rep["max_abs_beyond_reliable"] > 1.0

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

    def test_kernel_size_limit(self, tmp_path):
        assert main(["kernel", "--weyl", "5", "--out", str(tmp_path)]) == 2

    def test_prop1_without_pairs_is_input_error(self, capsys):
        assert main(["equiv", "prop1", "--n", "3", "--pairs", "0"]) == 2
        assert "input error" in capsys.readouterr().err

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

    def test_equiv_genconv_nontransitive_is_input_error(self, tmp_path, capsys):
        G = disjoint_union([pair_groupoid(2), pair_groupoid(2)])
        path = tmp_path / "union.json"
        path.write_text(json.dumps(G.to_dict()))
        assert main(["equiv", "genconv", "--file", str(path)]) == 2
        assert "transitive" in capsys.readouterr().err

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
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, state_files, capsys, argv):
        code = main([*argv.format(dir=state_files).split(), "--out", str(state_files)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error: ") and err.count("\n") == 1

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
