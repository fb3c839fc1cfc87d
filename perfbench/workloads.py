"""Seeded workloads of the groupoidal benchmark.

A workload is a list of ``groupoidal`` CLI runs.  Each run is an argv for
``groupoidal.cli.main`` plus what the benchmark expects back from it.  The
argv and every generated input file depend only on the workload name, the
seed and the directory the inputs are written to.  The groupoid JSON files
are built here with numpy alone, so the inputs stay byte-identical whatever
the library under test does.

Run as a script, this module is the set-up probe: it imports
``groupoidal.cli``, generates one workload's inputs and prints the seconds
that took, then the median time of ``speed.probe()`` right after it.
``python3 perfbench/workloads.py <src> <workload> <seed> <dir>``
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("symplectic", "photon", "star", "axioms")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# the one documented defect that may fail a check inside the op mix
PHOTON_NORMALISATION = frozenset({"columns_normalized"})


@dataclass(frozen=True)
class Run:
    """One CLI invocation and the verdict the benchmark expects from it.

    ``expect_exit`` 1 marks a run whose input is built to be rejected.
    ``known_fail`` names checks a documented defect may fail on a run that
    is otherwise expected to pass (exit 1 is then accepted, and the failed
    checks still count in ``check_fail_frac``).  ``recon`` is the
    reconstruction JSON the run writes into its output directory.
    """

    label: str
    argv: tuple
    expect_exit: int = 0
    known_fail: frozenset = frozenset()
    recon: str | None = None
    bad_table: str | None = None


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _state(rng: np.random.Generator, max_abs: float) -> str:
    """``vac`` one time in four, else a coherent state with 0 < |z| <= max_abs."""
    if rng.random() < 0.25:
        return "vac"
    r = max_abs * (1.0 - rng.random())
    z = r * np.exp(2j * np.pi * rng.random())
    return f"coherent:{z.real:.4f}{z.imag:+.4f}j"


def transitive_z4_dict(n_units: int, perm: np.ndarray) -> dict:
    """``transitive_groupoid(n_units, Z4)`` in the library's JSON layout.

    Element (u, v, h) has id ``perm[(u * n_units + v) * 4 + h]``; the compose
    list is sorted by the permuted (j, k) ids.
    """
    m = 4
    order = n_units * n_units * m
    ids = np.arange(order)
    uv, h = np.divmod(ids, m)
    u, v = np.divmod(uv, n_units)

    def idx(a, b, c):
        return perm[(a * n_units + b) * m + c]

    # j = (u, v, h) composes with k = (v, w, h2) for every w and h2
    w = np.arange(n_units)[:, None]
    h2 = np.arange(m)[None, :]
    j = np.repeat(ids, n_units * m)
    k = idx(v[:, None, None], w[None], h2[None]).reshape(-1)
    i = idx(u[:, None, None], w[None], (h[:, None, None] + h2[None]) % m).reshape(-1)
    triples = np.column_stack([perm[j], k, i])
    triples = triples[np.lexsort((triples[:, 1], triples[:, 0]))]
    units = idx(np.arange(n_units), np.arange(n_units), 0)
    old_id = np.argsort(perm)  # reorders per-old-id arrays by new id
    return {
        "order": int(order),
        "units": sorted(int(x) for x in units),
        "source": idx(v, v, 0)[old_id].tolist(),
        "target": idx(u, u, 0)[old_id].tolist(),
        "inverse": idx(v, u, (-h) % m)[old_id].tolist(),
        "compose": triples.tolist(),
        "name": f"transitive({n_units},Z4)",
    }


def corrupt(table: dict, rng: np.random.Generator) -> dict:
    """Copy of ``table`` with one product replaced by another element that has
    the same source and target, so only the composition law breaks."""
    bad = json.loads(json.dumps(table))
    pos = int(rng.integers(len(bad["compose"])))
    old = bad["compose"][pos][2]
    source, target = table["source"], table["target"]
    same = [g for g in range(table["order"])
            if g != old and source[g] == source[old] and target[g] == target[old]]
    bad["compose"][pos][2] = same[int(rng.integers(len(same)))]
    return bad


def _common(label: str, seed: int, out: Path) -> tuple:
    return ("--seed", str(seed), "--json", f"{label}.json", "--out", str(out / label))


def prepare(workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's input files under ``workdir`` and return its runs.

    Run outputs go to ``workdir/out/<label>``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out"
    rng = _rng(workload, seed)

    def run(label, args, **kw):
        return Run(label, tuple(args.split()) + _common(label, seed, out), **kw)

    if workload == "symplectic":
        state = _state(rng, 0.8)
        return [run("symplectic",
                    f"tomo symplectic --nt 32 --L 6 --step 0.1 --reconstruct --state {state}",
                    recon="symplectic_reconstruction.json")]
    if workload == "photon":
        state = _state(rng, 0.3)
        return [
            run("photon",
                "tomo photon --nt 32 --radius 4 --spacing 0.2 --s -0.5 --reconstruct "
                f"--state {state}",
                known_fail=PHOTON_NORMALISATION if state != "vac" else frozenset(),
                recon="photon_reconstruction.json"),
            run("spin", "tomo spin --j 10 --state mixed --samples 500 --reconstruct"),
        ]
    if workload == "star":
        return [
            run("prop1_n8", "equiv prop1 --n 8"),
            run("genconv_pair8", "equiv genconv --pair 8"),
            run("genconv_u4z2", "equiv genconv --units 4 --isotropy Z2"),
            run("genconv_u2z2", "equiv genconv --units 2 --isotropy Z2"),
            run("coherent_g5", "equiv coherent --grid 5 --spacing 0.5"),
            run("kernel_weyl4", "kernel --weyl 4"),
            run("kernel_u2z2", "kernel --units 2 --isotropy Z2"),
            run("roundtrip_nt16", "roundtrip --nt 16 --xmax 8 --points 512"),
        ]
    ok = transitive_z4_dict(16, rng.permutation(16 * 16 * 4))
    bad = corrupt(ok, rng)
    ok_path, bad_path = workdir / "OK.json", workdir / "BAD.json"
    ok_path.write_text(json.dumps(ok))
    bad_path.write_text(json.dumps(bad))
    return [
        run("pair32", "axioms --pair 32"),
        run("ok_file", f"axioms --file {ok_path}"),
        run("bad_file", f"axioms --file {bad_path}", expect_exit=1,
            bad_table=str(bad_path)),
        run("pair72", "axioms --pair 72"),
    ]


def _probe(argv: list) -> None:
    src, workload, seed, workdir = argv
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import groupoidal.cli  # noqa: F401  (the import is what is timed)

    prepare(workload, int(seed), Path(workdir))
    seconds = time.perf_counter() - t0
    import speed

    probes = sorted(speed.probe() for _ in range(21))
    print(repr(seconds), repr(probes[10]))


if __name__ == "__main__":
    _probe(sys.argv[1:])
