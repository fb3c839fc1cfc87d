"""Every public name in ``src/groupoidal`` is either used by the library or kept on purpose.

The scan collects the module-level functions, classes and constants whose
name does not start with ``_`` and that no ``src`` code spells as a name or
an attribute.  That set must equal ``KEPT``, where each entry says which
paper claim or test oracle keeps it.  A new helper that only the tests call
belongs in ``tests/oracles.py``; adding it to ``src`` fails here.  In turn,
every public function of ``tests/oracles.py`` must be used by a test module,
so dense reference code cannot linger there unused.
"""

import ast
from pathlib import Path

import groupoidal

KEPT = {
    # paper claims checked on explicit instances
    "delta": "the delta basis that spans the convolution algebra",
    "weyl_units": "the Weyl matrix units E_ik behind Proposition 1",
    "normalization_constant": "criterion 2: the closed form against the trace of the regular "
                              "realization (the by-design failing test)",
    "matrix_group_convolve": "matrices of group-algebra entries, the transitive-groupoid product",
    "action_groupoid": "action groupoids, a non-transitive family the equivalence check admits",
    "disjoint_union": "disjoint unions, the non-transitive groupoids the equivalence check admits",
    "connecting_coset": "the coset joining two units of a transitive groupoid",
    "spin_weyl_pair": "the spin realization of the pair groupoid",
    "two_mode_weyl_pair": "the two-mode realization of a product pair groupoid",
    "spin_block_pair": "the immersion of a disjoint union of spin pair groupoids",
    "position_qdpair": "the position-grid pair of the continuous pair groupoid",
    "intertwining_kernel": "the kernel that carries symplectic tomograms to quasi-symbols",
    "quasi_symbol_from_tomograms": "the symplectic quasi-symbol rebuilt from tomograms",
    "displaced_parity": "the s-ordered displaced parity, the photon quantizer",
    # kept oracles: residuals and closed forms the tests compare against
    "associativity_residual": "associativity of a star-product kernel",
    "resolution_residual": "resolution of the identity by a quantizer family",
    "unitarity_defect": "unitarity of the truncated rotation and displacement operators",
    "hermite_function": "one oscillator eigenfunction, against the batched recurrence",
}


def _public_names(paths) -> tuple:
    """(public module-level names defined, names spelled as a name or an attribute)."""
    defined, referenced = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {name for name in defined if not name.startswith("_")}, referenced


def test_every_unreferenced_public_name_is_kept_on_purpose():
    defined, referenced = _public_names(Path(groupoidal.__file__).parent.glob("*.py"))
    assert defined - referenced == set(KEPT)


def test_every_oracle_is_used_by_a_test():
    tests = Path(__file__).parent
    oracles, _ = _public_names([tests / "oracles.py"])
    _, used = _public_names(tests.glob("test_*.py"))
    assert oracles - used == set()
