"""Every public name in ``src/groupoidal`` is either used by the library or kept on purpose.

The scan collects the module-level functions, classes and constants whose
name does not start with ``_`` and that no ``src`` code spells as a name or
an attribute.  That set must equal ``KEPT``, where each entry says which
paper claim keeps it.  The same holds for the public methods and properties
of public classes, against ``KEPT_MEMBERS``; overrides of a base-class
method are the base's interface and are not scanned.  A new helper that only
the tests call belongs in ``tests/oracles.py``; adding it to ``src`` fails
here.  In turn, every public function of ``tests/oracles.py`` must be used by
a test module, so dense reference code cannot linger there unused.
"""

import ast
import importlib
from pathlib import Path

import groupoidal

KEPT = {
    # paper claims checked on explicit instances
    "delta": "the delta basis that spans the convolution algebra",
    "weyl_units": "the Weyl matrix units E_ik behind Proposition 1",
    "normalization_constant": "criterion 2: the closed form against the trace of the regular "
                              "realization (the by-design failing test)",
    "action_groupoid": "action groupoids, a non-transitive family the equivalence check admits",
    "disjoint_union": "disjoint unions, the non-transitive groupoids the equivalence check admits",
    "connecting_coset": "the coset joining two units of a transitive groupoid",
    "spin_weyl_pair": "the spin realization of the pair groupoid",
    "two_mode_weyl_pair": "the two-mode realization of a product pair groupoid",
    "spin_block_pair": "the immersion of a disjoint union of spin pair groupoids",
    "position_qdpair": "the position-grid pair of the continuous pair groupoid",
    "symplectic_tomogram": "the tomogram M(X; mu, nu) of one direction, which the "
                           "acceptance criteria check",
    "intertwining_kernel": "the kernel that carries symplectic tomograms to quasi-symbols",
    "symplectic_quasi_symbol": "the quasi-symbol W_A(x_k, x_l; mu, nu) of an operator, the "
                               "direct side of the closing identity",
    "quasi_symbol_from_tomograms": "the symplectic quasi-symbol rebuilt from tomograms",
    "displaced_parity": "the s-ordered displaced parity, the photon quantizer",
}

KEPT_MEMBERS = {
    "FiniteGroupoid.save": "writes the JSON table that FiniteGroupoid.load and axioms --file read",
    "NormalizationInfo.formula_value": "criterion 2: the closed form ord(G0) + ord(H) - 1 "
                                       "against the trace (the by-design failing test)",
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


def _public_members(paths) -> set:
    """'Class.member' for each public method or property of a public class, overrides excluded."""
    members = set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            cls = getattr(importlib.import_module(f"groupoidal.{path.stem}"), node.name)
            members.update(f"{node.name}.{f.name}" for f in node.body
                           if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                           and not any(hasattr(base, f.name) for base in cls.__mro__[1:]))
    return members


def test_every_unreferenced_public_name_is_kept_on_purpose():
    defined, referenced = _public_names(Path(groupoidal.__file__).parent.glob("*.py"))
    assert defined - referenced == set(KEPT)


def test_every_unreferenced_public_member_is_kept_on_purpose():
    src = list(Path(groupoidal.__file__).parent.glob("*.py"))
    _, referenced = _public_names(src)
    members = _public_members(src)
    assert {m for m in members if m.split(".")[1] not in referenced} == set(KEPT_MEMBERS)


def test_every_oracle_is_used_by_a_test():
    tests = Path(__file__).parent
    oracles, _ = _public_names([tests / "oracles.py"])
    _, used = _public_names(tests.glob("test_*.py"))
    assert oracles - used == set()
