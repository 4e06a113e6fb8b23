"""The package's record types: named tuples that are immutable, compare
and hash by value, and keep their checks."""

from __future__ import annotations

import inspect
from functools import cache

import pytest

from kspoly import contextuality, geometry, gf2, raysystem
from kspoly.datasets import load_polytope

MODULES = (raysystem, gf2, contextuality, geometry)

# records holding a dict: equal by value, but unhashable
UNHASHABLE = {"WeightDistribution", "ParityCertificate"}


@cache
def records() -> dict:
    """One instance of every record type, by type name, from the 600-cell."""
    layout, gens = load_polytope("600cell")
    table = raysystem.build_basis_table(layout, gens)
    pm = raysystem.build_profile_matrix(layout, gens)
    m2 = gf2.profile_matrix_mod2(pm)
    word = raysystem.parse_word("acd")
    proof = contextuality.proof_from_word(word, table)
    h4 = geometry.icosian_600cell()
    out = [layout.pentadecagons[0], layout, gens[0], table, pm, word,
           raysystem.symbol_from_word(word, gens, layout), m2,
           gf2.gf2_nullspace(m2, pm.col_labels),
           gf2.dual_weight_distribution(m2),
           proof, contextuality.verify_parity_proof(proof),
           contextuality.incidence_nullspace_proofs(proof), h4,
           geometry.orthogonality_graph(h4), geometry.rigidity_demo()[0]]
    return {type(r).__name__: r for r in out}


NAMES = ("Pentadecagon", "PentadecagonLayout", "Generator", "BasisTable",
         "ProfileMatrix", "Word", "RayBasisSymbol", "BitMatrix", "CodeSpec",
         "WeightDistribution", "Proof", "ParityCertificate", "Decomposition",
         "RaySet", "OrthoGraph", "RigidityClaim")


def test_every_record_is_listed():
    found = {name for m in MODULES for name, obj in vars(m).items()
             if isinstance(obj, type) and issubclass(obj, tuple)
             and obj.__module__ == m.__name__}
    assert found == set(NAMES) == set(records())


@pytest.mark.parametrize("name", NAMES)
def test_record_is_frozen(name):
    rec = records()[name]
    fields = inspect.signature(type(rec)).parameters
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = None  # no instance dict either
    again = type(rec)(*(getattr(rec, f) for f in fields))
    assert again == rec and again is not rec
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(again) == hash(rec)


def test_replace_keeps_len_overrides():
    """Word and RaySet define __len__ (letters, rays), which namedtuple's
    own _make would take for the field count: _replace works and checks
    the new fields."""
    word = raysystem.Word(frozenset({"a"}))
    longer = word._replace(letters=frozenset({"a", "b", "c"}))
    assert longer == raysystem.Word(frozenset({"a", "b", "c"}))
    assert len(longer) == 3
    with pytest.raises(ValueError):
        word._replace(letters=frozenset({"a", "A"}))
    rs = geometry.icosian_600cell()
    reordered = rs._replace(vectors=tuple(reversed(rs.vectors)))
    assert reordered == rs  # renumbered round w from the least ray
    assert len(reordered) == 60
    with pytest.raises(ValueError):
        rs._replace(vectors=rs.vectors[1:])  # no longer closed under w
