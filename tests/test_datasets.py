"""Embedded dataset integrity: checksums, schema, and cross-validation."""

import hashlib
import json

import jsonschema
import pytest

from kspoly.datasets import data_text, expected_counts, load_polytope
from conftest import word_vector
from kspoly.gf2 import in_nullspace, profile_matrix_mod2
from kspoly.raysystem import basis_profile, parse_word

# guards against transcription drift in the embedded data files
CHECKSUMS = {
    "600cell.json":
        "bfd84f9bc59bea36be97849855a769d05b9fed9690ffcaec5606144aba2d0694",
    "120cell.json":
        "82bad19576910b377666cc9ccc390e05fa83c39a0c446c64e5f3f6fdeef1a972",
    "gosset.json":
        "36278879ae986ce754a10402d45234003c9b46dadb7e157ed5495d2dd4f5235a",
}


def schema(name: str) -> dict:
    from importlib import resources
    return json.loads(
        resources.files("kspoly.schemas").joinpath(name).read_text())


def test_checksums():
    for name, digest in CHECKSUMS.items():
        got = hashlib.sha256(data_text(name).encode()).hexdigest()
        assert got == digest, f"{name} drifted from its frozen checksum"


def test_datasets_validate_against_schema():
    ds_schema = schema("dataset.schema.json")
    for name in ("600cell", "120cell", "gosset"):
        jsonschema.validate(json.loads(data_text(f"{name}.json")), ds_schema)


def test_expected_counts(polytopes):
    for name, (layout, gens, table, *_rest) in polytopes.items():
        rays, m, n_gens, n_bases, per_ray = expected_counts(name)
        assert layout.n_rays == rays
        assert len(layout.pentadecagons) == m
        assert len(gens) == n_gens
        assert len(table.bases) == n_bases


def test_load_external_path(tmp_path, cell600):
    layout, gens, *_ = cell600
    path = tmp_path / "custom.json"
    path.write_text(data_text("600cell.json"))
    layout2, gens2 = load_polytope("600cell", path)
    assert layout2 == layout and gens2 == gens


def test_unknown_polytope():
    with pytest.raises(ValueError):
        load_polytope("24cell")


def test_generator_labels_canonically_ordered(polytopes):
    from kspoly.raysystem import parse_letter
    for _, gens, *_rest in polytopes.values():
        labels = [g.label for g in gens]
        assert labels == sorted(labels, key=parse_letter)


def test_600cell_generator_profiles(cell600):
    layout, gens, *_ = cell600
    profiles = {g.label: basis_profile(g.rays, layout) for g in gens}
    assert profiles == {"a": "AADD", "b": "BBCC", "c": "ABCD", "d": "ABCD",
                        "e": "ABCD"}


def test_120cell_profile_census(cell120):
    layout, gens, *_ = cell120
    profiles = {}
    for g in gens:
        profiles.setdefault(basis_profile(g.rays, layout), []).append(g.label)
    assert len(profiles) == 41
    triples = sorted(tuple(v) for v in profiles.values() if len(v) > 1)
    assert triples == [("n", "o", "p"), ("u", "v", "w")]
    assert profiles["B1B1K1K1"] == ["j"]
    assert profiles["F2F2G2G2"] == ["s'"]


def test_gosset_profile_census(gosset):
    layout, gens, *_ = gosset
    profiles = {}
    for g in gens:
        profiles.setdefault(basis_profile(g.rays, layout), []).append(g.label)
    assert len(profiles) == 33
    assert profiles["AACCHHHH"] == ["b1"]
    assert profiles["ABCDEFGH"] == [f"m{i}" for i in range(1, 12)]
    assert profiles["CCCCDDEE"] == ["g'1"]
    # letters group by profile: every generator named x<i> shares x's profile
    for labels in profiles.values():
        assert len({lab.rstrip("0123456789") for lab in labels}) == 1


def test_gosset_nullspace_words_fixture(gosset, gosset_words):
    """All 131 fixture words satisfy MX = 0 and are linearly independent."""
    *_a, pm, spec = gosset
    m2 = profile_matrix_mod2(pm)
    vectors = []
    for toks in gosset_words:
        vec = word_vector(parse_word(" ".join(toks)), pm.col_labels)
        assert in_nullspace(m2, vec), toks
        vectors.append(vec)
    assert len(vectors) == 131 == spec.k
    # independence: eliminate greedily
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        assert v != 0, "fixture words are linearly dependent"
        basis.append(v)
        basis.sort(reverse=True)


def test_gosset_word_length_census(gosset_words):
    by_len = {}
    for w in gosset_words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert by_len == {1: 16, 2: 22, 3: 56, 4: 26, 5: 11}


def test_120cell_nullspace_words_fixture(cell120):
    """The 30 printed independent words satisfy MX = 0, with rank 30."""
    from conftest import NULLSPACE_WORDS_120
    *_a, pm, spec = cell120
    m2 = profile_matrix_mod2(pm)
    vectors = []
    for text in NULLSPACE_WORDS_120:
        vec = word_vector(parse_word(text), pm.col_labels)
        assert in_nullspace(m2, vec), text
        vectors.append(vec)
    assert len(vectors) == 30 == spec.k
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        assert v != 0
        basis.append(v)
        basis.sort(reverse=True)
    lengths = sorted(len(parse_word(t)) for t in NULLSPACE_WORDS_120)
    assert lengths.count(1) == 1  # a single odd word, the rest even
    assert all(n % 2 == 0 for n in lengths[1:] if n != 1)
