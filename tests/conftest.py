"""Shared fixtures: datasets, tables, counting matrices, and code specs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from kspoly.datasets import load_polytope
from kspoly.gf2 import gf2_nullspace, profile_matrix_mod2
from kspoly.raysystem import (POLYTOPES, build_basis_table,
                              build_profile_matrix)

DATA = Path(__file__).parent / "data"


def load_fixture(name: str):
    return json.loads((DATA / name).read_text())


def word_vector(word, labels: tuple[str, ...]) -> int:
    """A word as a GF(2) vector: bit j set iff labels[j] is a letter."""
    return sum(1 << labels.index(tok) for tok in word.letters)


@pytest.fixture(scope="session")
def polytopes():
    """polytope -> (layout, generators, table, profile matrix, code spec)."""
    out = {}
    for name in POLYTOPES:
        layout, gens = load_polytope(name)
        table = build_basis_table(layout, gens)
        pm = build_profile_matrix(layout, gens)
        spec = gf2_nullspace(profile_matrix_mod2(pm), pm.col_labels)
        out[name] = (layout, gens, table, pm, spec)
    return out


@pytest.fixture(scope="session")
def cell600(polytopes):
    return polytopes["600cell"]


@pytest.fixture(scope="session")
def cell120(polytopes):
    return polytopes["120cell"]


@pytest.fixture(scope="session")
def gosset(polytopes):
    return polytopes["gosset"]


@pytest.fixture(scope="session")
def gosset_words():
    """The 131 independent nullspace words of the 135-generator code."""
    return [tuple(w) for w in load_fixture("gosset_nullspace_words.json")]


@pytest.fixture(scope="session")
def proof_counts_120cell():
    return {int(k): int(v)
            for k, v in load_fixture("proof_counts_120cell.json").items()}


@pytest.fixture(scope="session")
def proof_counts_gosset():
    return {int(k): int(v)
            for k, v in load_fixture("proof_counts_gosset.json").items()}


@pytest.fixture(scope="session")
def table4_rows():
    """The 75 printed basis rows of the 600-cell, in table order."""
    return [tuple(row) for row in load_fixture("table4_bases.json")]


# the 30 independent nullspace words of the 45-generator code, as printed
NULLSPACE_WORDS_120 = (
    "j",
    "jq", "jr'", "js'", "no", "np", "uv", "uw",
    "cdjy", "ceja'", "cfjb'", "cgjc'", "dejf'", "dfjg'", "dgji'",
    "efjl'", "egjm'", "fgjo'",
    "abdekr", "abfglt", "bcklsx",
    "ahklmsuh'",
    "abhijlmnsq'", "acdefgklmz", "acfghimsud'", "bcfghimnse'",
    "fghijlmsup'",
    "abfghijkmnsj'", "bdefgiklmnsk'", "defghijkmsun'",
)

# parity proofs of the 120-cell with their ray-basis symbols and reduction
# behaviour: (word, symbol, kind) with kind one of "irreducible",
# ("direct_sum", pieces, piece_symbol) or ("overlapping", pieces,
# piece_symbol)
PROOFS_120 = (
    ("j", "30_2-15_4", "irreducible"),
    ("q", "30_2-15_4", "irreducible"),
    ("r'", "30_2-15_4", "irreducible"),
    ("s'", "30_2-15_4", "irreducible"),
    ("cdy", "90_2-45_4", ("direct_sum", 3, "30_2-15_4")),
    ("def'", "90_2-45_4", ("direct_sum", 3, "30_2-15_4")),
    ("efl'", "90_2-45_4", ("direct_sum", 3, "30_2-15_4")),
    ("fgo'", "90_2-45_4", ("direct_sum", 3, "30_2-15_4")),
    ("abkrf'", "150_2-75_4", ("direct_sum", 5, "30_2-15_4")),
    ("ablto'", "150_2-75_4", ("direct_sum", 5, "30_2-15_4")),
    ("abegkri'", "150_2 30_4-105_4", "irreducible"),
    ("bdklsxy", "180_2 15_4-105_4", "irreducible"),
    ("fghilmsup'", "180_2 45_4-135_4", "irreducible"),
    ("abhilmnsq'", "210_2 30_4-135_4", ("direct_sum", 5, "42_2 6_4-27_4")),
    ("abfghikmnsj'", "195_2 45_4 15_6-165_4", "irreducible"),
    ("defghikmsun'", "195_2 45_4 15_6-165_4", "irreducible"),
    ("bcdefghiknszq'", "225_2 30_4 15_6 15_8-195_4", "irreducible"),
    ("bcdelnszd'e'h'k'n'p'q'", "165_2 120_4 15_6-225_4",
     ("overlapping", 3, "170_2 10_4-95_4")),
)

# parity proofs of Gosset's polytope with their ray-basis symbols; all are
# minimal and irreducible
PROOFS_GOSSET = (
    ("b1", "30_2 15_4-15_8"),
    ("e1", "60_2-15_8"),
    ("a1 c1 e'2", "75_2 30_4 15_6-45_8"),
    ("a1 h1 n5", "45_2 45_4 15_6-45_8"),
    ("c1 h1 i4", "60_2 30_4 15_8-45_8"),
    ("a1 c1 d1 h1 m1", "30_2 60_4 15_8 15_12-75_8"),
    ("a1 c1 h1 m8 c'1", "15_2 60_4 30_6 15_10-75_8"),
)
