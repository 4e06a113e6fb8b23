"""census: the exact counting pipeline and word analysis, in-process.

Each pass runs, for all three polytopes, the pipeline basis table ->
profile matrix -> nullspace -> dual weights -> MacWilliams, then the word
analysis over the published words: symbols two ways, parity certificates,
minimality (published and seeded above-bound composed words), low-weight
enumeration, and decomposition of the published proofs into embedded
sub-proofs.  It loads raysystem, gf2 and contextuality's decomposition,
but neither geometry nor the assignment search.
"""

from __future__ import annotations

import random

from checks import (POLYTOPES, check_table, dataset,
                    direct_odd_counts, exact_cover, expect, gf2_rows,
                    in_kernel, is_parity_proof, published, symbol_text)
from harness import Op, Workload  # also puts src/ on sys.path
from kspoly import contextuality, datasets, gf2, raysystem

COMPOSED_PER_POLYTOPE = 10
MAX_SUPPORT = 25  # is_minimal_word's exact-search limit


def _profile_entries(doc: dict) -> list[list[int]]:
    """Pentadecagon-by-generator counts, straight from the dataset file."""
    return [[sum(p["lo"] <= r <= p["hi"] for r in g["rays"])
             for g in doc["generators"]] for p in doc["pentadecagons"]]


def _independent(vectors) -> bool:
    pivots: dict[int, int] = {}  # leading bit -> reduced vector
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
        else:
            return False
    return True


def _composed_words(words, bound: int, sizes: range, rng: random.Random,
                    count: int):
    """Odd sums of published nullspace words, longer than the minimality
    bound: every such word contains a shorter proof, so none is minimal."""
    out = []
    while len(out) < count:
        w = raysystem.EMPTY_WORD
        for u in rng.sample(words, rng.choice(sizes)):
            w = raysystem.compose_words(w, u)
        if len(w) % 2 and bound < len(w) <= MAX_SUPPORT:
            out.append(w)
    return out


def setup(seed: int) -> Workload:
    pub = published()
    rng = random.Random(seed)
    ops: list[Op] = []
    lengths: list[int] = []
    for P in POLYTOPES:
        ops += _polytope_ops(P, pub, rng, lengths)
    work = Workload(ops)
    work.notes = {"composed_word_lengths": sorted(lengths)}
    return work


def _polytope_ops(P: str, pub: dict, rng: random.Random,
                  lengths: list[int]) -> list[Op]:
    layout, gens = datasets.load_polytope(P)
    doc = dataset(P)
    geo = pub["geometry"][P]
    d = layout.dimension
    n = len(gens)
    k = pub["nullity"][P]
    entries = _profile_entries(doc)
    rows = gf2_rows(entries)
    ops: list[Op] = []

    def add(name, call, check):
        ops.append(Op(f"{P}:{name}", call, check))

    def state(s, name):
        return s[f"{P}:{name}"]

    # ---- the counting pipeline
    def check_table_out(table):
        expect(len(table.bases) == 15 * n, f"{P}: table size")
        check_table(table.bases, d, geo["rays"], geo["per_ray"])

    add("table", lambda s: raysystem.build_basis_table(layout, gens),
        check_table_out)

    def check_profile(pm):
        expect([list(r) for r in pm.entries] == entries,
               f"{P}: profile matrix differs from the dataset's counts")

    add("profile", lambda s: raysystem.build_profile_matrix(layout, gens),
        check_profile)

    def check_nullspace(spec):
        expect(spec.n == n and spec.k == k, f"{P}: nullity {spec.k} != {k}")
        expect(all(in_kernel(rows, v) for v in spec.nullspace_basis),
               f"{P}: nullspace vector outside the kernel")
        expect(_independent(spec.nullspace_basis),
               f"{P}: nullspace basis is dependent")

    add("nullspace", lambda s: gf2.gf2_nullspace(
        gf2.profile_matrix_mod2(state(s, "profile")),
        state(s, "profile").col_labels), check_nullspace)

    add("dual", lambda s: gf2.dual_weight_distribution(
        gf2.profile_matrix_mod2(state(s, "profile"))),
        lambda dual: expect(dual.total() == 1 << (n - k),
                            f"{P}: dual code size"))

    odd_published = ({int(w): int(c) for w, c in pub["odd_counts"][P].items()}
                     if P in pub["odd_counts"] else None)
    brute = direct_odd_counts(rows, n) if n <= 16 else None
    round_tripped: list = []

    def weights(s):
        dual = state(s, "dual")
        return dual, gf2.macwilliams_transform(dual, n)

    def check_weights(out):
        dual, dist = out
        expect(dist.total() == 1 << k, f"{P}: weights do not sum to 2^k")
        odd = {w: c for w, c in dist.items() if w % 2}
        expect(sum(odd.values()) == 1 << (k - 1), f"{P}: odd total")
        if odd_published is not None:
            expect(odd == odd_published, f"{P}: odd counts differ from the "
                                         "published counts")
        if brute is not None:
            expect(odd == brute, f"{P}: differs from direct enumeration")
        # an output equal to one already transformed back needs no second
        # transform: the Gosset round trip alone costs about 0.7 s
        if dist.counts not in round_tripped:
            back = gf2.macwilliams_transform(dist, n)
            expect(back.counts == dual.counts,
                   f"{P}: MacWilliams round trip does not return the dual")
            round_tripped.append(dist.counts)

    add("macwilliams", weights, check_weights)

    # ---- word analysis over the published proofs
    proofs = pub["proofs"][P]
    for entry in proofs:
        ops += _word_ops(P, entry, layout, gens, d)

    # ---- minimality and enumeration
    parse = raysystem.parse_word
    if P == "600cell":
        census = set(pub["census_600cell"])
        minimal = set(pub["minimal_600cell"])
        add("enumerate", lambda s: gf2.enumerate_words(
            state(s, "nullspace"), 5, "odd"),
            lambda ws: expect({raysystem.render_word(w).replace(" ", "")
                               for w in ws} == census,
                              "600cell: odd words differ from the census"))
        for text in sorted(census):
            w = parse(text)
            add(f"minimal:{text}",
                lambda s, w=w: gf2.is_minimal_word(w, state(s, "profile")),
                lambda out, t=text: expect(out == (t in minimal),
                                           f"600cell: minimality of {t}"))
    elif P == "120cell":
        want = {1: odd_published[1], 3: odd_published[3]}

        def check_low(ws):
            by_len: dict = {}
            for w in ws:
                by_len[len(w)] = by_len.get(len(w), 0) + 1
                v = sum(1 << gens_index[t] for t in w.letters)
                expect(in_kernel(rows, v), f"120cell: {w} not a proof word")
            expect(by_len == want, f"120cell: low-weight counts {by_len}")

        gens_index = {g.label: i for i, g in enumerate(gens)}
        add("enumerate", lambda s: gf2.enumerate_words(
            state(s, "nullspace"), 3, "odd"), check_low)
    else:
        singles = {w for w in pub["nullspace_words"][P] if " " not in w}
        add("enumerate", lambda s: gf2.enumerate_words(
            state(s, "nullspace"), 1, "odd"),
            lambda ws: expect({raysystem.render_word(w) for w in ws}
                              == singles, "gosset: one-letter proofs"))
        for entry in proofs:
            w = parse(entry["word"])
            add(f"minimal:{entry['word']}",
                lambda s, w=w: gf2.is_minimal_word(w, state(s, "profile")),
                lambda out, t=entry["word"]: expect(
                    out is True, f"gosset: {t} should be minimal"))
    if P != "600cell":
        bound = n - k + 1
        sizes = range(7, 13) if P == "120cell" else range(3, 10)
        basis_words = [parse(t) for t in pub["nullspace_words"][P]]
        for w in _composed_words(basis_words, bound, sizes, rng,
                                 COMPOSED_PER_POLYTOPE):
            lengths.append(len(w))
            text = raysystem.render_word(w)
            add(f"minimal:composed:{text}",
                lambda s, w=w: gf2.is_minimal_word(w, state(s, "profile")),
                lambda out, t=text: expect(
                    out is False, f"{P}: {t} is above the bound {bound} "
                                  "but reported minimal"))
    if P == "gosset":
        ops += _e1e2_ops(pub, d)
    return ops


def _word_ops(P: str, entry: dict, layout, gens, d: int) -> list[Op]:
    text = entry["word"]
    word = raysystem.parse_word(text)
    tag = f"{P}:{text}"
    ops: list[Op] = []

    def proof(s):
        return contextuality.proof_from_word(word, s[f"{P}:table"])

    def check_symbol(sym):
        if "symbol" in entry:
            expect(str(sym) == entry["symbol"],
                   f"{tag}: symbol {sym} != published {entry['symbol']}")

    ops.append(Op(f"{tag}:symbol_from_word",
                  lambda s: raysystem.symbol_from_word(word, gens, layout),
                  check_symbol))

    def basis_symbol(s):
        bases = proof(s).bases()
        return (bases, raysystem.ray_basis_symbol(bases, layout),
                s[f"{tag}:symbol_from_word"])

    def check_basis_symbol(out):
        bases, sym, from_profiles = out
        expect(str(sym) == symbol_text(bases, d),
               f"{tag}: expanded symbol {sym} miscounts the bases")
        expect(sym == from_profiles,
               f"{tag}: profile symbol {from_profiles} != expanded {sym}")
        check_symbol(sym)

    ops.append(Op(f"{tag}:ray_basis_symbol", basis_symbol,
                  check_basis_symbol))

    def verify(s):
        p = proof(s)
        return p, contextuality.verify_parity_proof(p)

    def check_verify(out):
        p, cert = out
        expect(cert.valid and not cert.offending_rays
               and cert.basis_count == 15 * len(word),
               f"{tag}: certificate rejects a published proof")
        expect(is_parity_proof(p.bases()), f"{tag}: not a parity proof")

    ops.append(Op(f"{tag}:verify", verify, check_verify))
    if P == "600cell":
        return ops

    ops.append(Op(f"{tag}:decompose",
                  lambda s: _decompose(proof(s)),
                  lambda out: _check_decomposition(tag, entry, out, d)))
    if entry["label"] != "irreducible":
        ops.append(Op(f"{tag}:classify", lambda s: (
            contextuality.classify_decomposition(
                s[f"{tag}:decompose"][0], s[f"{tag}:decompose"][2])),
            lambda label: expect(label == entry["label"],
                                 f"{tag}: classified {label}")))
    return ops


def _decompose(p):
    dec = contextuality.incidence_nullspace_proofs(p)
    proper = [s for s in dec.proofs if s.basis_indices != p.basis_indices]
    smallest = min((len(s.basis_indices) for s in proper), default=0)
    small = [s for s in proper if len(s.basis_indices) == smallest]
    return p, dec, small


def _check_decomposition(tag: str, entry: dict, out, d: int) -> None:
    p, dec, small = out
    expect(not dec.truncated, f"{tag}: decomposition truncated")
    for s in dec.proofs:
        expect(s.basis_indices <= p.basis_indices
               and is_parity_proof(s.bases()),
               f"{tag}: sub-proof is not an embedded parity proof")
    expect(any(s.basis_indices == p.basis_indices for s in dec.proofs),
           f"{tag}: the proof itself is missing from its decomposition")
    if entry["label"] == "irreducible":
        expect(len(dec.proofs) == 1, f"{tag}: published irreducible, "
                                     f"{len(dec.proofs)} sub-proofs found")
        return
    expect(len(small) == entry["pieces"], f"{tag}: {len(small)} pieces")
    for s in small:
        expect(symbol_text(s.bases(), d) == entry["piece_symbol"],
               f"{tag}: piece symbol")
    pieces = [s.basis_indices for s in small]
    direct = exact_cover(frozenset(p.basis_indices), pieces)
    expect(direct == (entry["label"] == "direct_sum"),
           f"{tag}: pieces {'do' if direct else 'do not'} partition it")


def _e1e2_ops(pub: dict, d: int) -> list[Op]:
    """e1 e2 is not itself a proof (30 bases) but holds the three published
    nine-basis proofs, which overlap."""
    word = raysystem.parse_word("e1 e2")
    nine = [tuple(t) for t in pub["e1e2_nine"]]

    def decompose(s):
        p = contextuality.proof_from_word(word, s["gosset:table"])
        dec = contextuality.incidence_nullspace_proofs(p)
        local = {contextuality.local_indices(p, sub): sub for sub in dec.proofs}
        return p, dec, local

    def check(out):
        p, dec, local = out
        expect(not dec.truncated, "e1 e2: decomposition truncated")
        for sub in dec.proofs:
            expect(is_parity_proof(sub.bases()), "e1 e2: bad sub-proof")
        expect(min(len(sub.basis_indices) for sub in dec.proofs) == 9,
               "e1 e2: smallest sub-proof is not nine bases")
        for key in nine:
            expect(key in local, f"e1 e2: published proof {key} missing")
            expect(symbol_text(local[key].bases(), d) == "36_2-9_8",
                   f"e1 e2: {key} symbol")
        expect(not exact_cover(frozenset(p.basis_indices),
                               [local[key].basis_indices for key in nine]),
               "e1 e2: the published proofs should overlap")

    def classify(s):
        p, _dec, local = s["gosset:e1 e2:decompose"]
        return contextuality.classify_decomposition(
            p, [local[key] for key in nine])

    return [Op("gosset:e1 e2:decompose", decompose, check),
            Op("gosset:e1 e2:classify", classify,
               lambda label: expect(label == "overlapping",
                                    f"e1 e2: classified {label}"))]

