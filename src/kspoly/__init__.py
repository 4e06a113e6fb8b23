"""Fifteen-fold symmetric Kochen-Specker parity proofs of the 600-cell,
the 120-cell, and Gosset's polytope: ray systems and word algebra, exact
GF(2) proof counting via the MacWilliams identities, proof verification
and decomposition, and an independent golden-ring/E8 geometric check."""

__version__ = "0.1.0"
