"""Exact combinatorics and commutative algebra of bumpless pipe dreams,
Schubert determinantal ideals, and the alternating sign matrix lattice.

The submodules split along the objects they own:

- ``perms``: one-line permutations, rank functions, Rothe diagrams.
- ``asm``: alternating sign matrices and their lattice.
- ``bpd``: pipe tilings row by row, droop moves, the corner surgery bijection.
- ``rings`` / ``groebner`` / ``monomial``: exact polynomial arithmetic,
  Buchberger bases over matrix variables, monomial-ideal decompositions.
- ``schubert``: double Schubert and beta-deformed polynomials (additive
  convention: blank cells weigh x_i + y_j).
- ``transition``: corner recurrences and the verification harness.
- ``cli``: the ``bumpless`` command.
"""

__version__ = "0.1.0"

__all__ = [
    "asm",
    "bpd",
    "cli",
    "groebner",
    "monomial",
    "perms",
    "rings",
    "schubert",
    "transition",
]
