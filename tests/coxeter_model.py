"""The full root action of an element, the tests' reference for the images
encoding of `coxsph.coxeter`.

`full_rep(system, w)` is the signed permutation that w induces on the
positive roots: entry k is the signed index of w(beta_k), +j for the
positive root beta_j and -j for its negative, with the simple roots first.
The images of the simple roots, `w.rep`, fix it by linearity. For a root
system it is expanded over `system.positive_roots` as plain vectors,
w(beta) = w(beta - alpha_i) + w(alpha_i) for the first i with
beta - alpha_i a positive root, and reads no table of the system.
`weights(system, w)` sums the same vectors to w(2 rho) and pairs it with
each simple coroot through the Cartan matrix.

I2(m) has no integral roots. Its 2m roots are the unit vectors at the
angles a pi / m, a in Z/2m, positive for 0 <= a < m, with alpha_1 at a = 0
and alpha_2 at a = m - 1. s1 reflects a to m - a and s2 to m - 2 - a, so
s1 s2 adds 2, and w = (s1 s2)^r s1^f, stored as (r, f), sends a to
(m - a if f else a) + 2r. The positive roots are listed alpha_1, alpha_2,
then a = 1, ..., m - 2.

Like every helper module here it uses no `assert`, which `python -O`
strips.
"""

from functools import lru_cache
from operator import add, mul


@lru_cache(maxsize=None)
def _root_tables(system):
    """Each signed root's vector, at index q for root q and -q, read from
    the end, for its negative; the signed index of every root vector; and,
    for each positive root after the simple ones, in order, (index of
    beta - alpha_i, i), 0-based, for the first such i."""
    roots, rank = system.positive_roots, system.rank
    vectors = (None, *roots, *[tuple(-c for c in root) for root in reversed(roots)])
    index = {root: k for k, root in enumerate(roots, start=1)}
    index.update({vectors[-k]: -k for k in range(1, len(roots) + 1)})
    chain = []
    for beta in roots[rank:]:
        for i in range(rank):
            lower = tuple(c - (j == i) for j, c in enumerate(beta))
            if index.get(lower, 0) > 0:
                chain.append((index[lower] - 1, i))
                break
        else:
            raise ValueError(f"{beta} is not a simple root plus a positive root")
    return vectors, index, tuple(chain)


def _dihedral_full_rep(m, r, f):
    order = [0, m - 1, *range(1, m - 1)]
    index = {a: k for k, a in enumerate(order, start=1)}
    out = []
    for a in order:
        b = ((m - a if f else a) + 2 * r) % (2 * m)
        out.append(index[b] if b < m else -index[b - m])
    return tuple(out)


def full_rep(system, w):
    """The signed permutation of the positive roots that w induces."""
    if system.positive_roots is None:
        return _dihedral_full_rep(system.m, *w.rep)
    signed, index, chain = _root_tables(system)
    vectors = [signed[q] for q in w.rep]
    append = vectors.append
    for p, i in chain:
        append(tuple(map(add, vectors[p], vectors[i])))
    return tuple(map(index.__getitem__, vectors))


def weights(system, w, full=None):
    """The weight coordinates <w(2 rho), alpha_k-check>, k = 1..rank, of an
    element of a root system: w(2 rho) is the sum of w(beta) over the
    positive roots beta, the signed roots of its full rep (`full`, if the
    caller has it at hand) as plain vectors, and row k of the Cartan matrix
    pairs a vector in the simple-root basis with alpha_k-check."""
    if full is None:
        full = full_rep(system, w)
    signed = _root_tables(system)[0]
    total = [sum(column) for column in zip(*[signed[q] for q in full])]
    return tuple(sum(map(mul, row, total)) for row in system.cartan_matrix)
