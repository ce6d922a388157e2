"""Seeded random generators for relations with prescribed structure."""

import numpy as np

from relcalc import Relation, Subspace, z_transform
from relcalc.invariance import embed, orthogonal_relation_sum


def complex_matrix(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def hermitian(rng, n):
    a = complex_matrix(rng, n, n)
    return (a + a.conj().T) / 2


def psd(rng, n):
    a = complex_matrix(rng, n, n)
    return a.conj().T @ a


def random_subspace(rng, ambient_dim, dim=None):
    if dim is None:
        dim = int(rng.integers(0, ambient_dim + 1))
    if dim == 0:
        return Subspace.zero(ambient_dim)
    return Subspace.span(complex_matrix(rng, ambient_dim, dim), ambient_dim=ambient_dim)


def random_relation(rng, n, graph_dim=None):
    if graph_dim is None:
        graph_dim = int(rng.integers(0, 2 * n + 1))
    return Relation(random_subspace(rng, 2 * n, graph_dim))


def random_unitary(rng, n):
    q, r = np.linalg.qr(complex_matrix(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_contraction_matrix(rng, n, max_norm=0.9):
    m = complex_matrix(rng, n, n)
    s = np.linalg.norm(m, 2)
    if s == 0:
        return m
    return m * (max_norm * rng.uniform(0.3, 1.0) / s)


def random_contraction_relation(rng, n, partial=True):
    v = Relation.from_operator(random_contraction_matrix(rng, n))
    if partial and rng.uniform() < 0.5:
        v = v.restrict_domain(random_subspace(rng, n))
    return v


def random_isometry_relation(rng, n, partial=True):
    v = Relation.from_operator(random_unitary(rng, n))
    if partial and rng.uniform() < 0.5:
        v = v.restrict_domain(random_subspace(rng, n))
    return v


def _sub_subspace(rng, space, dim):
    if dim == 0 or space.dim == 0:
        return Subspace.zero(space.ambient_dim)
    coeffs = complex_matrix(rng, space.dim, dim)
    return Subspace.span(space.frame @ coeffs, ambient_dim=space.ambient_dim)


def random_dissipative(rng, n, symmetric=False, multivalued=True, maximal=False):
    """Closed dissipative relation: pairs (f, (H + iP)f) on a domain
    orthogonal to a multivalued part, H Hermitian, P PSD (P = 0 gives a
    symmetric relation).  With ``maximal`` the domain is the full
    complement of the multivalued part, which makes the relation maximal."""
    mul_dim = int(rng.integers(0, min(2, n) + 1)) if multivalued else 0
    mul = random_subspace(rng, n, mul_dim)
    avail = mul.complement()
    if maximal:
        dom = avail
    else:
        dom = _sub_subspace(rng, avail, int(rng.integers(0, avail.dim + 1)))
    m = hermitian(rng, n)
    if not symmetric:
        m = m + 1j * psd(rng, n)
    f_block = np.hstack([dom.frame, np.zeros((n, mul.dim))])
    g_block = np.hstack([m @ dom.frame, mul.frame])
    return Relation.from_graph_matrix(f_block, g_block)


def random_symmetric(rng, n, multivalued=True):
    return random_dissipative(rng, n, symmetric=True, multivalued=multivalued)


def random_shift_symmetric(rng, chains, unitary_dim):
    """Symmetric relation whose Z transform at i is, in a random orthonormal
    basis, one truncated shift per entry of ``chains`` (a chain of length k
    maps its first k basis vectors one step along), an eigenvector for -i
    (the multivalued part) and a unitary diagonal part.  The last vector of
    each chain lies outside the transform's domain, so the relation is not
    maximal.  Returns the relation and the span of all chain vectors, which
    is the shift-like part of its symmetric splitting."""
    n = sum(k + 1 for k in chains) + 1 + unitary_dim
    q = random_unitary(rng, n)
    pairs = []
    start = 0
    for k in chains:
        pairs += [(q[:, start + j], q[:, start + j + 1]) for j in range(k)]
        start += k + 1
    chain_span = Subspace.span(q[:, :start], ambient_dim=n)
    pairs.append((q[:, start], -1j * q[:, start]))
    for u in q[:, start + 1:].T:
        pairs.append((u, np.exp(2j * np.pi * rng.uniform()) * u))
    return z_transform(Relation.from_pairs(pairs, n=n), 1j), chain_span


def random_selfadjoint(rng, n):
    """Hermitian operator part on a subspace, purely multivalued on its
    orthogonal complement."""
    d = int(rng.integers(0, n + 1))
    dom = random_subspace(rng, n, d)
    a = hermitian(rng, d)
    mul = dom.complement()
    f_block = np.hstack([dom.frame, np.zeros((n, mul.dim))])
    g_block = np.hstack([dom.frame @ a, mul.frame])
    return Relation.from_graph_matrix(f_block, g_block)


def random_reducing_pair(rng, n, k_dim=None):
    """Relation together with a subspace that reduces it, built from a
    block construction conjugated by a random unitary."""
    if k_dim is None:
        k_dim = int(rng.integers(0, n + 1))
    first = Subspace.from_basis_indices(n, range(k_dim))
    second = first.complement()
    t1 = embed(random_relation(rng, k_dim), first)
    t2 = embed(random_relation(rng, n - k_dim), second)
    block = orthogonal_relation_sum(t1, t2)
    q = random_unitary(rng, n)
    return block.conjugate_by(q), Subspace.span(q[:, :k_dim], ambient_dim=n)


def block_contraction(rng, k, m):
    """Contraction unitarily equivalent to diag(unitary_k, strict
    contraction_m); returns (relation, unitary-part subspace)."""
    n = k + m
    q = random_unitary(rng, n)
    blk = np.zeros((n, n), dtype=complex)
    if k:
        blk[:k, :k] = random_unitary(rng, k)
    if m:
        blk[k:, k:] = random_contraction_matrix(rng, m, 0.9)
    v = q @ blk @ q.conj().T
    return Relation.from_operator(v), Subspace.span(q[:, :k], ambient_dim=n)


def planted_sine_symmetric(rng, sine):
    """Symmetric relation whose Z transform at i is, in a random orthonormal
    basis a0, a1, a2, a3, e, the isometry a0 -> a1 -> a2, x -> a3 -> e with
    x = cos a2 + ``sine`` e.  The image chain reaches span{a0, a1, a2} in two
    rounds; x lies at principal angle ``sine`` to it and e is reached only
    through x.  Returns the relation and span{a0, a1, a2}, its K when x is
    not read as found."""
    q = random_unitary(rng, 5)
    a0, a1, a2, a3, e = q.T
    x = np.sqrt(1 - sine**2) * a2 + sine * e
    pairs = [(a0, a1), (a1, a2), (x, a3), (a3, e)]
    return z_transform(Relation.from_pairs(pairs, n=5), 1j), Subspace.span(q[:, :3], ambient_dim=5)


def oblique_step_symmetric(rng, lengths, sines, unitary_dim):
    """Symmetric relation whose Z transform at i walks one chain per entry
    of ``lengths`` (a chain of length k maps its first k vectors one step
    along), in a random orthonormal basis, next to a unitary diagonal part.
    In chain c > 0 one step leaves from cos a + sines[c - 1] b instead of
    its vector a, where b is the last vector of chain c - 1, so the image
    chain meets that step at principal angle sines[c - 1] before b arrives.
    Returns the relation and the span of all chain vectors, its K."""
    n = sum(k + 1 for k in lengths) + unitary_dim
    q = random_unitary(rng, n)
    pairs = []
    start = 0
    previous_end = None
    for c, k in enumerate(lengths):
        chain = q[:, start:start + k + 1]
        tilted = int(rng.integers(0, k)) if c > 0 else -1
        for j in range(k):
            f = chain[:, j]
            if j == tilted:
                s = sines[c - 1]
                f = np.sqrt(1 - s**2) * f + s * previous_end
            pairs.append((f, chain[:, j + 1]))
        previous_end = chain[:, k]
        start += k + 1
    chain_span = Subspace.span(q[:, :start], ambient_dim=n)
    for u in q[:, start:].T:
        pairs.append((u, np.exp(2j * np.pi * rng.uniform()) * u))
    return z_transform(Relation.from_pairs(pairs, n=n), 1j), chain_span


def absorbing_chain(n, sites, gamma=1.0):
    """H = -Laplacian + i gamma sum_{j in sites} e_j e_j^T on n sites
    (1-based): a dissipative matrix whose selfadjoint part is spanned by
    the Laplacian eigenvectors that vanish on every absorbing site."""
    h = (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)).astype(complex)
    for j in sites:
        h[j - 1, j - 1] += 1j * gamma
    return h
