"""The splitting engines against oracles that share no code with them.

Each answer must match its oracle or fail a certificate: a wrong K whose
certificates all pass must never happen.  The oracles are the closed form
of the absorbing chain's selfadjoint part, the planted blocks of
near-circle contractions, and the unimodular eigenspace at 50 digits from
mpmath.  Only relcalc's public API is imported; ``gen`` builds inputs only.
"""

import mpmath
import numpy as np
import pytest

from relcalc import DEFAULT_TOL, Relation, dissipative_decompose, nfl_decompose

import gen


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def projector_gap(frame, reference):
    """||P - P_ref||_2 for an orthonormal ``frame`` and any basis
    ``reference`` of the same ambient space."""
    ref = np.linalg.qr(reference)[0] if reference.shape[1] else reference
    diff = frame @ frame.conj().T - ref @ ref.conj().T
    return float(np.linalg.norm(diff, 2)) if diff.size else 0.0


def assert_right_or_flagged(result, reference, tol):
    """The oracle rule: K matches ``reference`` within ``tol`` in the gap,
    or a certificate fails.  Returns whether K matched."""
    right = (result.k.dim == reference.shape[1]
             and projector_gap(result.k.frame, reference) <= tol)
    assert right or not result.passed, "a wrong K passed every certificate"
    return right


# -- the absorbing chain ---------------------------------------------------


def dark_states(n, sites):
    """The Laplacian eigenvectors sin(pi k m / (n + 1)) that vanish on every
    absorbing site: those with (n + 1) dividing k j for each site j.  The
    Laplacian's eigenvalues are simple, so they span the selfadjoint part."""
    ks = [k for k in range(1, n + 1) if all(k * j % (n + 1) == 0 for j in sites)]
    m = np.arange(1, n + 1)
    return np.sin(np.pi * np.outer(m, ks) / (n + 1)).astype(complex)


# (n, absorbing sites, dim K); the Krylov hull of the defects returned
# K = {0} on every chain from n = 23 on.
CHAINS = [
    (11, (4,), 3), (11, (3,), 2), (11, (6,), 5),
    (23, (6,), 5), (23, (8,), 7), (23, (6, 12), 5),
    (35, (9,), 8), (47, (16, 24), 7), (95, (24,), 23), (191, (48,), 47),
]


@pytest.mark.parametrize("n, sites, dim", CHAINS)
def test_chain_selfadjoint_part_is_the_dark_states(n, sites, dim):
    dark = dark_states(n, sites)
    assert dark.shape[1] == dim
    result = dissipative_decompose(Relation.from_operator(gen.absorbing_chain(n, sites)))
    assert assert_right_or_flagged(result, dark, 1e-10)
    assert result.passed


@pytest.mark.parametrize("n, sites", [(23, (6, 18)), (47, (12, 36)), (95, (24, 72))])
def test_conjugated_chain_with_mirror_sites(n, sites):
    # U H U* has the selfadjoint part U K for any unitary U.
    rng = np.random.default_rng(n)
    dark = dark_states(n, sites)
    for _ in range(3):
        u = haar_unitary(rng, n)
        result = dissipative_decompose(
            Relation.from_operator(u @ gen.absorbing_chain(n, sites) @ u.conj().T))
        assert assert_right_or_flagged(result, u @ dark, 1e-10)
        assert result.passed


def test_chain_with_a_multivalued_part():
    # H (+) ({0} x span{e}) on one added coordinate: the multivalued line
    # joins the selfadjoint part.
    n, sites = 23, (6,)
    h = gen.absorbing_chain(n, sites)
    pairs = [(np.append(x, 0), np.append(h @ x, 0)) for x in np.eye(n)]
    pairs.append((np.zeros(n + 1), np.eye(n + 1)[n]))
    result = dissipative_decompose(Relation.from_pairs(pairs))
    dark = dark_states(n, sites)
    expected = np.block([[dark, np.zeros((n, 1))], [np.zeros((1, dark.shape[1])), 1]])
    assert assert_right_or_flagged(result, expected, 1e-10)
    assert result.passed and result.part_k.mul().dim == 1


# -- near-circle blocks ----------------------------------------------------


@pytest.mark.parametrize("delta", [1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
def test_near_circle_block(delta):
    # V = Q diag(1 - delta, 0.5, e^i) Q*.  Q e3 is always unitary; Q e1 is
    # read as unitary when 1 - (1 - delta)^2 is within psd_tol, as every
    # form test reads it.  The dissipative engine splits Z_i(V).
    rng = np.random.default_rng(int(-np.log10(delta)))
    on_circle = 1 - (1 - delta) ** 2 <= DEFAULT_TOL.psd_tol
    eye = np.eye(3)
    for _ in range(10):
        q = haar_unitary(rng, 3)
        v = q @ np.diag([1 - delta, 0.5, np.exp(1j)]) @ q.conj().T
        expected = q[:, [0, 2]] if on_circle else q[:, 2:]
        transform = Relation.from_pairs(list(zip((v + 1j * eye).T, (-(eye + 1j * v)).T)))
        for result in (nfl_decompose(Relation.from_operator(v)),
                       dissipative_decompose(transform)):
            assert assert_right_or_flagged(result, expected, 1e-8)
            assert result.passed


# -- mpmath at 50 digits ---------------------------------------------------


def unimodular_eigenspace(matrix, digits=50):
    """Span of the eigenvectors whose eigenvalues have 1 - |lambda|^2 at
    most psd_tol, from mpmath's eigensolver at ``digits`` digits."""
    with mpmath.workdps(digits):
        mat = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in matrix])
        values, vectors = mpmath.eig(mat)
        cols = [[complex(vectors[i, j]) for i in range(mat.rows)]
                for j, lam in enumerate(values)
                if 1 - abs(lam) ** 2 <= DEFAULT_TOL.psd_tol]
    return np.array(cols, dtype=complex).T.reshape(len(matrix), len(cols))


def planted_blocks(rng, k, m, strict_norm=0.9):
    """Q (U (+) C) Q* with U a k x k unitary and ||C|| = strict_norm."""
    blk = np.zeros((k + m, k + m), dtype=complex)
    if k:
        blk[:k, :k] = haar_unitary(rng, k)
    if m:
        c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        blk[k:, k:] = c * (strict_norm / np.linalg.norm(c, 2))
    q = haar_unitary(rng, k + m)
    return q @ blk @ q.conj().T


def test_contractions_against_mpmath():
    rng = np.random.default_rng(50)
    for n in range(1, 7):
        for k in range(n + 1):
            v = planted_blocks(rng, k, n - k)
            expected = unimodular_eigenspace(v)
            assert expected.shape[1] == k
            result = nfl_decompose(Relation.from_operator(v))
            assert assert_right_or_flagged(result, expected, 1e-10)
            assert result.passed


def test_dissipative_operators_against_mpmath():
    # H = Q (A (+) (B + i P)) Q* with A, B Hermitian and P positive
    # definite: its selfadjoint part is Q's leading columns, the unimodular
    # eigenspace of (H - i)(H + i)^-1.
    rng = np.random.default_rng(51)
    for n in range(2, 7):
        k = int(rng.integers(1, n))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blk = (x + x.conj().T) / 2
        blk[:k, k:] = blk[k:, :k] = 0
        y = rng.standard_normal((n - k, n - k)) + 1j * rng.standard_normal((n - k, n - k))
        blk[k:, k:] += 1j * (y @ y.conj().T + 0.1 * np.eye(n - k))
        q = haar_unitary(rng, n)
        h = q @ blk @ q.conj().T
        eye = np.eye(n)
        expected = unimodular_eigenspace((h - 1j * eye) @ np.linalg.inv(h + 1j * eye))
        assert expected.shape[1] == k
        result = dissipative_decompose(Relation.from_operator(h))
        assert assert_right_or_flagged(result, expected, 1e-10)
        assert projector_gap(result.k.frame, q[:, :k]) < 1e-10
        assert result.passed


# -- covariance ------------------------------------------------------------


def test_unitary_covariance():
    # K(U V U*) = U K(V) for the contraction and for the chain.
    rng = np.random.default_rng(52)
    cases = [(nfl_decompose, planted_blocks(rng, k, 8 - k)) for k in (0, 3, 8)]
    cases.append((dissipative_decompose, gen.absorbing_chain(23, (6,))))
    for engine, matrix in cases:
        u = haar_unitary(rng, matrix.shape[0])
        k = engine(Relation.from_operator(matrix)).k
        conj = engine(Relation.from_operator(u @ matrix @ u.conj().T))
        assert conj.k.dim == k.dim and conj.passed
        assert projector_gap(conj.k.frame, u @ k.frame) < 1e-10
