import numpy as np
import pytest

from relcalc import (
    DEFAULT_TOL,
    Relation,
    Subspace,
    WindowConfig,
    build_multivalued_extension,
    classify,
    compress,
    dissipative_decompose,
    maximalize_contraction,
    nfl_decompose,
    operator_matrix,
    symmetric_wold_decompose,
    unitary_part_subspace,
    von_neumann_check,
    wold_decompose,
    z_transform,
)

import gen
from reference import defect_kernel_unitary_part


# -- maximalization -----------------------------------------------------


def test_maximalize_full_domain_is_identity(rng):
    v = Relation.from_operator(gen.random_contraction_matrix(rng, 3))
    assert maximalize_contraction(v).gap(v) < 1e-12


def test_maximalize_pads_with_zero():
    pairs = []
    for k in range(3):
        f = np.zeros(4)
        g = np.zeros(4)
        f[k] = 1.0
        g[k + 1] = 1.0
        pairs.append((f, g))
    shift = Relation.from_pairs(pairs)
    padded = maximalize_contraction(shift)
    assert padded.graph.dim == 4
    assert padded.dom().gap(Subspace.full(4)) < 1e-12
    # the padded operator annihilates the missing direction
    last = Subspace.from_basis_indices(4, [3])
    assert padded.image(last).dim == 0


def test_maximalize_rejects_noncontraction():
    with pytest.raises(ValueError):
        maximalize_contraction(Relation.from_operator(2.0 * np.eye(2)))


def test_maximalized_graph_dimension(rng):
    for _ in range(10):
        v = gen.random_contraction_relation(rng, 4)
        assert maximalize_contraction(v).graph.dim == 4


# -- unitary part -------------------------------------------------------


def test_unitary_part_of_unitary(rng):
    v = Relation.from_operator(gen.random_unitary(rng, 4))
    assert unitary_part_subspace(v).gap(Subspace.full(4)) < 1e-12


def test_unitary_part_of_mixed_diagonal():
    # brute-force oracle: the defect kernels are span{e1} and e1 is stable
    u = np.exp(1.3j)
    m = np.diag([u, 0.5])
    defect = np.eye(2) - m.conj().T @ m
    assert np.allclose(defect @ np.array([1.0, 0.0]), 0.0)
    v = Relation.from_operator(m)
    assert unitary_part_subspace(v).gap(Subspace.from_basis_indices(2, [0])) < 1e-10


def test_unitary_part_conjugated_blocks(rng):
    for _ in range(10):
        v, expected = gen.block_contraction(rng, 3, 2)
        assert unitary_part_subspace(v).gap(expected) < 1e-8


def _hull_and_reference(v):
    reference = defect_kernel_unitary_part(operator_matrix(maximalize_contraction(v)))
    return unitary_part_subspace(v), reference


def test_unitary_part_hull_matches_defect_kernel_reference(rng):
    for _ in range(40):
        n = int(rng.integers(1, 31))
        k_dim = int(rng.integers(0, n + 1))
        v, _ = gen.block_contraction(rng, k_dim, n - k_dim)
        k, ref = _hull_and_reference(v)
        assert k.dim == ref.dim == k_dim
        assert k.gap(ref) < 1e-12
    # the compressed shift that symmetric_wold_decompose certifies
    for n in (16, 32, 48, 64):
        split = symmetric_wold_decompose(
            build_multivalued_extension(WindowConfig(n=n)), require_maximal=False)
        shift = z_transform(compress(split.part_k, split.k), 1j)
        k, ref = _hull_and_reference(shift)
        assert k.dim == ref.dim == 0


@pytest.mark.parametrize("delta", [1e-9, 1e-8])
def test_unitary_part_hull_near_circle_matches_reference(rng, delta):
    # The true unitary part always holds Q e3.  Both chains cut tighter
    # than the eps / delta accuracy of the near-unitary direction, which
    # can drop it (ROADMAP Direction 1); the hull must decide as the old
    # chain did.
    for _ in range(10):
        q = gen.random_unitary(rng, 3)
        v = Relation.from_operator(q @ np.diag([1 - delta, 0.5, np.exp(1j)]) @ q.conj().T)
        k, ref = _hull_and_reference(v)
        assert k.dim == ref.dim


# -- contraction splitting ----------------------------------------------


def test_nfl_unitary_input(rng):
    v = Relation.from_operator(gen.random_unitary(rng, 3))
    result = nfl_decompose(v)
    assert result.k.gap(Subspace.full(3)) < 1e-10
    assert result.part_k_perp.graph.dim == 0
    assert result.passed


def test_nfl_zero_operator():
    result = nfl_decompose(Relation.from_operator(np.zeros((3, 3))))
    assert result.k.dim == 0
    assert result.passed


def test_nfl_recovers_construction(rng):
    for _ in range(10):
        k_dim = int(rng.integers(0, 4))
        m_dim = int(rng.integers(1, 4))
        v, expected = gen.block_contraction(rng, k_dim, m_dim)
        result = nfl_decompose(v)
        assert result.k.gap(expected) < 1e-8
        assert result.passed


def test_nfl_idempotence(rng):
    v, _ = gen.block_contraction(rng, 2, 3)
    result = nfl_decompose(v)
    k_perp = result.k.complement()
    again = nfl_decompose(compress(result.part_k_perp, k_perp))
    assert again.k.dim == 0
    inner = nfl_decompose(compress(result.part_k, result.k))
    assert inner.k.dim == result.k.dim


def test_nfl_partial_domain_contraction(rng):
    for _ in range(10):
        v = gen.random_contraction_relation(rng, 4)
        result = nfl_decompose(v)
        assert result.passed
        assert v.dom().contains(result.k)


def test_nfl_unitary_conjugation_covariance(rng):
    v, _ = gen.block_contraction(rng, 2, 2)
    q = gen.random_unitary(rng, 4)
    conj = v.conjugate_by(q)
    k = nfl_decompose(v).k
    k_conj = nfl_decompose(conj).k
    assert k_conj.gap(Subspace.span(q @ k.frame, ambient_dim=4)) < 1e-8


def test_nfl_rejects_noncontraction():
    with pytest.raises(ValueError):
        nfl_decompose(Relation.from_operator(3.0 * np.eye(2)))


# -- isometry splitting ---------------------------------------------------


def test_wold_unitary(rng):
    v = Relation.from_operator(gen.random_unitary(rng, 4))
    result = wold_decompose(v)
    assert result.k.gap(Subspace.full(4)) < 1e-10
    assert result.wandering.dim == 0
    assert result.passed


def test_wold_permutation():
    p = np.eye(4)[:, [1, 2, 3, 0]]
    result = wold_decompose(Relation.from_operator(p))
    assert result.k.gap(Subspace.full(4)) < 1e-12
    assert result.passed


def test_wold_full_domain_isometry_is_unitary(rng):
    # finite-dimensional degeneracy: every everywhere-defined isometry
    # decomposes with K the whole space and trivial wandering space
    for _ in range(10):
        v = Relation.from_operator(gen.random_unitary(rng, 3))
        result = wold_decompose(v)
        assert result.k.dim == 3 and result.wandering.dim == 0
        nfl = nfl_decompose(v)
        assert nfl.k.dim == 3


def test_wold_rejects_partial_domain():
    pairs = [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
    with pytest.raises(ValueError):
        wold_decompose(Relation.from_pairs(pairs))
    with pytest.raises(ValueError):
        wold_decompose(Relation.from_operator(0.5 * np.eye(2)))


# -- dissipative splitting ------------------------------------------------


def test_dissipative_diagonal_example():
    # 0 is selfadjoint on span{e1}; the scalar i is completely
    # nonselfadjoint since its transform is the zero contraction
    l = Relation.from_operator(np.diag([0.0, 1j]))
    result = dissipative_decompose(l)
    assert result.k.gap(Subspace.from_basis_indices(2, [0])) < 1e-10
    assert result.passed


def test_dissipative_selfadjoint_input(rng):
    for _ in range(10):
        l = gen.random_selfadjoint(rng, 4)
        result = dissipative_decompose(l)
        assert result.k.gap(Subspace.full(4)) < 1e-9
        assert result.passed


def test_dissipative_multivalued_part_in_selfadjoint_part():
    # {0} x span{e1} plus the dissipative scalar i on span{e2}
    pairs = [
        (np.array([0.0, 0.0]), np.array([1.0, 0.0])),
        (np.array([0.0, 1.0]), np.array([0.0, 1j])),
    ]
    l = Relation.from_pairs(pairs)
    result = dissipative_decompose(l)
    assert result.k.gap(Subspace.from_basis_indices(2, [0])) < 1e-10
    assert result.part_k.mul().dim == 1
    assert result.part_k_perp.mul().dim == 0
    assert result.passed


def test_dissipative_matches_transform_split(rng):
    for _ in range(10):
        v, expected = gen.block_contraction(rng, 2, 2)
        l = z_transform(v, 1j)
        result = dissipative_decompose(l)
        assert result.k.gap(nfl_decompose(z_transform(l, 1j)).k) < 1e-10
        assert result.k.gap(expected) < 1e-8
        assert result.passed


def test_dissipative_random_inputs(rng):
    for _ in range(15):
        l = gen.random_dissipative(rng, int(rng.integers(1, 6)))
        result = dissipative_decompose(l)
        assert result.passed
        # re-splitting the completely nonselfadjoint part is trivial
        k_perp = result.k.complement()
        if k_perp.dim:
            again = dissipative_decompose(compress(result.part_k_perp, k_perp))
            assert again.k.dim == 0


def test_dissipative_rejects_nondissipative():
    with pytest.raises(ValueError):
        dissipative_decompose(Relation.from_operator(np.array([[-1j]])))


# -- symmetric splitting ---------------------------------------------------


def test_symmetric_wold_selfadjoint_input(rng):
    # finite-dimensional degeneracy: maximal symmetric means selfadjoint,
    # so the shift-like part is trivial
    for _ in range(10):
        a = gen.random_selfadjoint(rng, 4)
        result = symmetric_wold_decompose(a)
        assert result.k.dim == 0
        assert result.wandering.dim == 0
        assert result.part_k_perp.gap(a) < 1e-10
        assert result.passed


def test_symmetric_wold_multivalued_line():
    a = Relation.from_pairs([(np.array([0.0]), np.array([1.0]))])
    result = symmetric_wold_decompose(a)
    assert result.k.dim == 0
    assert result.passed


def test_symmetric_wold_preconditions(rng):
    with pytest.raises(ValueError):
        symmetric_wold_decompose(Relation.from_operator(1j * np.eye(2)))
    # symmetric but not maximal: a proper restriction of a Hermitian operator
    a = Relation.from_operator(np.diag([1.0, 2.0])).restrict_domain(
        Subspace.from_basis_indices(2, [0])
    )
    with pytest.raises(ValueError):
        symmetric_wold_decompose(a)
    # opting out of the maximality check runs the same iteration; K picks
    # up the deficiency direction and the selfadjoint part is the rest,
    # while the shift-part certificate records that the input was not
    # maximal (the transform is not everywhere defined on K)
    result = symmetric_wold_decompose(a, require_maximal=False)
    assert result.wandering.gap(Subspace.from_basis_indices(2, [1])) < 1e-10
    assert result.part_k_perp.gap(a) < 1e-10
    assert result.certificate("reducing").passed
    assert result.certificate("part_k_perp_selfadjoint").passed
    assert not result.certificate("transform_domain_full").passed


def _one_step_image_chain(relation, cfg=DEFAULT_TOL):
    """Reference chain: K_{j+1} = K_j + image(K_j), one full image per step."""
    transform = z_transform(relation, 1j, cfg)
    k = relation.adjoint(cfg).deficiency(-1j, cfg).dom(cfg)
    iterations = 0
    for _ in range(2 * relation.n + 2):
        grown = k.sum(transform.image(k, cfg), cfg)
        iterations += 1
        if grown.dim == k.dim:
            return k, iterations
        k = grown
    raise AssertionError("reference image chain did not stabilize")


def test_symmetric_wold_chain_matches_one_step_chain(rng):
    # non-maximal symmetric relations with a partial domain and a
    # nontrivial multivalued part; for generic ones the chain stalls at once
    cases = []
    while len(cases) < 6:
        n = int(rng.integers(3, 7))
        a = gen.random_symmetric(rng, n)
        mul_dim = a.mul().dim
        if mul_dim > 0 and a.dom().dim < n - mul_dim:
            cases.append((a, None))
    # planted shift parts make the chain grow for several steps
    for _ in range(8):
        chains = [int(k) for k in rng.integers(1, 5, size=rng.integers(1, 3))]
        cases.append(gen.random_shift_symmetric(rng, chains, int(rng.integers(0, 3))))
    cases += [
        (build_multivalued_extension(WindowConfig(n=n, margin=4)), None) for n in (16, 32)
    ]
    for a, planted in cases:
        assert not classify(a).is_maximal_dissipative
        assert a.mul().dim > 0
        result = symmetric_wold_decompose(a, require_maximal=False)
        k_ref, iterations_ref = _one_step_image_chain(a)
        assert result.k.gap(k_ref) < DEFAULT_TOL.gap_tol
        assert result.iterations == iterations_ref
        if planted is not None:
            assert result.k.gap(planted) < DEFAULT_TOL.gap_tol


# -- von Neumann formula ---------------------------------------------------


def test_von_neumann_selfadjoint(rng):
    for _ in range(10):
        a = gen.random_selfadjoint(rng, 4)
        adj = a.adjoint()
        assert adj.deficiency(1j).graph.dim == 0
        assert adj.deficiency(-1j).graph.dim == 0
        assert von_neumann_check(a)


def test_von_neumann_partial_zero_operator():
    a = Relation.from_operator(np.zeros((2, 2))).restrict_domain(
        Subspace.from_basis_indices(2, [0])
    )
    adj = a.adjoint()
    assert adj.graph.dim == 3
    assert adj.deficiency(1j).graph.dim == 1
    assert adj.deficiency(-1j).graph.dim == 1
    assert von_neumann_check(a)


def test_von_neumann_random_symmetric(rng):
    for _ in range(15):
        a = gen.random_symmetric(rng, int(rng.integers(1, 6)))
        assert von_neumann_check(a)


def test_von_neumann_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        von_neumann_check(Relation.from_operator(1j * np.eye(2)))
