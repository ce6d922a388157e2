from pathlib import Path

import numpy as np
import pytest

from relcalc import (
    DEFAULT_TOL,
    Relation,
    Subspace,
    ToleranceConfig,
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
from relcalc import decompose
from relcalc.decompose import _padded_matrix
from relcalc.relation import _contraction_form

import gen
from probes import record_chain_rounds, record_linalg_calls, run_isolated
from reference import (
    defect_kernel_unitary_part,
    graph_sum_padding,
    nonunitary_hull,
    one_step_unitary_hull,
    row_space_image_chain,
)


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
    with pytest.raises(ValueError, match="relation is not a contraction"):
        maximalize_contraction(Relation.from_operator(2.0 * np.eye(2)))


def test_full_domain_with_multivalued_part_is_not_an_operator(rng):
    # Under psd_tol = 1 the whole of C^1 (+) C^1 passes as a contraction and
    # an isometry of full domain; its multivalued part still stops the
    # engines at the matrix.  So does a rotated multivalued line, whose least
    # form eigenvalue reads -1 only to rounding.
    q = gen.random_unitary(rng, 4)
    line = Relation.from_pairs([(q[:, k], 0.5 * q[:, k]) for k in range(3)]
                               + [(np.zeros(4), q[:, 3])])
    for relation, loose in ((Relation(Subspace.full(2)), ToleranceConfig(psd_tol=1.0)),
                            (line, ToleranceConfig(psd_tol=1.5))):
        for engine in (unitary_part_subspace, wold_decompose, maximalize_contraction):
            with pytest.raises(ValueError, match="not an everywhere-defined operator"):
                engine(relation, loose)


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
    reference = defect_kernel_unitary_part(graph_sum_padding(v))
    return unitary_part_subspace(v), reference


def _padding_families(rng):
    """Contractions of every kind the engines pad: full and partial domain,
    isometries, transforms of dissipative relations and the compressed
    shift that symmetric_wold_decompose certifies."""
    for _ in range(6):
        for n in range(1, 9):
            yield gen.random_contraction_relation(rng, n)
            yield gen.random_isometry_relation(rng, n)
            yield gen.block_contraction(rng, int(rng.integers(0, n + 1)), n)[0]
            yield z_transform(gen.random_dissipative(rng, n), 1j)
            yield gen.random_contraction_relation(rng, n).restrict_domain(
                gen.random_subspace(rng, n))
    for n in (16, 32):
        split = symmetric_wold_decompose(
            build_multivalued_extension(WindowConfig(n=n)), require_maximal=False)
        yield z_transform(compress(split.part_k, split.k), 1j)


def test_padded_matrix_matches_graph_sum_padding(rng):
    partial = 0
    for v in _padding_families(rng):
        matrix = _padded_matrix(v, _contraction_form(v), DEFAULT_TOL)
        assert np.linalg.norm(matrix - graph_sum_padding(v), 2) <= 1e-13
        partial += v.graph.dim < v.n
        if v.graph.dim == v.n:
            assert maximalize_contraction(v) is v
        else:
            padded = maximalize_contraction(v)
            assert padded.graph.dim == v.n and padded.graph.contains(v.graph)
    assert partial > 50


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
    # The true unitary part is span{Q e3}: 1 - delta lies off the circle by
    # 2 delta in 1 - |lambda|^2, far above psd_tol.  A Krylov hull of the
    # defects cuts the eps / delta accuracy of the near-unitary direction
    # and can lose Q e3; the eigenvalues keep it.
    for _ in range(10):
        q = gen.random_unitary(rng, 3)
        v = Relation.from_operator(q @ np.diag([1 - delta, 0.5, np.exp(1j)]) @ q.conj().T)
        k = unitary_part_subspace(v)
        assert k.dim == 1
        assert k.gap(Subspace.span(q[:, 2:], ambient_dim=3)) < 1e-8


def _hull_k(matrix, cfg):
    return Subspace(nonunitary_hull(matrix, cfg)[0]).complement()


def test_unitary_part_matches_hull_reference_on_families(rng):
    # Where the Krylov hull of the defects is right, the eigenvalues agree
    # with it: the same dimension, and within 1e-12 in the gap.
    for v in _padding_families(rng):
        k = unitary_part_subspace(v)
        ref = _hull_k(_padded_matrix(v, _contraction_form(v), DEFAULT_TOL), DEFAULT_TOL)
        assert k.dim == ref.dim
        assert k.gap(ref) < 1e-12


def test_certificate_counts_what_the_hull_misses(monkeypatch):
    # The hull loses all five dark states of the absorbing chain at n = 23
    # and, at delta = 1e-8, the unitary direction Q e3 beside 1 - delta.
    # Fed that K, each engine's certificate counts the unimodular
    # eigenvalues it leaves on K-perp.
    monkeypatch.setattr(decompose, "_unitary_part", _hull_k)
    result = dissipative_decompose(Relation.from_operator(gen.absorbing_chain(23, (6,))))
    assert result.k.dim == 0
    cert = result.certificate("part_k_perp_completely_nonselfadjoint")
    assert cert.residual == 5 and not cert.passed
    rng = np.random.default_rng(0)
    missed = 0
    for _ in range(10):
        q = gen.random_unitary(rng, 3)
        v = Relation.from_operator(q @ np.diag([1 - 1e-8, 0.5, np.exp(1j)]) @ q.conj().T)
        result = nfl_decompose(v)
        if not result.k.contains(Subspace.span(q[:, 2:], ambient_dim=3)):
            missed += 1
            assert not result.passed
    assert missed > 0


def _planted(rng, first, second):
    """Q diag(first, second) Q* for a random unitary Q, and Q's leading
    columns, as many as ``first`` has."""
    k, n = first.shape[0], first.shape[0] + second.shape[0]
    blk = np.zeros((n, n), dtype=complex)
    blk[:k, :k] = first
    blk[k:, k:] = second
    q = gen.random_unitary(rng, n)
    return q @ blk @ q.conj().T, Subspace(q[:, :k])


def _assert_spectral_split(v, expected, tol):
    result = nfl_decompose(Relation.from_operator(v))
    assert result.k.dim == expected.dim
    assert result.k.gap(expected) < tol
    assert result.passed
    return result


def test_spectral_read_repeated_and_clustered_eigenvalues(rng):
    # eig returns no orthogonal eigenvectors for a repeated or clustered
    # eigenvalue, but they still span the unitary block.
    clusters = 0.7 + 1e-9 * np.arange(4)
    for unitary in (np.eye(4), np.eye(10), np.diag(np.exp(1j * clusters)),
                    np.diag(np.exp(1j * np.concatenate([clusters, clusters + 2])))):
        for _ in range(3):
            strict = gen.random_contraction_matrix(rng, 5)
            _assert_spectral_split(*_planted(rng, unitary, strict), 1e-12)


@pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8, 1e-9])
def test_spectral_read_beside_a_near_unimodular_eigenvalue(rng, delta):
    # K-perp holds the eigenvalue (1 - delta) e^{0.7i}, beside the unitary
    # e^{0.7i}, coupled to 0.5 by sqrt(delta) so that its eigenvectors are
    # not orthogonal.  Any K within eps / delta of the planted one reduces
    # V to rounding, so K is read to that accuracy, and its dimension
    # exactly.
    lam = np.exp(0.7j)
    strict = np.array([[(1 - delta) * lam, 0.3 * np.sqrt(delta)], [0.0, 0.5]])
    for _ in range(5):
        _assert_spectral_split(*_planted(rng, np.array([[lam]]), strict),
                               max(1e-12, 100 * np.finfo(float).eps / delta))


@pytest.mark.parametrize("m", [16, 64, 256])
def test_spectral_read_beside_a_nilpotent_jordan_block(rng, m):
    # Rounding scatters the eigenvalues of a nilpotent block of size m to
    # radius about eps^(1/m), 0.87 at m = 256, far inside the circle.
    _assert_spectral_split(*_planted(rng, gen.random_unitary(rng, 3), np.eye(m, k=-1)), 1e-12)


_THREADS_SCRIPT = """
import sys
import numpy as np
from relcalc import Relation, dissipative_decompose, nfl_decompose
sys.path.insert(0, {tests!r})
import gen
rng = np.random.default_rng(11)
v = gen.block_contraction(rng, 20, 140)[0]
h = gen.absorbing_chain(95, (24,))
np.savez({path!r}, nfl=nfl_decompose(v).k.frame,
         chain=dissipative_decompose(Relation.from_operator(h)).k.frame)
"""


def test_spectral_read_agrees_across_blas_thread_counts(tmp_path):
    # geev's blocked reductions round differently on one and two threads:
    # K must keep its dimension and agree within 1e-12 in the gap.
    frames = []
    for threads in ("1", "2"):
        path = tmp_path / f"k{threads}.npz"
        run_isolated(_THREADS_SCRIPT.format(tests=str(Path(__file__).parent), path=str(path)),
                     OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        frames.append(np.load(path))
    one, two = frames
    for name, dim in (("nfl", 20), ("chain", 23)):
        a, b = Subspace(one[name]), Subspace(two[name])
        assert a.dim == b.dim == dim
        assert a.gap(b) < 1e-12


def _hull_cases(rng, kind):
    """(contraction, dissipative operator) pairs of one kind: unitary /
    selfadjoint, completely nonunitary / nonselfadjoint, or both blocks.
    The truncated shift and the rank-one imaginary part make the hull grow
    over several rounds."""
    for _ in range(4):
        k, m = (int(d) for d in rng.integers(1, 5, size=2))
        k, m = {"unitary": (k + m, 0), "filling": (0, k + m), "mixed": (k, m)}[kind]
        dissipation = 1j * np.diag(np.arange(m) == m - 1)
        yield (
            _planted(rng, gen.random_unitary(rng, k), np.eye(m, k=-1))[0],
            _planted(rng, gen.hermitian(rng, k), gen.hermitian(rng, m) + dissipation)[0],
        )


@pytest.mark.parametrize("kind", ["unitary", "filling", "mixed"])
def test_hull_iterations_match_one_step_reference(rng, kind):
    # The engines read K from one eigendecomposition, so iterations is 1;
    # K-perp is the hull that grows span[D, D*] one full step at a time.
    for contraction, dissipative in _hull_cases(rng, kind):
        v = Relation.from_operator(contraction)
        a = Relation.from_operator(dissipative)
        for result, transform in ((nfl_decompose(v), v),
                                  (dissipative_decompose(a), z_transform(a, 1j))):
            n = result.k.ambient_dim
            matrix = operator_matrix(maximalize_contraction(transform))
            k_perp, steps = one_step_unitary_hull(matrix)
            assert result.iterations == 1
            assert result.k.complement().gap(k_perp) < 1e-8
            assert result.passed
            if kind == "unitary":
                assert result.k.dim == n and steps == 1
            elif kind == "filling":
                assert result.k.dim == 0
            else:
                assert 0 < result.k.dim < n


def test_nfl_hull_without_rank_cut_returns(rng):
    # K is read from the eigenvalues, so rank_tol = 0 still finds the three
    # unitary directions.  It keeps only exact zeros as shared directions,
    # so the restrictions to K come out empty and "reducing" fails: a right
    # K with a failed certificate, never a wrong K that passes.
    v, expected = gen.block_contraction(rng, 3, 3)
    result = nfl_decompose(v, ToleranceConfig(rank_tol=0.0))
    assert result.k.dim == 3
    assert result.k.gap(expected) < 1e-12
    assert not result.certificate("reducing").passed
    assert result.certificate("part_k_perp_completely_nonunitary").passed


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


def test_nfl_trivial_k_keeps_the_relation(rng):
    # K = {0}: the part on K-perp = C^n is V itself, and it reduces exactly
    v = Relation.from_operator(gen.random_contraction_matrix(rng, 6))
    result = nfl_decompose(v)
    assert result.k.dim == 0
    assert result.part_k_perp is v
    assert result.certificate("reducing").residual == 0.0


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


def test_nfl_k_inside_domain_residual(rng):
    # A block contraction restricted to its unitary part plus one more
    # direction keeps that unitary part as K, inside a proper domain.  The
    # certificate reports ||(I - P_dom) K||_2, not a 0/1 verdict.
    for _ in range(5):
        v, unitary = gen.block_contraction(rng, 2, 3)
        dom = Subspace.span(np.hstack([unitary.frame, unitary.complement().frame[:, :1]]),
                            ambient_dim=5)
        partial = v.restrict_domain(dom)
        result = nfl_decompose(partial)
        assert result.k.dim == 2 and result.passed
        d = partial.dom().frame
        expected = np.linalg.norm(result.k.frame - d @ (d.conj().T @ result.k.frame), 2)
        cert = result.certificate("k_inside_domain")
        assert 0.0 < cert.residual < cert.tolerance
        assert cert.residual == pytest.approx(expected, rel=0.0, abs=1e-14)


def test_nfl_unitary_conjugation_covariance(rng):
    v, _ = gen.block_contraction(rng, 2, 2)
    q = gen.random_unitary(rng, 4)
    conj = v.conjugate_by(q)
    k = nfl_decompose(v).k
    k_conj = nfl_decompose(conj).k
    assert k_conj.gap(Subspace.span(q @ k.frame, ambient_dim=4)) < 1e-8


def test_engines_take_k_perp_from_the_hull(rng, monkeypatch):
    # K is read from one eigendecomposition of the padded matrix and K-perp
    # is its one complement.  The certificate on K-perp is one eigenvalue
    # count of the compressed part's own padded matrix, and no hull runs.
    v, _ = gen.block_contraction(rng, 2, 3)
    l = z_transform(gen.block_contraction(rng, 2, 3)[0], 1j)
    complements = []
    complement = Subspace.complement

    def counted(space):
        complements.append(space.dim)
        return complement(space)

    def no_hull(*args):
        raise AssertionError("the unitary part is read without a hull")

    monkeypatch.setattr(Subspace, "complement", counted)
    monkeypatch.setattr(decompose, "_invariant_hull", no_hull)
    calls = record_linalg_calls(monkeypatch)
    for engine, relation in ((nfl_decompose, v), (dissipative_decompose, l)):
        complements.clear()
        calls.clear()
        result = engine(relation)
        assert result.passed and result.k.dim == 2
        assert complements == [2]
        assert [c for c in calls if c[0] in ("eig", "eigvals")] == [
            ("eig", (5, 5), True), ("eigvals", (3, 3), False)]


def test_nfl_rejects_noncontraction():
    with pytest.raises(ValueError, match="relation is not a contraction"):
        nfl_decompose(Relation.from_operator(3.0 * np.eye(2)))
    with pytest.raises(ValueError, match="relation is not a contraction"):
        unitary_part_subspace(Relation.from_operator(3.0 * np.eye(2)))


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
    with pytest.raises(ValueError, match="not an everywhere-defined isometry"):
        wold_decompose(Relation.from_pairs(pairs))
    with pytest.raises(ValueError, match="not an everywhere-defined isometry"):
        wold_decompose(Relation.from_operator(0.5 * np.eye(2)))


# A loose psd_tol lets contractions that are not isometries through the
# precondition; it is the only way to reach a nonzero wandering space.
LOOSE = ToleranceConfig(psd_tol=1.0)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_wold_nilpotent_shift_wandering_sum(n):
    # ran V^m shrinks to {0}; the images of L = span{e1} are e2, ..., en
    result = wold_decompose(Relation.from_operator(np.eye(n, k=-1)), LOOSE)
    assert result.k.dim == 0
    assert result.wandering.gap(Subspace.from_basis_indices(n, [0])) < 1e-12
    for name in ("complement_is_wandering_sum", "wandering_images_orthogonal"):
        assert result.certificate(name).passed
        assert result.certificate(name).residual == 0.0


def test_wold_wandering_images_not_orthogonal():
    # L = span{e1} maps to e2, and e2 to (e2 + e3)/sqrt 2, which leans on
    # the sum span{e1, e2} at 45 degrees; the full sum is not mapped again
    s = 1 / np.sqrt(2)
    m = np.array([[0, 0, 0], [1, s, 0], [0, s, 0]])
    cert = wold_decompose(Relation.from_operator(m), LOOSE).certificate(
        "wandering_images_orthogonal")
    assert not cert.passed
    assert abs(cert.residual - s) < 1e-12


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
    with pytest.raises(ValueError, match="not dissipative"):
        dissipative_decompose(Relation.from_operator(np.array([[-1j]])))


# Multiples of psd_tol for the dissipation -s of the planted eigenvalue
# -s i; the edge is at 0.5, where the form reads -2s.
EDGE_MULTIPLES = [0.3, 0.4, 0.45, 0.49, 0.51, 0.55, 0.7, 0.9, 1.0, 1.2, 1.5]


@pytest.mark.parametrize("rotated", [False, True])
def test_dissipative_agrees_with_transform_contraction_at_psd_edge(rng, rotated):
    # The contraction form of Z_i(T) is T's dissipation form, so under one
    # psd_tol T is dissipative exactly when Z_i(T) is a contraction, and
    # symmetric exactly when it is an isometry.
    for multiple in EDGE_MULTIPLES + [0.5]:
        q = gen.random_unitary(rng, 2) if rotated else np.eye(2)
        s = multiple * DEFAULT_TOL.psd_tol
        t = Relation.from_operator(q @ np.diag([1.0, -s * 1j]) @ q.conj().T)
        rep, rep_z = classify(t), classify(z_transform(t, 1j))
        if multiple != 0.5:  # at the edge itself rounding decides
            assert rep.is_dissipative == rep_z.is_contraction == (multiple < 0.5)
            assert rep.is_symmetric == rep_z.is_isometry == (multiple < 0.5)
        try:
            result = dissipative_decompose(t)
        except ValueError as exc:
            assert str(exc) == "relation is not dissipative"
            assert not rep.is_dissipative
        else:
            assert rep.is_dissipative and result.passed


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
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_wold_decompose(Relation.from_operator(1j * np.eye(2)))
    # symmetric but not maximal: a proper restriction of a Hermitian operator
    a = Relation.from_operator(np.diag([1.0, 2.0])).restrict_domain(
        Subspace.from_basis_indices(2, [0])
    )
    with pytest.raises(ValueError, match="not maximal"):
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
    k = relation.adjoint().deficiency(-1j, cfg).dom(cfg)
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


def _assert_matches_row_space_chain(a, cfg=DEFAULT_TOL):
    result = symmetric_wold_decompose(a, cfg, require_maximal=False)
    k_ref, rounds_ref = row_space_image_chain(a, cfg)
    assert result.k.dim == k_ref.dim
    assert result.iterations == rounds_ref
    assert result.k.gap(k_ref) < 1e-12
    # L = (ran V)-perp is ker(T* + i), the adjoint route's wandering space.
    assert result.wandering.gap(a.adjoint().deficiency(-1j, cfg).dom(cfg)) < 1e-12
    return result


def test_image_chain_matches_row_space_reference(rng):
    for _ in range(60):
        chains = [int(k) for k in rng.integers(1, 6, size=rng.integers(1, 4))]
        _assert_matches_row_space_chain(
            gen.random_shift_symmetric(rng, chains, int(rng.integers(0, 3)))[0])
    for _ in range(60):
        _assert_matches_row_space_chain(gen.random_symmetric(rng, int(rng.integers(2, 9))))
    for n in (16, 32, 64, 128):
        result = _assert_matches_row_space_chain(build_multivalued_extension(WindowConfig(n=n)))
        assert result.k.dim == n - 1 and result.iterations == n - 1


@pytest.mark.parametrize("sine", [0.5e-10, 0.9e-10, 1.2e-10, 1.5e-10, 3e-10])
def test_image_chain_planted_sine_at_the_cut(rng, sine):
    # The transform is isometric, so a unit coefficient has |Fc| = 1/sqrt(2):
    # the residual cut at rank_tol is a sine cut at sqrt(2) * rank_tol.
    # Reading x as found lets the chain reach a3 and e, the whole space.
    a, first_three = gen.planted_sine_symmetric(rng, sine)
    result = _assert_matches_row_space_chain(a)
    if sine <= np.sqrt(2) * DEFAULT_TOL.rank_tol:
        assert result.k.dim == 5
    else:
        assert result.k.dim == 3
        assert result.k.gap(first_three) < 1e-12


def test_image_chain_oblique_steps(rng, monkeypatch):
    # Steps that leave from a tilted vector are touched, but not found, one
    # round before their last direction arrives.  Sines above 1/sqrt(2)
    # keep them among the carried coefficients, smaller ones move them to
    # the coefficients that are split again every round.
    rounds = record_chain_rounds(monkeypatch)
    for low, high in ((0.75, 0.95), (1e-2, 0.6)):
        for _ in range(20):
            lengths = [int(k) for k in rng.integers(2, 6, size=rng.integers(2, 4))]
            sines = rng.uniform(low, high, size=len(lengths) - 1)
            a, chains = gen.oblique_step_symmetric(rng, lengths, sines, int(rng.integers(0, 3)))
            result = _assert_matches_row_space_chain(a)
            assert result.k.gap(chains) < 1e-12
    splits = [split for r in rounds for split in r["splits"]]
    carried = [c for c, _, _ in splits]
    rereads = [r for _, r, _ in splits]
    assert max(carried) > 0 and max(rereads) > 0


def test_image_chain_small_sines_are_read_again(rng, monkeypatch):
    # A step at a sine near 1e-7 has a residual direction that rounding
    # blurs by eps / 1e-7, above the cut; the chain re-reads it from F
    # instead of carrying it, and agrees with the reference.
    rounds = record_chain_rounds(monkeypatch)
    for sine in 10 ** rng.uniform(-7.5, -6.5, size=6):
        a, first_three = gen.planted_sine_symmetric(rng, sine)
        result = _assert_matches_row_space_chain(a)
        assert result.k.gap(first_three) < 1e-12
    assert any(r > 0 for rnd in rounds for _, r, _ in rnd["splits"])


def test_image_chain_without_rank_cut_returns():
    # With rank_tol = 0 only exact zeros are found; the chain still ends.
    w = WindowConfig(n=16)
    result = symmetric_wold_decompose(
        build_multivalued_extension(w), ToleranceConfig(rank_tol=0.0), require_maximal=False)
    assert result.k.ambient_dim == 16


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
    with pytest.raises(ValueError, match="not symmetric"):
        von_neumann_check(Relation.from_operator(1j * np.eye(2)))
