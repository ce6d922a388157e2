import re

import numpy as np
import pytest

from relcalc import (
    Relation,
    SpectralPointClass,
    Subspace,
    ToleranceConfig,
    classify,
    classify_point,
    operator_matrix,
)
from relcalc.relation import (
    _contraction_form,
    _deficiency_dim,
    _dissipation_form,
    _is_symmetric,
    _max_abs_eig,
    _min_eig,
    _shifted_range_dim,
)

import gen
from reference import (
    kernel_image,
    lifted_add,
    lifted_compose,
    lifted_restrict_domain,
    line_deficiency,
)

CFG = ToleranceConfig()
DEFICIENCY_POINTS = [1j, -1j, 2j, 0.0, 1.0, 1.0 + 1j]


def _pair_relation(pairs, n=None):
    return Relation.from_pairs(pairs, n=n)


# -- construction ------------------------------------------------------


def test_from_operator_zero():
    t = Relation.from_operator(np.zeros((2, 2)))
    assert t.ran().dim == 0
    assert t.ker().gap(Subspace.full(2)) < 1e-12


def test_from_operator_scalar():
    t = Relation.from_operator(np.array([[1j]]))
    expected = _pair_relation([(np.array([1.0]), np.array([1j]))])
    assert t.gap(expected) < 1e-12


def test_from_operator_graph_dim(rng):
    m = gen.complex_matrix(rng, 4, 4)
    t = Relation.from_operator(m)
    # rank oracle on the stacked generators
    assert np.linalg.matrix_rank(np.vstack([np.eye(4), m])) == 4
    assert t.graph.dim == 4


def test_from_pairs_multivalued():
    t = _pair_relation([(np.array([0.0]), np.array([1.0]))])
    assert t.dom().dim == 0
    assert t.mul().gap(Subspace.full(1)) < 1e-12


def test_from_pairs_empty_is_zero_relation():
    t = Relation.from_pairs([], n=3)
    assert t.graph.dim == 0
    assert t.n == 3
    with pytest.raises(ValueError):
        Relation.from_pairs([])


def test_from_pairs_duplicates_collapse():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert np.linalg.matrix_rank(np.column_stack([np.r_[e1, e2]] * 2)) == 1
    t = _pair_relation([(e1, e2), (e1, e2)])
    assert t.graph.dim == 1


# -- graph parts -------------------------------------------------------


def test_graph_parts_purely_multivalued():
    t = _pair_relation([(np.array([0.0]), np.array([1.0]))])
    dom, ran, ker, mul = t.graph_parts()
    assert dom.dim == 0 and ker.dim == 0
    assert ran.dim == 1 and mul.dim == 1


def test_graph_parts_nilpotent():
    t = Relation.from_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    dom, ran, ker, mul = t.graph_parts()
    e1 = Subspace.from_basis_indices(2, [0])
    assert dom.gap(Subspace.full(2)) < 1e-12
    assert ran.gap(e1) < 1e-12
    assert ker.gap(e1) < 1e-12
    assert mul.dim == 0


# -- algebra -----------------------------------------------------------


def test_inverse_involution(rng):
    for _ in range(10):
        t = gen.random_relation(rng, 4)
        assert t.inverse().inverse().gap(t) < 1e-12


def test_compose_matrix_oracle(rng):
    a = gen.complex_matrix(rng, 3, 3)
    b = gen.complex_matrix(rng, 3, 3)
    lhs = Relation.from_operator(b).compose(Relation.from_operator(a))
    assert lhs.gap(Relation.from_operator(b @ a)) < 1e-10


def _projector_onto_span(mat, tol=1e-10):
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    q = u[:, : int(np.count_nonzero(s > tol))]
    return q @ q.conj().T


def test_compose_every_left_graph_dim_null_space_oracle(rng):
    # {0} o I = {0}: the left factor's graph has dimension 0, not n
    assert Relation.zero(2).compose(Relation.identity(2)).graph.dim == 0
    for n in (1, 2, 3):
        for graph_dim in range(2 * n + 1):
            s = gen.random_relation(rng, n, graph_dim)
            t = gen.random_relation(rng, n)
            # (f, g) = (F_T x, G_T x) and (g, k) = (F_S y, G_S y): the
            # coefficient pairs (x, y) form the null space of [G_T, -F_S]
            _, sv, vh = np.linalg.svd(np.hstack([t.G, -s.F]))
            xy = vh[int(np.count_nonzero(sv > 1e-10)) :].conj().T
            a = t.graph.dim
            expected = np.vstack([t.F @ xy[:a], s.G @ xy[a:]])
            got = s.compose(t).graph.projector()
            assert np.linalg.norm(got - _projector_onto_span(expected), 2) < 1e-9


def test_add_cancellation_on_operator(rng):
    m = gen.complex_matrix(rng, 3, 3)
    t = Relation.from_operator(m)
    s = t.add(t.scale(-1.0))
    # {(f, 0) : f in C^n}
    expected = Relation.from_operator(np.zeros((3, 3)))
    assert s.gap(expected) < 1e-10


def test_add_respects_domains():
    # domains intersect in {0}: the sum is the zero relation
    t = Relation.from_operator(np.eye(2)).restrict_domain(Subspace.from_basis_indices(2, [0]))
    s = Relation.from_operator(np.eye(2)).restrict_domain(Subspace.from_basis_indices(2, [1]))
    assert t.add(s).graph.dim == 0


def _assert_sum_and_composition_match_lifted(s, t, cfg=CFG):
    for got, ref in ((s.add(t, cfg), lifted_add(s, t, cfg)),
                     (s.compose(t, cfg), lifted_compose(s, t, cfg))):
        assert got.graph.dim == ref.graph.dim
        assert got.gap(ref) < 1e-12


def test_add_and_compose_match_lifted_reference(rng):
    # every pair of graph dimensions, in both orders, for n up to 6
    for n in range(1, 7):
        for left_dim in range(2 * n + 1):
            for right_dim in range(2 * n + 1):
                s = gen.random_relation(rng, n, left_dim)
                t = gen.random_relation(rng, n, right_dim)
                _assert_sum_and_composition_match_lifted(s, t)


def _algebra_families(rng, n):
    space = gen.random_subspace(rng, n, int(rng.integers(1, n + 1)))
    op = Relation.from_operator(gen.complex_matrix(rng, n, n))
    return [
        op,
        op.restrict_domain(gen.random_subspace(rng, n)),
        gen.random_dissipative(rng, n, multivalued=True),
        Relation.from_graph_matrix(np.zeros((n, space.dim)), space.frame),  # {0} x M
        Relation.from_graph_matrix(space.frame, np.zeros((n, space.dim))),  # M x {0}
        Relation.zero(n),
        Relation(Subspace.full(2 * n)),
    ]


def test_add_and_compose_match_lifted_reference_on_families(rng):
    # operators, partial operators, multivalued and zero-domain relations
    for n in range(1, 6):
        for _ in range(2):
            families = _algebra_families(rng, n)
            for s in families:
                for t in families:
                    _assert_sum_and_composition_match_lifted(s, t)


def test_add_and_compose_match_lifted_reference_at_a_coarse_cut(rng):
    # At rank_tol = 0.5 the lifted reference keeps sines up to 0.707, and
    # its intersection raises where their halfway points are not
    # orthonormal to 1e-8; everywhere else the answers must agree.
    cfg = ToleranceConfig(rank_tol=0.5)
    compared = total = 0
    for n in range(1, 5):
        for left_dim in range(2 * n + 1):
            for right_dim in range(2 * n + 1):
                s = gen.random_relation(rng, n, left_dim)
                t = gen.random_relation(rng, n, right_dim)
                for op, ref in ((s.add, lifted_add), (s.compose, lifted_compose)):
                    got, total = op(t, cfg), total + 1
                    try:
                        expected = ref(s, t, cfg)
                    except ValueError as exc:
                        assert "not orthonormal" in str(exc)
                        continue
                    compared += 1
                    assert got.graph.dim == expected.graph.dim
                    assert got.gap(expected) < 1e-12
    assert compared >= total // 3


def _near_cut_pair(rng, tilt):
    # The domains of s and t share e3 exactly and e1 only up to ``tilt``,
    # and so do the range of s_range and the domain of t: the pairs of
    # s + t and of t o s_range.  Small graph blocks keep the sine near the
    # tilt, so the grid below straddles the cut.
    q = gen.random_unitary(rng, 3)
    e = np.eye(3)
    u = np.cos(tilt) * e[:, 0] + np.sin(tilt) * e[:, 1]
    c = 0.1 * gen.complex_matrix(rng, 3, 4)
    s = Relation.from_pairs([(q @ e[:, 0], q @ c[:, 0]), (q @ e[:, 2], q @ c[:, 1])])
    t = Relation.from_pairs([(q @ u, q @ c[:, 2]), (q @ e[:, 2], q @ c[:, 3])])
    s_range = Relation.from_pairs([(q @ c[:, 0], q @ e[:, 0]), (q @ c[:, 1], q @ e[:, 2])])
    return (s, t), (t, s_range)


def test_add_and_compose_keep_the_lifted_dimension_at_the_cut(rng):
    seen = set()
    for tilt in np.geomspace(5e-11, 3e-10, 40):
        (s, t), (left, right) = _near_cut_pair(rng, tilt)
        for got, ref in ((s.add(t), lifted_add(s, t)),
                         (left.compose(right), lifted_compose(left, right))):
            assert got.graph.dim == ref.graph.dim
            seen.add(got.graph.dim)
    assert seen == {1, 2}  # the grid keeps e1 below the cut and loses it above


def test_scale_zero_keeps_domain():
    t = Relation.from_operator(np.diag([1.0, 2.0]))
    s = t.scale(0.0)
    assert s.dom().gap(Subspace.full(2)) < 1e-12
    assert s.ran().dim == 0


def test_operator_sugar(rng):
    t = gen.random_relation(rng, 3)
    assert (2j * t).gap(t.scale(2j)) == 0.0
    assert (-t).gap(t.scale(-1.0)) == 0.0


# -- adjoint -----------------------------------------------------------


def test_adjoint_scalar():
    a = 2.0 + 3.0j
    t = Relation.from_operator(np.array([[a]]))
    assert t.adjoint().gap(Relation.from_operator(np.array([[np.conj(a)]]))) < 1e-12


def test_adjoint_purely_multivalued_is_selfadjoint():
    t = _pair_relation([(np.array([0.0]), np.array([1.0]))])
    assert t.adjoint().gap(t) < 1e-12
    assert classify(t).is_selfadjoint
    assert not classify(t).is_operator


def test_adjoint_involution(rng):
    for _ in range(20):
        t = gen.random_relation(rng, int(rng.integers(1, 6)))
        assert t.adjoint().adjoint().gap(t) < 1e-10


def test_adjoint_inner_product_characterization(rng):
    # <k, f> = <h, g> for all graph pairs, checked directly
    for _ in range(10):
        t = gen.random_relation(rng, 4)
        adj = t.adjoint()
        h, k = adj.F, adj.G
        f, g = t.F, t.G
        residual = np.abs(k.conj().T @ f - h.conj().T @ g)
        assert residual.max(initial=0.0) < 1e-10


def test_adjoint_identities_suite(rng):
    for _ in range(40):
        n = int(rng.integers(1, 6))
        t = gen.random_relation(rng, n)
        s_small = Relation(gen._sub_subspace(rng, t.graph, int(rng.integers(0, t.graph.dim + 1))))
        alpha = complex(rng.standard_normal(), rng.standard_normal()) + 0.1
        adj = t.adjoint()
        # containment reversal
        assert s_small.adjoint().graph.contains(adj.graph)
        # (alpha T)* = conj(alpha) T*
        assert t.scale(alpha).adjoint().gap(adj.scale(np.conj(alpha))) < 1e-9
        # (T*)^{-1} = (T^{-1})*
        assert adj.inverse().gap(t.inverse().adjoint()) < 1e-9
        # ker T* = (ran T)^perp
        assert adj.ker().gap(t.ran().complement()) < 1e-9


# -- restrictions and deficiency ---------------------------------------


def test_restrict_full_and_zero(rng):
    t = gen.random_relation(rng, 3)
    assert t.restrict(Subspace.full(3)).gap(t) < 1e-10
    assert t.restrict(Subspace.zero(3)).graph.dim == 0


def test_restrict_to_whole_space_is_the_relation(rng):
    # K (+) K is the whole doubled space, so the graph meets it in itself
    t = gen.random_relation(rng, 3)
    assert t.restrict(Subspace.full(3)) is t
    assert t.restrict(Subspace(gen.random_unitary(rng, 3))) is t


def test_restrict_diagonal():
    t = Relation.from_operator(np.diag([1.0, 2.0]))
    e1 = np.array([1.0, 0.0])
    restricted = t.restrict(Subspace.from_basis_indices(2, [0]))
    assert restricted.gap(_pair_relation([(e1, e1)])) < 1e-12


def test_restrict_domain(rng):
    m = gen.complex_matrix(rng, 3, 3)
    t = Relation.from_operator(m)
    assert t.restrict_domain(Subspace.full(3)).gap(t) < 1e-10
    e1 = np.zeros(3)
    e1[0] = 1.0
    restricted = t.restrict_domain(Subspace.from_basis_indices(3, [0]))
    assert restricted.gap(_pair_relation([(e1, m @ e1)])) < 1e-10


def test_deficiency_eigen_oracle():
    m = np.diag([1j, 2j])
    eigvals, eigvecs = np.linalg.eig(m)
    assert np.isclose(eigvals[0], 1j)
    t = Relation.from_operator(m)
    d = t.deficiency(1j)
    assert d.dom().gap(Subspace.from_basis_indices(2, [0])) < 1e-12
    # point not in the spectrum
    assert t.deficiency(5.0).graph.dim == 0


def _relation_with_eigenpairs(rng, n, graph_dim, zeta):
    """A random graph of dimension ``graph_dim`` holding a random number of
    pairs (f, zeta f)."""
    lines = int(rng.integers(0, min(graph_dim, n) + 1))
    f = gen.complex_matrix(rng, n, lines)
    planted = np.vstack([f, zeta * f])
    rest = gen.complex_matrix(rng, 2 * n, graph_dim - lines)
    return Relation(Subspace.span(np.hstack([planted, rest]), ambient_dim=2 * n))


@pytest.mark.parametrize("zeta", DEFICIENCY_POINTS)
def test_deficiency_matches_line_reference(rng, zeta):
    # graph dimension below, at and above n, with and without planted pairs
    for _ in range(40):
        n = int(rng.integers(1, 7))
        for graph_dim in (int(rng.integers(0, n)), n, int(rng.integers(n, 2 * n + 1))):
            for t in (gen.random_relation(rng, n, graph_dim),
                      _relation_with_eigenpairs(rng, n, graph_dim, zeta)):
                ref = line_deficiency(t, zeta)
                got = t.deficiency(zeta)
                assert got.graph.dim == ref.graph.dim
                assert got.gap(ref) < 1e-12
    for t in (Relation.zero(3), Relation(Subspace.full(6)), Relation.zero(0)):
        assert t.deficiency(zeta).graph.dim == line_deficiency(t, zeta).graph.dim


@pytest.mark.parametrize("theta", [0.5e-10, 0.9e-10, 1.2e-10, 1.35e-10, 1.5e-10, 3e-10])
@pytest.mark.parametrize("zeta", [1j, 2j, 0.0, 1.0 + 1j])
def test_deficiency_planted_angle(rng, theta, zeta):
    # one graph vector at the angle theta from the line {(f, zeta f)}, the
    # others orthogonal to it: the direction is kept exactly when
    # sin(theta) <= sqrt(2) * rank_tol
    expected = 1 if np.sin(theta) <= np.sqrt(2) * CFG.rank_tol else 0
    norm = np.sqrt(1 + abs(zeta) ** 2)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        u, v = gen.random_unitary(rng, n), gen.random_unitary(rng, n)
        on_line = np.vstack([u, zeta * u]) / norm
        off_line = np.vstack([-np.conj(zeta) * v, v]) / norm
        tilted = np.cos(theta) * on_line[:, 0] + np.sin(theta) * off_line[:, 0]
        extra = off_line[:, 1:int(rng.integers(1, n + 1))]
        t = Relation(Subspace.span(np.column_stack([tilted, extra]), ambient_dim=2 * n))
        ref = line_deficiency(t, zeta)
        got = t.deficiency(zeta)
        assert got.graph.dim == ref.graph.dim == expected
        if expected:
            assert got.dom().gap(Subspace.span(u[:, :1], ambient_dim=n)) < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("zeta", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, float("1e400")),
                                  1e155, 1e200, 1e155j, -1e200j, complex(1e154, 1e154)])
def test_non_finite_zeta_rejected(rng, zeta):
    # Past |zeta| = 1.34e154 the square |zeta|^2 is not a finite float.
    # scale never squares zeta, so it rejects only a non-finite one.
    t = gen.random_relation(rng, 3)
    calls = [lambda: t.deficiency(zeta), lambda: classify_point(t, zeta),
             lambda: _deficiency_dim(t, zeta, CFG)]
    if np.isfinite(zeta):
        assert t.scale(zeta).n == 3
    else:
        calls.append(lambda: t.scale(zeta))
    for call in calls:
        with pytest.raises(ValueError, match="zeta must be finite"):
            call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("zeta", [1e154, -1e154j, 1.34e154])
def test_zeta_of_modulus_up_to_1e154_accepted(rng, zeta):
    t = gen.random_relation(rng, 3, 3)
    dim = _deficiency_dim(t, zeta, CFG)
    assert t.deficiency(zeta).graph.dim == dim
    assert isinstance(classify_point(t, zeta), SpectralPointClass)


def test_image(rng):
    m = gen.complex_matrix(rng, 4, 4)
    t = Relation.from_operator(m)
    sub = gen.random_subspace(rng, 4, 2)
    img = t.image(sub)
    assert img.gap(Subspace.span(m @ sub.frame, ambient_dim=4)) < 1e-10


def test_restrict_domain_and_image_match_references(rng):
    # every graph dimension and every dimension of M, for n up to 8
    for n in range(1, 9):
        for graph_dim in range(2 * n + 1):
            for space_dim in range(n + 1):
                t = gen.random_relation(rng, n, graph_dim)
                space = gen.random_subspace(rng, n, space_dim)
                got, ref = t.restrict_domain(space), lifted_restrict_domain(t, space)
                assert got.graph.dim == ref.graph.dim
                assert got.gap(ref) < 1e-12
                got, ref = t.image(space), kernel_image(t, space)
                assert got.dim == ref.dim
                assert got.gap(ref) < 1e-12


@pytest.mark.parametrize("sine", [0.9e-10, 1.2e-10, 1.5e-10])
def test_image_planted_sine_agrees_with_restrict_domain(sine):
    # One graph vector (f, g) with f at the sine ``sine`` off M = span{e1}.
    # Both read it at the cut sqrt(2) * rank_tol; the old image cut at
    # rank_tol, so at 1.2e-10 it dropped what restrict_domain kept.
    half = np.sqrt((1 - sine ** 2) / 2)
    t = Relation(Subspace(np.array([[half], [sine], [0.0], [half]], dtype=complex)))
    space = Subspace.from_basis_indices(2, [0])
    expected = 1 if sine <= np.sqrt(2) * CFG.rank_tol else 0
    assert t.image(space).dim == t.restrict_domain(space).ran().dim == expected
    assert kernel_image(t, space).dim == (1 if sine <= CFG.rank_tol else 0)


# -- classification ----------------------------------------------------


def test_classify_dissipative_scalar():
    rep = classify(Relation.from_operator(np.array([[1j]])))
    assert rep.is_dissipative and not rep.is_symmetric
    assert rep.is_maximal_dissipative


def test_classify_contraction_not_isometry():
    u = np.exp(0.7j)
    rep = classify(Relation.from_operator(np.diag([u, 0.5])))
    assert rep.is_contraction
    assert not rep.is_isometry
    assert not rep.is_unitary


def test_classify_unitary(rng):
    rep = classify(Relation.from_operator(gen.random_unitary(rng, 3)))
    assert rep.is_unitary and rep.is_isometry and rep.is_contraction


def test_classify_implications(rng):
    for _ in range(60):
        t = gen.random_relation(rng, int(rng.integers(1, 6)))
        rep = classify(t)
        if rep.is_unitary:
            assert rep.is_isometry
        if rep.is_isometry:
            assert rep.is_contraction
        if rep.is_selfadjoint:
            assert rep.is_symmetric
        if rep.is_symmetric:
            assert rep.is_dissipative


def test_classify_witness(rng):
    t = Relation.from_operator(np.array([[-1j]]))
    rep = classify(t)
    assert not rep.is_dissipative
    f, g = rep.witness[:1], rep.witness[1:]
    assert (f.conj() @ g).imag < 0


def _form_readings(t):
    diss = _dissipation_form(t)
    contr = _contraction_form(t)
    return {
        "dissipation_min_eig": _min_eig(diss),
        "symmetry_deviation": _max_abs_eig(diss),
        "contraction_min_eig": _min_eig(contr),
        "isometry_deviation": _max_abs_eig(contr),
    }


def test_form_readers_match_classify_bit_for_bit(rng):
    # The engines read single verdicts from the forms; they must agree
    # exactly with the full report, on every graph dimension.
    cases = []
    for n in (1, 3, 4):
        cases += [gen.random_relation(rng, n, d) for d in range(2 * n + 1)]
        cases += [gen.random_dissipative(rng, n), gen.random_symmetric(rng, n),
                  gen.random_contraction_relation(rng, n), gen.random_isometry_relation(rng, n)]
    cases.append(gen.random_shift_symmetric(rng, [2], 1)[0])
    assert {t.graph.dim for t in cases} >= set(range(9))
    for t in cases:
        rep = classify(t)
        readings = _form_readings(t)
        assert readings == {key: rep.residuals[key] for key in readings}
        assert _is_symmetric(t, CFG) == rep.is_symmetric
        assert float(t.n - _shifted_range_dim(t, CFG)) == rep.residuals["shifted_range_codim"]
    empty = _form_readings(Relation.zero(3))
    assert empty == dict.fromkeys(empty, 0.0)


def _eigh_forms(t):
    """eigh of the dissipation and contraction forms, written out here."""
    f, g = t.F, t.G
    forms = ((f.conj().T @ g - g.conj().T @ f) / 1j, f.conj().T @ f - g.conj().T @ g)
    return [np.linalg.eigh(form) if form.shape[0] else (np.zeros(0), None) for form in forms]


def _classify_families(rng):
    cases = []
    for n in (1, 2, 4):
        cases += [gen.random_relation(rng, n, d) for d in range(2 * n + 1)]
    for _ in range(4):
        for n in (2, 3, 5):
            cases += [gen.random_dissipative(rng, n), gen.random_symmetric(rng, n),
                      gen.random_contraction_relation(rng, n), gen.random_isometry_relation(rng, n),
                      gen.random_selfadjoint(rng, n), gen.random_dissipative(rng, n, maximal=True),
                      gen.block_contraction(rng, 2, n)[0],
                      gen.random_shift_symmetric(rng, [n], 1)[0]]
    # Form eigenvalues planted at half and twice psd_tol past each edge:
    # an eigenvalue mu of a normal operator has dissipation eigenvalue
    # 2 Im mu / (1 + |mu|^2) and contraction eigenvalue (1 - |mu|^2) / (1 + |mu|^2).
    for offset in (0.5, 2.0):
        q = gen.random_unitary(rng, 3)
        for diag in ([-offset * CFG.psd_tol / 2 * 1j, 0.5j, 0.2],
                     [1 + offset * CFG.psd_tol, 0.5, 0.1j]):
            cases.append(Relation.from_operator(q @ np.diag(diag) @ q.conj().T))
    return cases


def test_classify_verdicts_and_witness_match_eigh_of_the_forms(rng):
    # classify reads its verdicts from eigenvalues alone and takes eigh
    # only for the witness, of the form that failed: the witness is that
    # eigh's first eigenvector bit for bit, and every verdict and residual
    # agrees with eigh's eigenvalues.
    witnesses = 0
    for t in _classify_families(rng):
        rep = classify(t)
        (w, vecs), (w2, vecs2) = _eigh_forms(t)
        is_dissipative = _min_eig(w) >= -CFG.psd_tol
        is_contraction = _min_eig(w2) >= -CFG.psd_tol
        assert (rep.is_dissipative, rep.is_symmetric, rep.is_contraction, rep.is_isometry) == (
            is_dissipative, _max_abs_eig(w) <= CFG.psd_tol,
            is_contraction, _max_abs_eig(w2) <= CFG.psd_tol)
        expected = {"dissipation_min_eig": _min_eig(w), "symmetry_deviation": _max_abs_eig(w),
                    "contraction_min_eig": _min_eig(w2), "isometry_deviation": _max_abs_eig(w2)}
        for key, value in expected.items():
            assert abs(rep.residuals[key] - value) <= 1e-14
        if not is_dissipative:
            assert np.array_equal(rep.witness, t.graph.frame @ vecs[:, 0])
        elif not is_contraction:
            assert np.array_equal(rep.witness, t.graph.frame @ vecs2[:, 0])
        else:
            assert rep.witness is None
        witnesses += rep.witness is not None
    assert witnesses > 20


def test_selfadjoint_examples(rng):
    for _ in range(10):
        t = gen.random_selfadjoint(rng, 4)
        rep = classify(t)
        assert rep.is_selfadjoint and rep.is_symmetric and rep.is_maximal_dissipative


def test_maximal_dissipative_domain_identity(rng):
    # dom T = (mul T)^perp for maximal dissipative relations
    for _ in range(20):
        t = gen.random_dissipative(rng, 4, maximal=True)
        rep = classify(t)
        assert rep.is_maximal_dissipative
        assert t.dom().gap(t.mul().complement()) < 1e-9


def test_operator_matrix_roundtrip(rng):
    m = gen.complex_matrix(rng, 3, 3)
    t = Relation.from_operator(m)
    assert np.linalg.norm(operator_matrix(t) - m) < 1e-10
    with pytest.raises(ValueError):
        operator_matrix(_pair_relation([(np.array([0.0]), np.array([1.0]))]))


# -- spectral points ----------------------------------------------------


def test_classify_point_examples():
    nilpotent = Relation.from_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert classify_point(nilpotent, 0.0) is SpectralPointClass.POINT
    assert classify_point(Relation.identity(2), 2.0) is SpectralPointClass.REGULAR

    # truncated shift: trivial kernel, proper range
    pairs = []
    for k in range(3):
        f = np.zeros(4)
        g = np.zeros(4)
        f[k] = 1.0
        g[k + 1] = 1.0
        pairs.append((f, g))
    shift = _pair_relation(pairs)
    assert shift.ker().dim == 0
    assert shift.ran().gap(Subspace.from_basis_indices(4, [1, 2, 3])) < 1e-12
    assert classify_point(shift, 0.0) is SpectralPointClass.RESIDUAL


def test_classify_point_full_multiplicity():
    t = Relation.from_operator(2.5j * np.eye(3))
    assert classify_point(t, 2.5j) is SpectralPointClass.POINT


def test_residual_conjugate_in_adjoint_point_spectrum(rng):
    found = 0
    samples = [0.0, 1.0, 1j, -1j, 0.5 - 0.5j]
    for _ in range(40):
        t = gen.random_relation(rng, int(rng.integers(1, 6)))
        for zeta in samples:
            if classify_point(t, zeta) is SpectralPointClass.RESIDUAL:
                found += 1
                adj = t.adjoint()
                assert adj.deficiency(np.conj(zeta)).dom().dim > 0
    assert found > 0


def test_regular_points_conjugate_for_adjoint(rng):
    for _ in range(20):
        t = gen.random_relation(rng, int(rng.integers(1, 5)))
        adj = t.adjoint()
        for zeta in (0.3 + 0.2j, -1.0, 2j):
            lhs = classify_point(t, zeta) is SpectralPointClass.REGULAR
            rhs = classify_point(adj, np.conj(zeta)) is SpectralPointClass.REGULAR
            assert lhs == rhs


def test_deficiency_dimension_constant_per_half_plane(rng):
    for _ in range(20):
        t = gen.random_symmetric(rng, 4)
        adj = t.adjoint()
        upper = [adj.deficiency(np.conj(z)).dom().dim for z in (1j, 2j, 1 + 1j)]
        lower = [adj.deficiency(np.conj(z)).dom().dim for z in (-1j, -2j, 1 - 1j)]
        assert len(set(upper)) == 1
        assert len(set(lower)) == 1


def test_space_dim_mismatch_raises(rng):
    t = gen.random_relation(rng, 2)
    s = gen.random_relation(rng, 3)
    with pytest.raises(ValueError):
        t.add(s)
    with pytest.raises(ValueError):
        t.compose(s)
    with pytest.raises(ValueError):
        t.restrict(Subspace.full(3))


@pytest.mark.parametrize("build, message", [
    (lambda: Relation(Subspace.zero(3)), "doubled (even-dimensional)"),
    (lambda: Relation.from_operator(np.zeros((2, 3))), "must be square"),
    (lambda: Relation.from_pairs([(np.zeros(2), np.zeros(3))]), "must all have length n"),
    (lambda: Relation.from_graph_matrix(np.zeros((2, 1)), np.zeros((2, 2))), "same shape"),
    (lambda: Relation.identity(2).restrict_domain(Subspace.full(3)), "ambient dimension"),
])
def test_relation_rejects_malformed_input(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
