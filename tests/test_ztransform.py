import numpy as np
import pytest

from relcalc import (
    Relation,
    Subspace,
    ToleranceConfig,
    classify,
    subspace_fixed_point_check,
    z_properties_check,
    z_transform,
)

from relcalc import ztransform

import gen


def test_transform_identity_operator():
    # pairs ((1+i)f, -(1+i)f): the image of the identity is minus identity
    t = Relation.identity(2)
    assert z_transform(t, 1j).gap(Relation.from_operator(-np.eye(2))) < 1e-12


def test_transform_dissipative_scalar_to_zero():
    # pairs (2if, 0)
    t = Relation.from_operator(1j * np.eye(2))
    assert z_transform(t, 1j).gap(Relation.from_operator(np.zeros((2, 2)))) < 1e-12


def test_transform_multivalued_line_to_unitary():
    # {0} x C maps to the unitary operator -i, matching the selfadjoint <->
    # unitary correspondence
    t = Relation.from_pairs([(np.array([0.0]), np.array([1.0]))])
    image = z_transform(t, 1j)
    assert image.gap(Relation.from_operator(np.array([[-1j]]))) < 1e-12
    assert classify(image).is_unitary


def test_involution(rng):
    for zeta in (1j, -1j, 2j, (1 + 1j) / np.sqrt(2)):
        for _ in range(10):
            t = gen.random_relation(rng, int(rng.integers(1, 6)))
            assert z_transform(z_transform(t, zeta), zeta).gap(t) < 1e-9


def test_real_zeta_collapses_dimension():
    t = Relation.from_operator(np.diag([1.0, 2.0]))
    image = z_transform(t, 0.0)
    # pairs (g, 0): the graph drops onto ran T x {0}
    assert image.ran().dim == 0
    assert image.dom().gap(t.ran()) < 1e-12


def test_domain_range_kernel_identities(rng):
    # dom Z = ran(T - conj(zeta) I), ran Z = ran(T - zeta I),
    # mul Z = ker(T - conj(zeta) I), ker Z = ker(T - zeta I)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        t = gen.random_relation(rng, n)
        zeta = complex(rng.standard_normal(), rng.standard_normal() + 1.5)
        image = z_transform(t, zeta)
        shift = lambda z: Subspace.span(t.G - z * t.F, ambient_dim=n, scale=1.0)
        kernel = lambda z: t.deficiency(z).dom()
        assert image.dom().gap(shift(np.conj(zeta))) < 1e-9
        assert image.ran().gap(shift(zeta)) < 1e-9
        assert image.mul().gap(kernel(np.conj(zeta))) < 1e-9
        assert image.ker().gap(kernel(zeta)) < 1e-9


def test_correspondence_with_contractions(rng):
    for _ in range(15):
        n = int(rng.integers(1, 6))
        l = gen.random_dissipative(rng, n)
        assert classify(z_transform(l, 1j)).is_contraction
        v = gen.random_contraction_relation(rng, n)
        assert classify(z_transform(v, 1j)).is_dissipative

        a = gen.random_symmetric(rng, n)
        assert classify(z_transform(a, 1j)).is_isometry
        s = gen.random_selfadjoint(rng, n)
        assert classify(z_transform(s, 1j)).is_unitary

        m = gen.random_dissipative(rng, n, maximal=True)
        assert z_transform(m, 1j).dom().dim == n


def test_negation_property(rng):
    for _ in range(10):
        t = gen.random_relation(rng, 4)
        zeta = complex(rng.standard_normal(), rng.standard_normal())
        lhs = z_transform(t, -zeta)
        rhs = z_transform(t.scale(-1.0), zeta).scale(-1.0)
        assert lhs.gap(rhs) < 1e-9


def test_direct_sum_property(rng):
    for _ in range(10):
        n = 4
        t = gen.random_relation(rng, n, 2)
        s = gen.random_relation(rng, n, 2)
        if t.graph.sum(s.graph).dim != 4:
            continue
        lhs = z_transform(Relation(t.graph.sum(s.graph)), 1j)
        rhs = z_transform(t, 1j).graph.sum(z_transform(s, 1j).graph)
        assert lhs.graph.gap(rhs) < 1e-9


def test_properties_check_random(rng):
    for zeta in (1j, -1j, 2j, (1 + 1j) / np.sqrt(2)):
        for _ in range(5):
            n = int(rng.integers(1, 5))
            t = gen.random_relation(rng, n)
            s = gen.random_relation(rng, n)
            report = z_properties_check(t, s, zeta)
            assert report.passed, (zeta, report.certificates)


def test_properties_check_containment_pair(rng):
    t = gen.random_relation(rng, 4, 2)
    bigger = Relation(t.graph.sum(gen.random_relation(rng, 4, 1).graph))
    report = z_properties_check(t, bigger, 1j)
    assert report.results["containment"] is True


def test_properties_check_hypotheses():
    t = Relation.identity(2)
    s = Relation.from_operator(np.zeros((2, 2)))
    report = z_properties_check(t, s, 2j)
    assert report.results["inverse"] is None
    assert report.results["orthogonal_sum"] is None
    report = z_properties_check(t, s, 0.5)
    assert report.results["direct_sum"] is None
    assert report.results["adjoint"] is None
    assert "non-real" in report.notes["adjoint"]


SUITE = ["involution", "containment", "negation", "inverse",
         "direct_sum", "orthogonal_sum", "adjoint", "closure"]


@pytest.mark.parametrize("zeta", [1j, -1j, 2j, np.exp(1j * np.pi / 4), 0.5, 0.0])
def test_properties_check_certificates(rng, zeta):
    cfg = ToleranceConfig(gap_tol=1e-7)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        report = z_properties_check(gen.random_relation(rng, n), gen.random_relation(rng, n),
                                    zeta, cfg)
        assert list(report.results) == SUITE
        by_name = {c.name: c for c in report.certificates}
        for name, verdict in report.results.items():
            if verdict is None:
                assert name in report.notes and name not in by_name
            else:
                cert = by_name[name]
                assert cert.tolerance == cfg.gap_tol
                assert verdict is cert.passed is (cert.residual <= cfg.gap_tol)
        assert [c.name for c in report.certificates] == [k for k in SUITE if k in by_name]


def test_orthogonal_sum_property(rng):
    # graphs orthogonal by block construction
    t = Relation.from_pairs([(np.array([1.0, 0]), np.array([1j, 0]))])
    s = Relation.from_pairs([(np.array([0, 1.0]), np.array([0, -2.0]))])
    for zeta in (1j, -1j):
        report = z_properties_check(t, s, zeta)
        assert report.results["orthogonal_sum"] is True


@pytest.mark.parametrize("zeta, transforms, sums", [
    (1j, 8, 2), (-1j, 8, 2), (np.exp(1j * np.pi / 4), 9, 2), (2j, 7, 2), (0.5, 5, 0)])
def test_properties_check_computes_each_transform_once(monkeypatch, zeta, transforms, sums):
    # Independent orthogonal graphs, so every identity that zeta allows is
    # evaluated.  Z_{-zeta}(T) = Z_{conj zeta}(T) at imaginary zeta, and
    # Z_{conj zeta}(T) serves negation, inverse and adjoint once; direct_sum and
    # orthogonal_sum share one residual.
    t = Relation.from_pairs([(np.array([1.0, 0]), np.array([1j, 0]))])
    s = Relation.from_pairs([(np.array([0, 1.0]), np.array([0, -2.0]))])
    counts = {"z_transform": 0, "sum": 0}
    transform, graph_sum = ztransform.z_transform, Subspace.sum

    def counted_transform(*args, **kwargs):
        counts["z_transform"] += 1
        return transform(*args, **kwargs)

    def counted_sum(*args, **kwargs):
        counts["sum"] += 1
        return graph_sum(*args, **kwargs)

    monkeypatch.setattr(ztransform, "z_transform", counted_transform)
    monkeypatch.setattr(Subspace, "sum", counted_sum)
    report = z_properties_check(t, s, zeta)
    assert counts == {"z_transform": transforms, "sum": sums}
    assert len(report.certificates) + len(report.notes) == 8
    assert report.passed == bool(complex(zeta).imag)  # a real zeta collapses the graph


def test_subspace_fixed_point():
    assert subspace_fixed_point_check(Subspace.from_basis_indices(2, [0]), 1j)
    assert subspace_fixed_point_check(Subspace.zero(3), 1j)
    rng = np.random.default_rng(7)
    k = gen.random_subspace(rng, 5, 3)
    assert subspace_fixed_point_check(k, 1 + 2j)
    # for real zeta the doubled subspace is not preserved
    assert not subspace_fixed_point_check(Subspace.from_basis_indices(2, [0]), 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("zeta", [np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1)])
def test_non_finite_zeta_rejected(rng, zeta):
    with pytest.raises(ValueError, match="zeta must be finite"):
        z_transform(gen.random_relation(rng, 3), zeta)
