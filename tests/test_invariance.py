import numpy as np
import pytest

from relcalc import (
    Relation,
    Subspace,
    adjoint_within,
    classify,
    compress,
    embed,
    is_invariant,
    is_reducing,
    orthogonal_relation_sum,
    reduction_certificates,
)

import gen


def test_trivial_subspaces_invariant(rng):
    for _ in range(10):
        t = gen.random_relation(rng, 4)
        assert is_invariant(t, Subspace.full(4))
        assert is_invariant(t, Subspace.zero(4))
        assert is_reducing(t, Subspace.full(4))
        assert is_reducing(t, Subspace.zero(4))


def test_invariant_diagonal():
    t = Relation.from_operator(np.diag([1.0, 2.0]))
    assert is_invariant(t, Subspace.from_basis_indices(2, [0]))


def test_invariance_condition_breakdown():
    # nilpotent block: dom of the restricted part is {0}, not dom ^ K
    t = Relation.from_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    k = Subspace.from_basis_indices(2, [1])
    assert not is_invariant(t, k)
    passed = {c.name: c.passed for c in reduction_certificates(t, k).certificates}
    assert passed["invariant_k_domain"] and passed["invariant_k_multivalued"]
    assert not passed["invariant_k_restriction_domain"]


def test_reducing_block_diagonal(rng):
    m1 = gen.complex_matrix(rng, 2, 2)
    m2 = gen.complex_matrix(rng, 3, 3)
    blk = np.zeros((5, 5), dtype=complex)
    blk[:2, :2] = m1
    blk[2:, 2:] = m2
    t = Relation.from_operator(blk)
    k = Subspace.from_basis_indices(5, [0, 1])
    assert is_reducing(t, k)
    report = reduction_certificates(t, k)
    assert report.ok


def test_not_reducing_jordan_block():
    t = Relation.from_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    k = Subspace.from_basis_indices(2, [0])
    assert not is_reducing(t, k)
    # the complement fails invariance, matching the equivalence
    assert is_invariant(t, k)
    assert not is_invariant(t, k.complement())


def test_adjoint_within_examples(rng):
    t = Relation.from_operator(np.diag([1j, 5.0]))
    k = Subspace.from_basis_indices(2, [0])
    restricted = t.restrict(k)
    e1 = np.array([1.0, 0.0])
    expected = Relation.from_pairs([(e1, -1j * e1)])
    assert adjoint_within(restricted, k).gap(expected) < 1e-12

    s = gen.random_relation(rng, 3)
    assert adjoint_within(s, Subspace.full(3)).gap(s.adjoint()) < 1e-10


def test_adjoint_within_precondition(rng):
    t = Relation.identity(2)
    with pytest.raises(ValueError):
        adjoint_within(t, Subspace.from_basis_indices(2, [0]))


def test_adjoint_distributes_over_reduction(rng):
    for _ in range(20):
        t, k = gen.random_reducing_pair(rng, 5)
        part = t.restrict(k)
        assert adjoint_within(part, k).gap(t.adjoint().restrict(k)) < 1e-9


def test_reduction_equivalence_both_directions(rng):
    reducing_seen = nonreducing_seen = 0
    for _ in range(40):
        n = 4
        t, k = gen.random_reducing_pair(rng, n)
        assert is_reducing(t, k)
        assert is_invariant(t, k) and is_invariant(t, k.complement())
        reducing_seen += 1

        t2 = gen.random_relation(rng, n)
        k2 = gen.random_subspace(rng, n, int(rng.integers(1, n)))
        if is_reducing(t2, k2):
            continue
        nonreducing_seen += 1
        assert not (is_invariant(t2, k2) and is_invariant(t2, k2.complement()))
    assert reducing_seen > 0 and nonreducing_seen > 0


def test_reduction_certificates_conjugated(rng):
    for _ in range(10):
        t, k = gen.random_reducing_pair(rng, 4)
        report = reduction_certificates(t, k)
        assert report.ok, report.residuals
        passed = {c.name: c.passed for c in report.certificates}
        assert passed["adjoint_reduced"]
        assert passed["transform_reduced+i"] and passed["transform_reduced-i"]


def test_reduction_certificates_adversarial(rng):
    seen = 0
    for _ in range(20):
        t = gen.random_relation(rng, 4)
        k = gen.random_subspace(rng, 4, 2)
        report = reduction_certificates(t, k)
        if report.reducing:
            continue
        seen += 1
        assert not report.ok
    assert seen > 0


def test_multivalued_part_reduces_dissipative(rng):
    for _ in range(20):
        t = gen.random_dissipative(rng, 4)
        assert is_reducing(t, t.mul())


def test_orthogonal_relation_sum_errors(rng):
    t = Relation.identity(2)
    with pytest.raises(ValueError):
        orthogonal_relation_sum(t, t)
    s = gen.random_relation(rng, 3)
    with pytest.raises(ValueError):
        orthogonal_relation_sum(t, s)


def test_compress_embed_roundtrip(rng):
    for _ in range(10):
        t, k = gen.random_reducing_pair(rng, 5)
        part = t.restrict(k)
        small = compress(part, k)
        assert small.n == k.dim
        assert embed(small, k).gap(part) < 1e-10
    with pytest.raises(ValueError):
        compress(Relation.identity(2), Subspace.from_basis_indices(2, [0]))


def test_compressed_classification_matches(rng):
    # restriction of a selfadjoint relation to a reducing subspace stays
    # selfadjoint in the compressed coordinates
    for _ in range(10):
        t = gen.random_selfadjoint(rng, 4)
        mul = t.mul()
        if mul.dim in (0, 4):
            continue
        part = t.restrict(mul.complement())
        small = compress(part, mul.complement())
        assert classify(small).is_selfadjoint


def test_certificate_is_one_record():
    import relcalc
    from relcalc import decompose, invariance, subspace, ztransform

    assert relcalc.Certificate is invariance.Certificate is subspace.Certificate
    assert decompose.Certificate is ztransform.Certificate is subspace.Certificate


@pytest.mark.parametrize("check, message", [
    (is_invariant, "subspace ambient dimension must equal the space dimension"),
    (is_reducing, "subspace ambient dimension must equal the space dimension"),
    (reduction_certificates, "subspace ambient dimension must equal the space dimension"),
    (embed, "relation space dimension must equal dim K"),
])
def test_invariance_rejects_mismatched_subspace(check, message):
    with pytest.raises(ValueError, match=message):
        check(Relation.identity(2), Subspace.full(3))
