import numpy as np
import pytest

from relcalc import (
    DEFAULT_TOL,
    Relation,
    Subspace,
    ToleranceConfig,
    WindowConfig,
    adjoint_within,
    build_multivalued_extension,
    classify,
    compress,
    dissipative_decompose,
    embed,
    is_invariant,
    is_reducing,
    nfl_decompose,
    orthogonal_relation_sum,
    reduction_certificates,
    symmetric_wold_decompose,
)
from relcalc import decompose, invariance, relation
from relcalc.invariance import _split

import gen
from probes import record_linalg_calls
from reference import doubled_compress, doubled_split


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
    (compress, "subspace ambient dimension must equal the space dimension"),
    (embed, "relation space dimension must equal dim K"),
])
def test_invariance_rejects_mismatched_subspace(check, message):
    with pytest.raises(ValueError, match=message):
        check(Relation.identity(2), Subspace.full(3))


# -- the split across K and K-perp, against the doubled-frame reference -----


def _assert_split_matches_doubled(t, k, cfg=DEFAULT_TOL):
    """Both restrictions and the reduction residual of ``_split`` agree
    with ``doubled_split``, and so do the compressions of each part."""
    k_perp = k.complement()
    fast, slow = _split(t, k, k_perp, cfg), doubled_split(t, k, k_perp, cfg)
    for part, ref in zip(fast[:2], slow[:2]):
        assert part.graph.dim == ref.graph.dim
        assert part.gap(ref) <= 1e-13
    assert abs(fast[2] - slow[2]) <= 1e-13
    assert (fast[2] <= cfg.gap_tol) == (slow[2] <= cfg.gap_tol)
    for part, space in zip(fast[:2], (k, k_perp)):
        _assert_compress_matches_doubled(part, space, cfg)
    return fast


def _assert_compress_matches_doubled(t, k, cfg=DEFAULT_TOL):
    try:
        ref = doubled_compress(t, k, cfg)
    except ValueError:
        with pytest.raises(ValueError, match="not contained in the doubled subspace"):
            compress(t, k, cfg)
        return
    small = compress(t, k, cfg)
    assert small.graph.dim == ref.graph.dim
    assert small.gap(ref) <= 1e-13


def test_split_matches_doubled_reference_on_random_pairs(rng):
    # Every dim K for n <= 8, on reducing pairs and on random subspaces of
    # random relations (whose graph is mostly not split by K).
    for n in range(1, 9):
        for k_dim in range(n + 1):
            for _ in range(2):
                t, k = gen.random_reducing_pair(rng, n, k_dim)
                assert _assert_split_matches_doubled(t, k)[2] <= 1e-8
                _assert_split_matches_doubled(gen.random_relation(rng, n),
                                              gen.random_subspace(rng, n, k_dim))


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_split_matches_doubled_reference_on_the_shift_extension(n):
    a = build_multivalued_extension(WindowConfig(n=n))
    k = symmetric_wold_decompose(a, require_maximal=False).k
    assert k.dim == n - 1
    part_k, part_p, r_red = _assert_split_matches_doubled(a, k)
    assert r_red <= 1e-8
    assert (part_k.graph.dim, part_p.graph.dim) == (n - 2, 1)


def _engine_cases(rng):
    """(engine, relation) pairs with planted K of every codimension:
    contractions with unitary parts, absorbing chains with dark states and
    shift chains beside unitary parts."""
    cases = []
    for k_dim, m in ((1, 3), (3, 1), (2, 5), (5, 2), (7, 1), (1, 7), (12, 3), (40, 10)):
        cases.append((nfl_decompose, gen.block_contraction(rng, k_dim, m)[0]))
    for n, sites in ((11, [4]), (11, [3]), (11, [6]), (23, [6]), (8, [1])):
        cases.append((dissipative_decompose, Relation.from_operator(gen.absorbing_chain(n, sites))))
    for chains, unitary_dim in (((3,), 4), ((1,), 6), ((2, 2), 1), ((5,), 0), ((6, 1), 3)):
        relation = gen.random_shift_symmetric(rng, chains, unitary_dim)[0]
        cases.append((lambda a: symmetric_wold_decompose(a, require_maximal=False), relation))
    return cases


def _use_doubled_split(monkeypatch):
    for module in (invariance, decompose):
        monkeypatch.setattr(module, "_split", doubled_split)
        monkeypatch.setattr(module, "compress", doubled_compress)


def test_engine_splits_match_doubled_reference(rng, monkeypatch):
    results = []
    for engine, t in _engine_cases(rng):
        result = engine(t)
        _assert_split_matches_doubled(t, result.k)
        results.append((engine, t, result))
    _use_doubled_split(monkeypatch)
    for engine, t, result in results:
        ref = engine(t)
        assert np.array_equal(ref.k.frame, result.k.frame)
        assert result.part_k.gap(ref.part_k) <= 1e-13
        assert result.part_k_perp.gap(ref.part_k_perp) <= 1e-13
        assert [c.passed for c in result.certificates] == [c.passed for c in ref.certificates]
        for c, c_ref in zip(result.certificates, ref.certificates):
            assert abs(c.residual - c_ref.residual) <= 1e-13


def test_reduction_certificates_match_doubled_reference(rng, monkeypatch):
    # The four splits inside reduction_certificates (T, its adjoint, and
    # the transforms at +-i) and its two within-K adjoints.
    cases = []
    for n in range(2, 7):
        for k_dim in range(1, n):
            cases.append(gen.random_reducing_pair(rng, n, k_dim))
            cases.append((gen.random_relation(rng, n), gen.random_subspace(rng, n, k_dim)))
    a = build_multivalued_extension(WindowConfig(n=16))
    cases.append((a, symmetric_wold_decompose(a, require_maximal=False).k))
    reports = [reduction_certificates(t, k) for t, k in cases]
    _use_doubled_split(monkeypatch)
    for (t, k), report in zip(cases, reports):
        ref = reduction_certificates(t, k)
        assert [c.passed for c in report.certificates] == [c.passed for c in ref.certificates]
        for c, c_ref in zip(report.certificates, ref.certificates):
            assert abs(c.residual - c_ref.residual) <= 1e-13


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
def test_split_at_the_sine_cut_matches_doubled_reference(rng, factor):
    # One graph pair tilted off K (+) K by a sine of factor times the cut
    # sqrt(2) * rank_tol, orthogonal to pairs inside it, on a K of
    # codimension 1: the restriction to K keeps it exactly when the sine is
    # at or below the cut.  A kept direction beside a dropped sine s is
    # determined only to about eps / s (Wedin 1972), so there both splits
    # are held to that distance from the planted restriction and from each
    # other; beside no dropped sine they agree to 1e-13.
    sine = factor * np.sqrt(2) * DEFAULT_TOL.rank_tol
    for n in (3, 6, 9):
        q = gen.random_unitary(rng, n)
        k = Subspace(q[:, 1:])
        inside = [(q[:, j], q[:, j + 1 if j + 1 < n else 1]) for j in range(2, n)]
        tilted = np.sqrt(1 - sine**2) * q[:, 1] + sine * q[:, 0]
        t = Relation.from_pairs(inside + [(tilted, np.zeros(n))], n=n)
        kept = [(q[:, 1], np.zeros(n))] if factor <= 1 else []
        planted = Relation.from_pairs(inside + kept, n=n)
        bound = 1e-13 if factor <= 1 else 16 * n * np.finfo(float).eps / sine
        k_perp = k.complement()
        fast, slow = _split(t, k, k_perp, DEFAULT_TOL), doubled_split(t, k, k_perp)
        assert fast[0].graph.dim == slow[0].graph.dim == planted.graph.dim
        assert fast[1].graph.dim == slow[1].graph.dim == 0
        assert fast[0].gap(slow[0]) <= bound
        assert max(fast[0].gap(planted), slow[0].gap(planted)) <= max(bound, sine)
        assert (fast[2] <= DEFAULT_TOL.gap_tol) == (slow[2] <= DEFAULT_TOL.gap_tol) == (factor <= 1)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_split_without_rank_cut_matches_doubled_reference(rng, n):
    # At rank_tol = 0 only sines that read exactly 0 are shared.
    cfg = ToleranceConfig(rank_tol=0.0)
    for k_dim in range(n + 1):
        t, k = gen.random_reducing_pair(rng, n, k_dim)
        _assert_split_matches_doubled(t, k, cfg)
        _assert_split_matches_doubled(gen.random_relation(rng, n),
                                      gen.random_subspace(rng, n, k_dim), cfg)
    a = build_multivalued_extension(WindowConfig(n=16))
    _assert_split_matches_doubled(a, symmetric_wold_decompose(a, require_maximal=False).k, cfg)


def test_split_of_the_shift_extension_factors_no_2n_row_residual(monkeypatch):
    # K = span{delta_2..delta_N} has codimension 1: the restriction to K
    # factors a 2 x r matrix, the one to K-perp a 2N x 2 residual, and the
    # sum of the parts adds at most 2 columns.
    a = build_multivalued_extension(WindowConfig(n=32))
    k = symmetric_wold_decompose(a, require_maximal=False).k
    k_perp = k.complement()
    calls = record_linalg_calls(monkeypatch)
    _split(a, k, k_perp, DEFAULT_TOL)
    svds = [shape for name, shape, _ in calls if name == "svd"]
    assert svds and all(min(shape) <= 2 for shape in svds)


def test_compress_builds_no_doubled_frame(rng, monkeypatch):
    cases = [gen.random_reducing_pair(rng, 5, k_dim) for k_dim in (1, 3, 4)]
    parts = [(t.restrict(k), k) for t, k in cases]
    built, original = [], relation.doubled

    def recorded(space):
        built.append(space.dim)
        return original(space)

    monkeypatch.setattr(invariance, "doubled", recorded, raising=False)
    monkeypatch.setattr(relation, "doubled", recorded)
    for part, k in parts:
        compress(part, k)
        adjoint_within(part, k)
    assert built == []


@pytest.mark.parametrize("tilt, contained", [(1e-6, False), (1e-10, True)])
def test_compress_rejects_a_graph_tilted_off_the_doubled_subspace(rng, tilt, contained):
    # The containment residual is the sine of the tilt; gap_tol is 1e-8.
    q = gen.random_unitary(rng, 4)
    k = Subspace(q[:, :3])
    f = np.sqrt(1 - tilt**2) * q[:, 0] + tilt * q[:, 3]
    t = Relation.from_pairs([(f, q[:, 1]), (q[:, 2], q[:, 2])], n=4)
    if contained:
        assert compress(t, k).graph.dim == 2
    else:
        with pytest.raises(ValueError, match="not contained in the doubled subspace"):
            compress(t, k)


def test_compress_of_an_empty_graph(rng):
    k = gen.random_subspace(rng, 4, 2)
    small = compress(Relation.zero(4), k)
    assert small.n == 2 and small.graph.dim == 0
