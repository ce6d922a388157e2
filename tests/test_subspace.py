import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relcalc
from relcalc import Subspace, ToleranceConfig
from relcalc.subspace import _move_to_front, _orthonormal_columns

import gen
from probes import run_isolated
from reference import projector_gap, stacked_intersect, stacked_sum, svd_complement

CFG = ToleranceConfig()
PLANTED_ANGLES = [0.5e-10, 0.9e-10, 1.2e-10, 1.35e-10, 1.5e-10, 3e-10]


def test_standard_basis_spans_full_space():
    s = Subspace.span([np.array([1, 0]), np.array([0, 1])])
    assert s.dim == 2
    assert s.gap(Subspace.full(2)) < 1e-12


def test_near_duplicate_direction_collapses():
    vectors = [np.array([1.0, 0.0]), np.array([1.0, 1e-14])]
    # independent rank oracle on the stacked generators
    assert np.linalg.matrix_rank(np.column_stack(vectors), tol=1e-10) == 1
    s = Subspace.span(vectors, ToleranceConfig(rank_tol=1e-10))
    assert s.dim == 1
    assert s.gap(Subspace.from_basis_indices(2, [0])) < 1e-10


def test_zero_vector_spans_zero_subspace():
    s = Subspace.span([np.zeros(3)])
    assert s.dim == 0
    assert s.gap(Subspace.zero(3)) == 0.0


def test_empty_family_needs_ambient():
    with pytest.raises(ValueError):
        Subspace.span([])
    assert Subspace.span([], ambient_dim=4).dim == 0


def test_mismatched_vector_lengths_rejected():
    with pytest.raises(ValueError):
        Subspace.span([np.zeros(2), np.zeros(3)])


def test_zero_ambient_dimension_allowed():
    s = Subspace.span([], ambient_dim=0)
    assert s.ambient_dim == 0 and s.dim == 0
    assert s.gap(Subspace.zero(0)) == 0.0


def test_frame_validation():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Subspace(np.ones((2, 3)))


# Rejected before any arithmetic: a RuntimeWarning on the way fails the test.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frame_rejected(bad):
    with pytest.raises(ValueError):
        Subspace(np.full((2, 1), bad))
    frame = np.eye(3, 2, dtype=complex)
    frame[2, 1] = bad
    with pytest.raises(ValueError):
        Subspace(frame)


@pytest.mark.parametrize("field", ["rank_tol", "psd_tol", "gap_tol"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_tolerances_must_be_finite_and_nonnegative(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
        ToleranceConfig(**{field: bad})
    assert getattr(ToleranceConfig(**{field: 0.0}), field) == 0.0


@pytest.mark.parametrize("bad", [1.0, 2.5])
def test_gap_tol_must_be_below_one(bad):
    # A gap never exceeds 1, so such a tolerance would pass every check.
    with pytest.raises(ValueError, match="gap_tol must be below 1"):
        ToleranceConfig(gap_tol=bad)
    assert ToleranceConfig(gap_tol=0.5).gap_tol == 0.5


@pytest.mark.parametrize("bad", [1 / np.sqrt(2), 0.71, 1.0])
def test_rank_tol_must_be_below_one_over_sqrt_two(bad):
    # The lattice operations cut sines at sqrt(2) * rank_tol, and a sine
    # never exceeds 1: at rank_tol = 0.71 the sum of two orthogonal lines
    # had one dimension, and their intersection failed the frame check.
    with pytest.raises(ValueError, match=r"rank_tol must be below 1/sqrt\(2\)"):
        ToleranceConfig(rank_tol=bad)
    cfg = ToleranceConfig(rank_tol=0.7)
    e1, e2 = Subspace.from_basis_indices(2, [0]), Subspace.from_basis_indices(2, [1])
    assert e1.sum(e2, cfg).dim == 2
    assert e1.intersect(e2, cfg).dim == 0


def test_intersect_examples():
    e1 = Subspace.from_basis_indices(2, [0])
    diag = Subspace.span([np.array([1.0, 1.0])])
    assert e1.intersect(diag).dim == 0
    assert Subspace.full(2).intersect(e1).gap(e1) < 1e-12


def test_intersection_contained_in_both(rng):
    for _ in range(25):
        a = gen.random_subspace(rng, 6)
        b = gen.random_subspace(rng, 6)
        inter = a.intersect(b)
        # containment oracle via projector composition
        if inter.dim:
            assert np.linalg.norm(a.projector() @ inter.frame - inter.frame) < 1e-9
            assert np.linalg.norm(b.projector() @ inter.frame - inter.frame) < 1e-9
        assert a.contains(inter) and b.contains(inter)


def _reference_pairs(rng, count):
    """Random pairs in d <= 12, half sharing a planted subspace, then the
    zero, full and ambient-0 cases."""
    pairs = []
    for _ in range(count):
        d = int(rng.integers(1, 13))
        a = gen.random_subspace(rng, d)
        shared = gen._sub_subspace(rng, a, int(rng.integers(0, a.dim + 1)))
        b = gen.random_subspace(rng, d) if rng.uniform() < 0.5 else shared.sum(
            gen.random_subspace(rng, d, int(rng.integers(0, d - shared.dim + 1))))
        pairs.append((a, b))
    for d in (1, 5, 12):
        a = gen.random_subspace(rng, d, int(rng.integers(1, d + 1)))
        for other in (Subspace.zero(d), Subspace.full(d)):
            pairs += [(a, other), (other, other)]
        pairs.append((Subspace.zero(d), Subspace.full(d)))
    pairs.append((Subspace.zero(0), Subspace.zero(0)))
    return [p for a, b in pairs for p in ((a, b), (b, a))]


def test_intersect_matches_stacked_projector_reference(rng):
    for x, y in _reference_pairs(rng, 200):
        ref = stacked_intersect(x, y)
        got = x.intersect(y)
        assert got.dim == ref.dim
        assert got.gap(ref) < 1e-12


def _planted_angle_pair(rng, theta):
    """Subspaces a and b in d = 3..12 with one principal angle theta, between
    u in a and v in b, and all other directions mutually orthogonal."""
    d = int(rng.integers(3, 13))
    q = gen.random_unitary(rng, d)
    u, w = q[:, 0], q[:, 1]
    v = np.cos(theta) * u + np.sin(theta) * w
    extra_a = int(rng.integers(0, (d - 2) // 2 + 1))
    extra_b = int(rng.integers(0, d - 2 - extra_a + 1))
    a = Subspace.span(np.column_stack([u, q[:, 2:2 + extra_a]]), ambient_dim=d)
    rest = q[:, 2 + extra_a:2 + extra_a + extra_b]
    b = Subspace.span(np.column_stack([v, rest]), ambient_dim=d)
    return a, b


@pytest.mark.parametrize("theta", PLANTED_ANGLES)
def test_intersect_planted_angle_matches_reference(rng, theta):
    # the cut keeps the pair exactly when sin(theta) <= sqrt(2) * rank_tol
    expected = 1 if np.sin(theta) <= np.sqrt(2) * CFG.rank_tol else 0
    for _ in range(20):
        a, b = _planted_angle_pair(rng, theta)
        for x, y in ((a, b), (b, a)):
            ref = stacked_intersect(x, y)
            got = x.intersect(y)
            assert got.dim == ref.dim == expected
            assert got.gap(ref) < 1e-12


def test_gap_matches_projector_reference(rng):
    for x, y in _reference_pairs(rng, 200):
        assert abs(x.gap(y) - projector_gap(x, y)) < 1e-14
        assert x.gap(Subspace(x.frame)) == 0.0


def test_sum_matches_stacked_reference(rng):
    for x, y in _reference_pairs(rng, 200):
        ref = stacked_sum(x, y)
        got = x.sum(y)
        assert got.dim == ref.dim
        assert got.gap(ref) < 1e-12


def test_complement_matches_svd_reference(rng):
    for x, _ in _reference_pairs(rng, 100):
        ref = svd_complement(x)
        got = x.complement()
        assert got.dim == ref.dim == x.ambient_dim - x.dim
        assert got.gap(ref) < 1e-12
        assert np.linalg.norm(x.frame.conj().T @ got.frame) < 1e-14 * max(1, x.ambient_dim)


def test_complement_reads_no_tolerance():
    # An orthonormal frame has full column rank, so complement takes no
    # tolerance at all.
    e1 = Subspace.from_basis_indices(3, [0])
    assert e1.complement().gap(Subspace.from_basis_indices(3, [1, 2])) < 1e-15


@pytest.mark.parametrize("theta", PLANTED_ANGLES)
def test_sum_planted_angle_matches_reference(rng, theta):
    # the sum keeps v's direction exactly when sin(theta) > sqrt(2) *
    # rank_tol.  Which direction stands for the merged pair, and the kept
    # difference direction (rounding / sin(theta)), are not determined to
    # 1e-12, so only dimensions and containment are compared.
    merged = 1 if np.sin(theta) <= np.sqrt(2) * CFG.rank_tol else 0
    for _ in range(20):
        a, b = _planted_angle_pair(rng, theta)
        for x, y in ((a, b), (b, a)):
            ref = stacked_sum(x, y)
            got = x.sum(y)
            assert got.dim == ref.dim == a.dim + b.dim - merged
            assert got.contains(x) and got.contains(y)


def test_sum_rank_oracle():
    vectors = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
    assert np.linalg.matrix_rank(np.column_stack(vectors)) == 2
    s = Subspace.span([vectors[0]]).sum(Subspace.span([vectors[1]]))
    assert s.gap(Subspace.full(2)) < 1e-12


def _move_to_front_rows(rng, cols):
    """Rows with fewer, as many and more rows than ``cols``, no rows, rank
    deficient rows, a unit row (LAPACK's tau is 0 for it) and zero rows."""
    pair = gen.complex_matrix(rng, 2, cols)
    unit = np.zeros((1, cols), dtype=complex)
    unit[0, cols // 2] = 1.0
    return [gen.complex_matrix(rng, 3, cols), gen.complex_matrix(rng, cols, cols),
            gen.complex_matrix(rng, cols + 4, cols), np.zeros((0, cols), dtype=complex),
            np.vstack([pair, pair[:1] - 2j * pair[1:]]), unit, np.zeros((2, cols))]


def test_move_to_front_matches_complete_qr(rng):
    for cols in (5, 12):
        for rows in _move_to_front_rows(rng, cols):
            mat = gen.complex_matrix(rng, 7, cols)
            moved, q = mat.copy(), np.eye(cols, dtype=complex)
            t = _move_to_front(rows, moved)
            assert _move_to_front(rows, q) == t == min(rows.shape)
            expected = np.linalg.qr(rows.conj().T, mode="complete")[0]
            assert np.abs(moved - mat @ expected).max() < 1e-13
            assert np.abs(q - expected).max() < 1e-13
            # Q is unitary and its trailing columns are orthogonal to the rows.
            assert np.abs(q.conj().T @ q - np.eye(cols)).max() < 1e-13
            assert np.abs(rows @ q[:, t:]).max(initial=0.0) < 1e-13


def test_complement_example():
    e1 = Subspace.from_basis_indices(2, [0])
    assert e1.complement().gap(Subspace.from_basis_indices(2, [1])) < 1e-12
    assert Subspace.full(3).complement().dim == 0
    assert Subspace.zero(3).complement().dim == 3


def test_complement_involution(rng):
    for _ in range(20):
        a = gen.random_subspace(rng, 7)
        assert a.complement().complement().gap(a) < 1e-10
        assert a.dim + a.complement().dim == 7


def test_gap_is_projector_metric(rng):
    for _ in range(20):
        a = gen.random_subspace(rng, 5)
        b = gen.random_subspace(rng, 5)
        c = gen.random_subspace(rng, 5)
        assert a.gap(a) < 1e-14
        assert abs(a.gap(b) - b.gap(a)) < 1e-12
        assert a.gap(c) <= a.gap(b) + b.gap(c) + 1e-12
    # zero gap iff equal
    a = gen.random_subspace(rng, 5, 2)
    same = Subspace.span(a.frame @ gen.random_unitary(rng, 2), ambient_dim=5)
    assert a.gap(same) < 1e-12


def test_gap_and_rank_match_dense_svd(rng):
    def pairs():
        for _ in range(30):
            d = int(rng.integers(1, 9))
            a = gen.random_subspace(rng, d)
            yield a, gen.random_subspace(rng, d)
            yield a, a
            yield a, a.complement()
            yield a, Subspace.zero(d)

    for a, b in pairs():
        dense = np.linalg.norm(a.projector() - b.projector(), 2)
        assert abs(a.gap(b) - dense) < 1e-13

    def families():
        for _ in range(20):
            d = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            k = int(rng.integers(0, min(d, m) + 1))
            yield gen.complex_matrix(rng, d, k) @ gen.complex_matrix(rng, k, m)
            yield gen.hermitian(rng, d)
            yield gen.psd(rng, d)
            yield gen.random_contraction_matrix(rng, d)
            yield gen.random_relation(rng, d).graph.frame
            relation = gen.random_dissipative(rng, d)
            yield relation.F
            yield relation.G
            yield np.hstack([gen.random_subspace(rng, d).frame, gen.random_subspace(rng, d).frame])
        # tall families
        for d in (65, 130):
            m = int(rng.integers(1, 40))
            k = int(rng.integers(0, m + 1))
            yield gen.complex_matrix(rng, d, k) @ gen.complex_matrix(rng, k, m)

    for mat in families():
        s = np.linalg.svd(mat, compute_uv=False)
        for scale in (None, 1.0):
            ref = s[0] if scale is None and s.size and s[0] > 0 else 1.0
            expected = int(np.count_nonzero(s > CFG.rank_tol * ref))
            frame = _orthonormal_columns(mat, CFG.rank_tol, scale)
            assert frame.shape[1] == expected
            assert np.linalg.norm(frame.conj().T @ frame - np.eye(expected)) < 1e-12
            if 0 < expected == s.size:
                residual = mat - frame @ (frame.conj().T @ mat)
                assert np.linalg.norm(residual) <= 1e-12 * max(1.0, s[0])


def test_modular_law(rng):
    # dim(sum) + dim(intersection) = dim A + dim B
    for _ in range(120):
        d = int(rng.integers(1, 9))
        a = gen.random_subspace(rng, d)
        b = gen.random_subspace(rng, d)
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


def test_orthonormalize_deterministic(rng):
    mat = gen.complex_matrix(rng, 5, 3)
    first = Subspace.span(mat, ambient_dim=5)
    second = Subspace.span(mat.copy(), ambient_dim=5)
    assert np.array_equal(first.frame, second.frame)


def test_orthonormalize_pivot_tie_breaking():
    # equal-norm columns: the singular values tie, and the SVD frame of the
    # already orthonormal pair is the pair itself, lowest index first
    s = Subspace.span([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    assert s.dim == 2
    assert abs(abs(s.frame[0, 0]) - 1.0) < 1e-12
    assert abs(s.frame[1, 0]) < 1e-12


def test_orthonormalize_idempotent(rng):
    for _ in range(20):
        a = gen.random_subspace(rng, 6)
        again = Subspace.span(a.frame, ambient_dim=6)
        assert again.gap(a) < CFG.gap_tol


def test_project():
    plane = Subspace.from_basis_indices(3, [0, 1])
    v = plane.project(np.array([3.0, 4.0, 5.0]))
    assert np.allclose(v, [3.0, 4.0, 0.0])
    with pytest.raises(ValueError):
        plane.project(np.zeros(4))


def test_direct_sum_check():
    e1 = Subspace.from_basis_indices(3, [0])
    e2 = Subspace.from_basis_indices(3, [1])
    diag = Subspace.span([np.array([1.0, 1.0, 0.0])])
    assert e1.direct_sum_check(e2)
    assert not e1.direct_sum_check(diag)


def test_ambient_mismatch_raises():
    a = Subspace.full(2)
    b = Subspace.full(3)
    for op in (a.intersect, a.sum, a.gap, a.contains):
        with pytest.raises(ValueError):
            op(b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 7))
def test_lattice_properties_hypothesis(seed, dim):
    rng = np.random.default_rng(seed)
    a = gen.random_subspace(rng, dim)
    b = gen.random_subspace(rng, dim)
    total = a.sum(b)
    assert total.contains(a) and total.contains(b)
    inter = a.intersect(b)
    assert a.contains(inter) and b.contains(inter)
    assert a.sum(a.complement()).gap(Subspace.full(dim)) < 1e-10


def test_import_leaves_scipy_unloaded():
    out = run_isolated("import sys, relcalc; print('scipy' in sys.modules)")
    assert out.strip() == "False"


_FRAME_SCRIPT = """
import numpy as np
from relcalc import Subspace
rng = np.random.default_rng(7)
def gaussian(rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
s = Subspace.span(gaussian(256, 150) @ gaussian(150, 200))
np.save({path!r}, s.frame)
"""


def test_span_frame_agrees_across_blas_thread_counts(tmp_path):
    # Frames are bit-identical only at a fixed thread count; across counts
    # the rank must agree and the subspaces must coincide in the gap metric.
    spans = []
    for threads in ("1", "2"):
        path = tmp_path / f"frame{threads}.npy"
        run_isolated(_FRAME_SCRIPT.format(path=str(path)),
                     OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        spans.append(Subspace(np.load(path)))
    one, two = spans
    assert one.dim == two.dim == 150
    assert one.gap(two) < 1e-12


@pytest.mark.parametrize("build, error, message", [
    (lambda: Subspace.span(np.zeros((3, 1)), ambient_dim=2), ValueError,
     "expected ambient dimension 2, got 3"),
    (lambda: Subspace.span([np.array([np.nan, 0.0])]), ValueError, "non-finite entries"),
    (lambda: Subspace(np.zeros(3)), ValueError, "frame must be a 2-d array"),
    (lambda: Subspace.from_basis_indices(3, [3]), ValueError, "basis index out of range"),
    (lambda: Subspace.from_basis_indices(3, [-1]), ValueError, "basis index out of range"),
    (lambda: relcalc.ReductionReport(()).certificate("reducing"), KeyError, "reducing"),
])
def test_subspace_rejects_malformed_input(build, error, message):
    with pytest.raises(error, match=message):
        build()
