"""Dimensions read from singular values alone, and frames mapped without
a factorization, against the spanning kernels in ``reference``."""

import numpy as np
import pytest

from relcalc import (
    DEFAULT_TOL,
    Relation,
    Subspace,
    WindowConfig,
    build_elementary_symmetric,
    classify,
    compress,
    dissipative_decompose,
    maximalize_contraction,
    operator_matrix,
    unitary_part_subspace,
    wold_decompose,
    z_transform,
)
from relcalc import decompose, shiftmodel
from relcalc.io import _part_summary
from relcalc.relation import (
    _deficiency_dim,
    _dom_dim,
    _mul_dim,
    _ran_dim,
    _shifted_range_dim,
)
from relcalc.subspace import _rank_of

import gen
from probes import record_linalg_calls
from reference import span_compress, span_dims, span_rank, span_z_transform

# The nine points of the shift example's probe: the operator's kernels at
# the first five, the adjoint's at the conjugates of the last four.
PROBE_POINTS = [1j, -1j, 0.0, 1.0, 1.0 + 1j, 1j, 2j, 1.0 + 1j, -0.5 + 0.5j]
CUT = np.sqrt(2) * DEFAULT_TOL.rank_tol


def _families(rng):
    """About 330 relations: every graph dimension, multivalued parts,
    partial domains, planted shift chains and oblique chain steps."""
    cases = []
    for _ in range(2):
        for n in range(1, 6):
            cases += [gen.random_relation(rng, n, d) for d in range(2 * n + 1)]
    for _ in range(8):
        for n in range(2, 7):
            cases += [
                gen.random_dissipative(rng, n),
                gen.random_symmetric(rng, n),
                gen.random_contraction_relation(rng, n),
                gen.random_isometry_relation(rng, n),
                gen.random_selfadjoint(rng, n),
            ]
    for _ in range(10):
        cases.append(gen.random_dissipative(rng, int(rng.integers(2, 7)), maximal=True))
        cases.append(gen.block_contraction(rng, int(rng.integers(0, 4)), int(rng.integers(1, 4)))[0])
        cases.append(gen.random_shift_symmetric(rng, [int(rng.integers(1, 4))], int(rng.integers(0, 3)))[0])
    for _ in range(30):
        lengths = [int(k) for k in rng.integers(1, 4, size=int(rng.integers(2, 4)))]
        sines = list(10.0 ** rng.uniform(-3, -0.3, size=len(lengths) - 1))
        cases.append(gen.oblique_step_symmetric(rng, lengths, sines, int(rng.integers(0, 3)))[0])
    return cases


def test_families_cover_the_structures(rng):
    cases = _families(rng)
    assert len(cases) >= 300
    assert {t.graph.dim for t in cases} >= set(range(11))
    assert any(span_dims(t)["mul"] > 0 for t in cases)
    assert any(span_dims(t)["dom"] < t.n for t in cases)


def test_z_transform_at_plus_minus_i_matches_span(rng):
    # At +-i the image frame is the input frame mapped by sqrt(2) times a
    # unitary: no column is ever cut, and the span is the same.
    for t in _families(rng):
        for zeta in (1j, -1j):
            fast, slow = z_transform(t, zeta), span_z_transform(t, zeta)
            assert fast.graph.dim == slow.graph.dim == t.graph.dim
            assert fast.gap(slow) <= 1e-13
    # Any other zeta still spans, so the two kernels are the same code.
    t = gen.random_dissipative(rng, 4)
    for zeta in (2j, 1.0, 0.0, 1j + 1e-9):
        assert np.array_equal(z_transform(t, zeta).graph.frame,
                              span_z_transform(t, zeta).graph.frame)


def test_compress_matches_span(rng):
    for t in _families(rng):
        dom, ran = t.dom(), t.ran()
        for k in (dom.sum(ran), dom.sum(ran).sum(gen.random_subspace(rng, t.n))):
            fast, slow = compress(t, k), span_compress(t, k)
            assert fast.graph.dim == slow.graph.dim == t.graph.dim
            assert fast.gap(slow) <= 1e-13
    for _ in range(20):
        t, k = gen.random_reducing_pair(rng, int(rng.integers(1, 6)))
        for part, space in ((t.restrict(k), k), (t.restrict(k.complement()), k.complement())):
            fast, slow = compress(part, space), span_compress(part, space)
            assert fast.graph.dim == slow.graph.dim
            assert fast.gap(slow) <= 1e-13


def test_dimension_reads_match_spans(rng):
    for t in _families(rng):
        spans = span_dims(t)
        parts = _part_summary(t, DEFAULT_TOL)
        assert parts == {"graph_dim": t.graph.dim,
                         **{f"{name}_dim": spans[name] for name in ("dom", "ran", "ker", "mul")}}
        assert (_dom_dim(t, DEFAULT_TOL), _ran_dim(t, DEFAULT_TOL), _mul_dim(t, DEFAULT_TOL)) == (
            spans["dom"], spans["ran"], spans["mul"])
        assert _shifted_range_dim(t, DEFAULT_TOL) == spans["shifted_range"]
        rep = classify(t)
        assert rep.is_operator == (spans["mul"] == 0)
        assert rep.is_unitary == (rep.is_isometry and spans["dom"] == spans["ran"] == t.n)

        everywhere_defined = t.graph.dim == t.n and spans["mul"] == 0 and spans["dom"] == t.n
        try:
            operator_matrix(t)
            assert everywhere_defined
        except ValueError:
            assert not everywhere_defined
        if rep.is_contraction:
            assert (maximalize_contraction(t) is t) == (spans["dom"] == t.n)


def test_deficiency_dim_matches_deficiency_domain(rng):
    cases = _families(rng)
    nontrivial = 0
    for t in cases:
        for zeta in PROBE_POINTS:
            dim = _deficiency_dim(t, zeta, DEFAULT_TOL)
            assert dim == t.deficiency(zeta).dom().dim
            nontrivial += dim > 0
    assert nontrivial > 100


@pytest.mark.parametrize("zeta", PROBE_POINTS)
def test_deficiency_dim_planted_eigenvalues(rng, zeta):
    # A normal operator whose eigenvector x with eigenvalue l has the sine
    # |l - zeta| / sqrt((1 + |l|^2)(1 + |zeta|^2)) against the line at zeta.
    # Plant zeta twice, and one eigenvalue each at 0.5x and 2x the cut.
    def at_sine(sine):
        direction = np.exp(2j * np.pi * rng.uniform())
        offset = sine * (1 + abs(zeta) ** 2)
        for _ in range(3):  # fixed point of the sine formula for |l - zeta|
            lam = zeta + offset * direction
            offset = sine * np.sqrt((1 + abs(lam) ** 2) * (1 + abs(zeta) ** 2))
        return zeta + offset * direction

    eigenvalues = [zeta, zeta, at_sine(0.5 * CUT), at_sine(2 * CUT), zeta + 0.5, zeta - 1j]
    q = gen.random_unitary(rng, len(eigenvalues))
    t = Relation.from_operator(q @ np.diag(eigenvalues) @ q.conj().T)
    assert _deficiency_dim(t, zeta, DEFAULT_TOL) == t.deficiency(zeta).dom().dim == 3
    # A multivalued line m adds the pair (f, zeta f) with (T - zeta) f = -m,
    # which is solvable: m, an eigenvector for zeta - i, lies in ran(T - zeta).
    line = Relation.from_pairs([(np.zeros(t.n), q[:, -1])], n=t.n)
    wider = Relation(t.graph.sum(line.graph))
    assert _deficiency_dim(wider, zeta, DEFAULT_TOL) == wider.deficiency(zeta).dom().dim == 4


@pytest.mark.parametrize("scale", [None, 1.0, 2.5])
@pytest.mark.parametrize("shape", [(7, 5), (5, 7)])
def test_rank_of_planted_singular_values(rng, scale, shape):
    # Singular values planted at 0.5x and 2x the cut rank_tol * reference,
    # the reference being the largest singular value when scale is None.
    rank_tol = DEFAULT_TOL.rank_tol
    top = 7.0 if scale is None else 0.8
    reference = top if scale is None else scale
    s = np.array([top, 0.3, 2 * rank_tol * reference, 0.5 * rank_tol * reference, 0.0])
    rows, cols = shape
    u = gen.random_unitary(rng, rows)[:, :5]
    v = gen.random_unitary(rng, cols)[:, :5]
    mat = (u * s) @ v.conj().T
    assert _rank_of(mat, rank_tol, scale) == span_rank(mat, rank_tol, scale) == 3
    assert _rank_of(np.zeros((rows, 0)), rank_tol, scale) == 0
    assert _rank_of(np.zeros((0, cols)), rank_tol, scale) == 0


def test_dimension_sites_factor_no_vectors(monkeypatch, rng):
    t = gen.random_dissipative(rng, 6)
    whole, k = gen.random_reducing_pair(rng, 6, 3)
    part = whole.restrict(k)
    v = Relation.from_operator(gen.random_contraction_matrix(rng, 6))
    w = WindowConfig(n=32)
    op = build_elementary_symmetric(w)
    adj = op.adjoint()
    kernel = adj.deficiency(-1j).dom()
    calls = record_linalg_calls(monkeypatch)

    def vector_svds():
        return [c for c in calls if c[0] == "svd" and c[2]]

    # z_transform at +-i maps the frame: no factorization at all.
    for zeta in (1j, -1j):
        z_transform(t, zeta)
    assert calls == []

    # compress: one QR; its only SVD is the containment check's norm.
    calls.clear()
    compress(part, k)
    assert vector_svds() == []
    assert [c[0] for c in calls if c[0] == "qr"] == ["qr"]

    # operator_matrix's guard and maximalize_contraction on a full-domain
    # contraction read singular values only.
    calls.clear()
    operator_matrix(v)
    assert maximalize_contraction(v) is v
    assert calls and vector_svds() == [] and all(c[0] == "svd" for c in calls)

    # classify reads every dimension as a rank; its one QR is the adjoint.
    calls.clear()
    classify(t)
    assert vector_svds() == []
    assert [c[0] for c in calls if c[0] == "qr"] == ["qr"]

    # The probe: nine kernel dimensions and the direction's residual, all
    # from singular values alone.
    calls.clear()
    shiftmodel._window_probe(w, op, kernel, DEFAULT_TOL)
    assert len(calls) == 10 and vector_svds() == [] and all(c[0] == "svd" for c in calls)


def test_unitary_part_hull_reads_no_rank_of_f(monkeypatch, rng):
    v, unitary = gen.block_contraction(rng, 2, 4)
    dom = Subspace.span(np.hstack([unitary.frame, unitary.complement().frame[:, :2]]),
                        ambient_dim=6)
    partial = v.restrict_domain(dom)
    dissipative = z_transform(v, 1j)
    u = Relation.from_operator(gen.random_unitary(rng, 5))
    calls = record_linalg_calls(monkeypatch)

    # Wold's guard reads no rank of F: its first factorization spans ran V.
    wold_decompose(u)
    assert calls[0] == ("svd", (5, 5), True)

    def no_hull(*args):
        raise AssertionError("the unitary part is read without a hull")

    monkeypatch.setattr(decompose, "_invariant_hull", no_hull)

    # The guard's form eigenvalues give F's singular values, so on full and
    # partial domain K is read from one eigendecomposition of the padded
    # matrix and one SVD that spans the kept eigenvectors, and nothing else.
    assert partial.graph.dim == 4
    read = [("eig", (6, 6), True), ("svd", (6, 2), True)]
    for relation in (v, partial):
        calls.clear()
        unitary_part_subspace(relation)
        assert calls == read
    # The dissipative engine reads K first, and certifies the part on K-perp
    # with one eigenvalue count of its own 4 x 4 padded matrix.
    calls.clear()
    result = dissipative_decompose(dissipative)
    assert result.k.dim == 2 and result.passed
    assert calls[:2] == read
    assert [c for c in calls if c[0].startswith("eig")] == [read[0], ("eigvals", (4, 4), False)]
