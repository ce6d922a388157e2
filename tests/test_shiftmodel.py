import sys

import numpy as np
import pytest

from relcalc import (
    Relation,
    Subspace,
    WindowConfig,
    build_elementary_symmetric,
    build_multivalued_extension,
    build_multivalued_line,
    build_restricted_symmetric,
    build_shift,
    classify,
    delta_span,
    run_shift_example,
    spectral_window_probe,
    symmetric_wold_decompose,
    von_neumann_check,
    window_assert,
    window_compress,
    window_gap,
    window_span,
    z_transform,
)
from relcalc import shiftmodel

import gen
from probes import record_chain_rounds, record_linalg_calls
from reference import loop_elementary_symmetric, loop_shift, svd_window_compress

W16 = WindowConfig(n=16, margin=4)


@pytest.mark.parametrize("n", [8, 16, 128])
def test_builders_match_loop_reference(n):
    w = WindowConfig(n=n)
    assert np.array_equal(build_shift(w).graph.frame, loop_shift(w).graph.frame)
    assert np.array_equal(build_elementary_symmetric(w).graph.frame,
                          loop_elementary_symmetric(w).graph.frame)


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(n=4)
    with pytest.raises(ValueError):
        WindowConfig(n=8, margin=1)
    with pytest.raises(ValueError):
        WindowConfig(n=8, margin=8)
    assert WindowConfig(n=8, margin=2).window_dim == 6


def test_shift_example_needs_delta2_in_window():
    w = WindowConfig(n=8, margin=7)
    assert w.window_dim == 1  # valid for window_compress, not for the example
    with pytest.raises(ValueError, match="delta_2"):
        run_shift_example(w)
    assert run_shift_example(WindowConfig(n=8, margin=6)).info["window_dim"] == 2


def test_shift_structure():
    s = build_shift(W16)
    rep = classify(s)
    assert rep.is_isometry and not rep.is_unitary
    assert s.dom().dim == 15
    assert s.ker().dim == 0
    assert s.ran().gap(delta_span(W16, range(2, 17))) < 1e-12
    assert s.ran().complement().gap(delta_span(W16, [1])) < 1e-12


def test_symmetric_generator_classification():
    a = build_elementary_symmetric(W16)
    rep = classify(a)
    assert rep.is_symmetric and rep.is_operator
    assert a.dom().dim < 16
    assert a.mul().dim == 0


def test_transform_is_shift_exactly():
    # generator identity: both graphs are spanned by (delta_k, delta_{k+1})
    for n in (16, 32, 64):
        w = WindowConfig(n=n, margin=4)
        a = build_elementary_symmetric(w)
        s = build_shift(w)
        assert z_transform(a, 1j).gap(s) < 1e-12
        assert window_gap(z_transform(a, 1j), s, w) < 1e-12


def test_deficiency_direction():
    a = build_elementary_symmetric(W16)
    adj = a.adjoint()
    kernel = adj.deficiency(-1j).dom()
    # exact: the only solution of the adjoint relations at -i is delta_1
    assert kernel.gap(delta_span(W16, [1])) < 1e-12


def test_restricted_operator():
    b = build_restricted_symmetric(W16)
    tail = delta_span(W16, range(2, 17))
    assert tail.contains(b.dom())
    assert tail.contains(b.ran())
    assert classify(b).is_symmetric


def test_extension_structure():
    ext = build_multivalued_extension(W16)
    rep = classify(ext)
    assert rep.is_symmetric and not rep.is_operator
    assert ext.mul().gap(delta_span(W16, [1])) < 1e-12
    assert von_neumann_check(ext)


def test_von_neumann_dimension_count():
    a = build_elementary_symmetric(W16)
    adj = a.adjoint()
    assert adj.graph.dim == 17
    assert adj.deficiency(1j).graph.dim == 1
    assert adj.deficiency(-1j).graph.dim == 1
    assert von_neumann_check(a)


def test_window_span_guards_edge():
    assert window_span(W16, [1, 12]).dim == 2
    with pytest.raises(ValueError):
        window_span(W16, [13])
    with pytest.raises(ValueError):
        delta_span(W16, [17])


def test_window_compress_types():
    s = build_shift(W16)
    small = window_compress(s, W16)
    assert small.n == 12
    sub = window_compress(delta_span(W16, [1, 2]), W16)
    assert sub.ambient_dim == 12 and sub.dim == 2
    with pytest.raises(TypeError):
        window_compress(3.0, W16)
    with pytest.raises(TypeError):
        window_gap(s, delta_span(W16, [1]), W16)


def test_window_exactness_is_monotone():
    # identical interior entries for growing truncations
    reference = None
    for n in (16, 32, 64):
        w = WindowConfig(n=n, margin=4)
        a = build_elementary_symmetric(w)
        compressed = window_compress(a, WindowConfig(n=n, margin=n - 12))
        frame = np.asarray(compressed.graph.frame)
        signature = frame @ frame.conj().T
        if reference is None:
            reference = signature
        else:
            assert np.linalg.norm(signature - reference) < 1e-10
        report = run_shift_example(w)
        assert report.passed
        assert report.info["splitting_iterations"] == n - 1


def test_wold_window_proxy():
    # interior intersection of the shift ranges is empty and the wandering
    # direction is delta_1
    s = build_shift(W16)
    current = Subspace.full(16)
    for _ in range(16):
        current = s.image(current)
    assert window_compress(current, W16).dim == 0
    assert s.ran().complement().gap(delta_span(W16, [1])) < 1e-12


def test_final_splitting_window():
    w = WindowConfig(n=32, margin=4)
    ext = build_multivalued_extension(w)
    result = symmetric_wold_decompose(ext, require_maximal=False)
    assert window_assert(result.wandering, window_span(w, [2]), w)
    assert window_assert(result.k, window_span(w, range(2, w.window_dim + 1)), w)
    assert result.k.complement().gap(delta_span(w, [1])) < 1e-10
    assert result.part_k_perp.gap(build_multivalued_line(w)) < 1e-10
    # wandering images under the transform stay orthogonal on the interior
    shift = z_transform(ext, 1j)
    images = [result.wandering]
    for _ in range(w.window_dim - 2):
        images.append(shift.image(images[-1]))
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            overlap = np.abs(images[i].frame.conj().T @ images[j].frame)
            assert overlap.max(initial=0.0) < 1e-10


def test_model_operator_completely_nonselfadjoint():
    # the dissipative splitting of the model operator has no selfadjoint
    # part: its transform is the truncated shift, whose unitary part is
    # trivial even before windowing
    from relcalc import dissipative_decompose

    a = build_elementary_symmetric(W16)
    result = dissipative_decompose(a)
    assert result.k.dim == 0
    assert window_compress(result.k, W16).dim == 0


def test_dissipative_split_conjugation_covariance():
    from relcalc import Relation, dissipative_decompose

    import gen

    rng = np.random.default_rng(99)
    base = np.diag([0.0, 0.0, 1j, 2j]).astype(complex)
    q = gen.random_unitary(rng, 4)
    t = Relation.from_operator(base).conjugate_by(q)
    result = dissipative_decompose(t)
    expected = Subspace.span(q[:, :2], ambient_dim=4)
    assert result.k.gap(expected) < 1e-8


def test_spectral_probe():
    probe = spectral_window_probe(WindowConfig(n=64, margin=4))
    assert probe.passed
    assert [(c.name, c.tolerance) for c in probe.certificates] == [
        ("probe_no_eigenvalues", 0.0), ("probe_deficiency_direction", 1e-12)]
    assert all(dim == 0 for dim in probe.eigenvalue_free.values())
    assert probe.certificate("probe_no_eigenvalues").residual == 0
    assert probe.certificate("probe_deficiency_direction").residual < 1e-12
    assert set(probe.adjoint_kernel_dims) == {"(-0-1j)", "(-0-2j)", "(1-1j)", "(-0.5-0.5j)"}


def test_pipeline_report():
    report = run_shift_example(W16)
    assert report.passed
    names = [c.name for c in report.certificates]
    assert "transform_matches_shift" in names
    assert "splitting_k_window" in names
    assert report.info["wandering_dim"] == 1


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_shift_example_work(monkeypatch):
    # The example and the splitting read their verdicts from the Hermitian
    # forms, not from full reports, and build each relation and adjoint
    # once; the splitting and the probe read ker(T* + i) as the complement
    # of the transform's range, so neither takes an adjoint or a
    # deficiency space for it.  The probe inside the example is the public
    # one.  No step forms an N x N projector or takes the spectrum of one:
    # no eigvalsh input is an N x N idempotent of trace at least 1.
    counts = {"classify": 0, "adjoint": 0, "deficiency": 0, "projector": 0}
    for module in [m for name, m in sys.modules.items()
                   if name == "relcalc" or name.startswith("relcalc.")]:
        if getattr(module, "classify", None) is classify:
            _count_calls(monkeypatch, module, "classify", counts)
    _count_calls(monkeypatch, Relation, "adjoint", counts)
    _count_calls(monkeypatch, Relation, "deficiency", counts)
    _count_calls(monkeypatch, Subspace, "projector", counts)
    spectra = []
    eigvalsh = np.linalg.eigvalsh

    def recorded_eigvalsh(mat, *args, **kwargs):
        spectra.append(np.array(mat))
        return eigvalsh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded_eigvalsh)
    probes = []
    window_probe = shiftmodel._window_probe

    def recorded_probe(*args):
        probes.append(window_probe(*args))
        return probes[-1]

    monkeypatch.setattr(shiftmodel, "_window_probe", recorded_probe)

    report = run_shift_example(W16)
    assert report.passed
    assert counts["classify"] == 0
    assert counts["adjoint"] <= 5
    assert counts["deficiency"] == 0
    assert counts["projector"] == 0
    assert spectra
    for mat in spectra:
        assert not (mat.shape[0] == W16.n
                    and np.abs(mat @ mat - mat).max() <= 1e-12
                    and np.trace(mat).real >= 1)

    # The public probe goes through the same helper and agrees exactly.
    counts.update(adjoint=0, deficiency=0)
    expected = spectral_window_probe(W16)
    assert (counts["adjoint"], counts["deficiency"]) == (0, 0)
    assert probes == [expected, expected]
    residuals = {c.name: c.residual for c in report.certificates}
    assert residuals["probe_deficiency_direction"] == (
        expected.certificate("probe_deficiency_direction").residual)
    assert report.certificates[-3:-1] == expected.certificates
    assert report.info["adjoint_kernel_dims"] == expected.adjoint_kernel_dims

    # The splitting's one adjoint is that of its selfadjoint part on K-perp.
    counts.update(adjoint=0, deficiency=0)
    symmetric_wold_decompose(build_multivalued_extension(W16), require_maximal=False)
    assert (counts["adjoint"], counts["deficiency"]) == (1, 0)
    assert counts["classify"] == 0


def test_image_chain_and_window_work(monkeypatch):
    # After its first round, the image chain factors nothing wider than the
    # k columns each round added, and window compression nothing larger
    # than its dropped rows (2 * margin for a relation, margin for a
    # subspace): no SVD of the whole N x r residual per round, and none of
    # the whole window frame.  A QR brings the touched columns to the
    # front, so a round and a compression each take one SVD: of the
    # columns they read again.
    w = WindowConfig(n=64)
    ext = build_multivalued_extension(w)
    rounds = record_chain_rounds(monkeypatch)
    result = symmetric_wold_decompose(ext, require_maximal=False)
    monkeypatch.undo()

    assert len(rounds) == result.iterations - 1 == w.n - 2
    for r in rounds:
        assert r["shapes"] and all(min(shape) <= r["added"] for shape in r["shapes"])
        assert r["names"].count("svd") == 1

    for obj, dropped in ((ext, 2 * w.margin), (result.k, w.margin)):
        calls = record_linalg_calls(monkeypatch)
        window_compress(obj, w)
        monkeypatch.undo()
        assert calls and all(min(shape) <= dropped for _, shape, _ in calls)
        assert [name for name, _, _ in calls].count("svd") == 1


def _assert_window_compress_matches_svd(obj, w):
    fast = window_compress(obj, w)
    slow = svd_window_compress(obj, w)
    fast_frame = fast.graph.frame if isinstance(obj, Relation) else fast.frame
    slow_frame = slow.graph.frame if isinstance(obj, Relation) else slow.frame
    assert fast_frame.shape == slow_frame.shape
    assert np.abs(fast_frame.conj().T @ fast_frame - np.eye(fast_frame.shape[1])).max(initial=0.0) < 1e-12
    assert fast.gap(slow) < 1e-12
    return fast


def test_window_compress_matches_svd_reference(rng):
    for _ in range(40):
        n = int(rng.integers(8, 40))
        w = WindowConfig(n=n, margin=int(rng.integers(2, n)))
        _assert_window_compress_matches_svd(gen.random_subspace(rng, n), w)
        _assert_window_compress_matches_svd(gen.random_relation(rng, n), w)
    # the shift relations at every margin of test_window_exactness_is_monotone
    for n in (16, 32, 64):
        shift_relations = [build_shift(WindowConfig(n=n)),
                           build_elementary_symmetric(WindowConfig(n=n)),
                           build_multivalued_extension(WindowConfig(n=n))]
        for margin in range(2, n - 11):
            w = WindowConfig(n=n, margin=margin)
            for relation in shift_relations:
                _assert_window_compress_matches_svd(relation, w)


def _planted_window_frame(rng, kept, dropped, mixed):
    """Orthonormal 16 x 5 frame whose first column has ``kept`` in the kept
    rows and ``dropped`` in the dropped rows (margin 4), and whose other
    columns lie in the kept rows; ``mixed`` rotates the kept rows, the
    dropped rows and the columns at random."""
    frame = np.zeros((16, 5), dtype=complex)
    frame[0, 0], frame[12, 0] = kept, dropped
    frame[1:5, 1:5] = np.eye(4)
    if mixed:
        frame[:12] = gen.random_unitary(rng, 12) @ frame[:12]
        frame[12:] = gen.random_unitary(rng, 4) @ frame[12:]
        frame = frame @ gen.random_unitary(rng, 5)
    return Subspace(frame)


@pytest.mark.parametrize("scale", [0.5, 0.9, 1.1, 2.0])
def test_window_compress_rank_at_the_cut(rng, scale):
    # The kept rows' smallest singular value sits next to rank_tol: both
    # compressions keep its direction exactly when it is above the cut.
    # Basis-aligned frames agree to rounding; for rotated ones that
    # direction is only determined to eps / singular value (any SVD-based
    # answer is), so there only the rank and that bound are checked.
    w = WindowConfig(n=16, margin=4)
    kept = scale * 1e-10
    expected = 5 if kept > 1e-10 else 4
    aligned = _planted_window_frame(rng, kept, np.sqrt(1 - kept**2), mixed=False)
    assert _assert_window_compress_matches_svd(aligned, w).dim == expected
    for _ in range(5):
        mixed = _planted_window_frame(rng, kept, np.sqrt(1 - kept**2), mixed=True)
        fast, slow = window_compress(mixed, w), svd_window_compress(mixed, w)
        assert fast.dim == slow.dim == expected
        exact = Subspace.span(mixed.frame[:12], ambient_dim=12, scale=1.0)
        assert fast.gap(exact) < 100 * np.finfo(float).eps / kept


def _assert_rank_read_as_svd(obj, w, frame_error):
    fast, slow = window_compress(obj, w), svd_window_compress(obj, w)
    if isinstance(obj, Relation):
        fast, slow = fast.graph, slow.graph
    assert fast.dim == slow.dim
    assert fast.gap(slow) < 10 * frame_error + 1e-12
    return fast


def test_window_compress_nearly_orthonormal_frames(rng):
    # Subspace accepts frames orthonormal to _FRAME_ATOL, not to rounding:
    # the kept rows' rank must still be the SVD's.  In [e12, e0 + d e12]
    # (margin 4) both columns keep only e0, so the span is one-dimensional.
    w = WindowConfig(n=16, margin=4)
    delta = 1e-9
    e = np.eye(32, dtype=complex)
    for extra in (0, 4):  # with 4 more columns some are left unmoved
        cols = [e[12], e[0] + delta * e[12]] + [e[j] for j in range(1, 1 + extra)]
        frame = np.array(cols).T
        assert _assert_rank_read_as_svd(Subspace(frame[:16]), w, delta).dim == 1 + extra
        assert _assert_rank_read_as_svd(Relation(Subspace(frame)), w, delta).dim == 1 + extra
    for _ in range(20):
        n = int(rng.integers(8, 40))
        w = WindowConfig(n=n, margin=int(rng.integers(2, n)))
        for obj in (gen.random_subspace(rng, n), gen.random_relation(rng, n)):
            sub = obj.graph if isinstance(obj, Relation) else obj
            noise = rng.standard_normal(sub.frame.shape) + 1j * rng.standard_normal(sub.frame.shape)
            frame = sub.frame + 1e-10 * noise
            error = np.abs(frame.conj().T @ frame - np.eye(frame.shape[1])).max(initial=0.0)
            bent = Subspace(frame)
            _assert_rank_read_as_svd(Relation(bent) if isinstance(obj, Relation) else bent, w, error)


@pytest.mark.parametrize("dropped", [0.5e-10, 1e-10, 2e-10])
def test_window_compress_small_dropped_rows(rng, dropped):
    # Dropped rows of norm near rank_tol leave every kept singular value at
    # 1 to rounding: nothing is cut, and the frames agree to rounding.
    w = WindowConfig(n=16, margin=4)
    for mixed in (False, True, True, True):
        frame = _planted_window_frame(rng, np.sqrt(1 - dropped**2), dropped, mixed)
        assert _assert_window_compress_matches_svd(frame, w).dim == 5


@pytest.mark.parametrize("outside, message", [
    (Relation.identity(15), "relation does not live in the model space"),
    (Subspace.full(17), "subspace does not live in the model space"),
])
def test_window_compress_rejects_objects_outside_the_model_space(outside, message):
    with pytest.raises(ValueError, match=message):
        window_compress(outside, W16)
