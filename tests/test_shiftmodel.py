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

from reference import loop_elementary_symmetric, loop_shift

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
    assert probe.ok
    assert all(dim == 0 for dim in probe.eigenvalue_free.values())
    assert probe.deficiency_residual < 1e-12
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
    # once; the probe inside the example is the public one.  No step forms
    # an N x N projector or takes the spectrum of one.
    counts = {"classify": 0, "adjoint": 0, "projector": 0, "eigvalsh": 0}
    for module in [m for name, m in sys.modules.items()
                   if name == "relcalc" or name.startswith("relcalc.")]:
        if getattr(module, "classify", None) is classify:
            _count_calls(monkeypatch, module, "classify", counts)
    _count_calls(monkeypatch, Relation, "adjoint", counts)
    _count_calls(monkeypatch, Subspace, "projector", counts)
    _count_calls(monkeypatch, np.linalg, "eigvalsh", counts)
    probes = []
    window_probe = shiftmodel._window_probe

    def recorded_probe(*args):
        probes.append(window_probe(*args))
        return probes[-1]

    monkeypatch.setattr(shiftmodel, "_window_probe", recorded_probe)

    report = run_shift_example(W16)
    assert report.passed
    assert counts["classify"] == 0
    assert counts["adjoint"] <= 6
    assert counts["projector"] == 0
    assert counts["eigvalsh"] == 0

    # The public probe goes through the same helper and agrees exactly.
    expected = spectral_window_probe(W16)
    assert probes == [expected, expected]
    residuals = {c.name: c.residual for c in report.certificates}
    assert residuals["probe_deficiency_direction"] == expected.deficiency_residual
    assert report.info["adjoint_kernel_dims"] == expected.adjoint_kernel_dims

    symmetric_wold_decompose(build_multivalued_extension(W16), require_maximal=False)
    assert counts["classify"] == 0
