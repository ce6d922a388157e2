"""One tolerance rule: a residual passes when it is at most its tolerance.

Every certificate that relcalc reports derives its verdict from that rule,
and every report shares one verdict over its certificates.
"""

import json

import numpy as np
import pytest

from relcalc import (
    Certificate,
    Relation,
    Subspace,
    ToleranceConfig,
    WindowConfig,
    dissipative_decompose,
    nfl_decompose,
    reduction_certificates,
    run_shift_example,
    symmetric_wold_decompose,
    wold_decompose,
    z_properties_check,
)
from relcalc import shiftmodel
from relcalc.cli import main
from relcalc.io import emit_relation, emit_subspace

import gen

W16 = WindowConfig(n=16, margin=4)
# As in test_decompose: a loose psd_tol lets non-isometries into wold_decompose.
LOOSE = ToleranceConfig(psd_tol=1.0)


def _assert_rule(certificates):
    assert certificates
    for cert in certificates:
        assert type(cert.residual) is float and type(cert.tolerance) is float
        assert cert.passed is (cert.residual <= cert.tolerance), cert


def _assert_documents_rule(certificates):
    assert certificates
    for cert in certificates:
        assert type(cert["residual"]) is float and type(cert["tolerance"]) is float
        assert cert["passed"] is (cert["residual"] <= cert["tolerance"]), cert


def test_certificate_at_its_tolerance_passes():
    assert Certificate("edge", 1e-8, 1e-8).passed is True
    assert Certificate("zero", 0, 0).passed is True
    assert Certificate("above", np.nextafter(1e-8, 1), 1e-8).passed is False
    cert = Certificate("count", np.int64(1), 0)
    assert cert.passed is False
    assert type(cert.residual) is float and type(cert.tolerance) is float


def test_certificate_nan_residual_fails():
    assert Certificate("nan", float("nan"), 1.0).passed is False
    assert Certificate("nan", np.nan, np.inf).passed is False


def test_gap_tol_zero_equals_itself(rng):
    t = gen.random_relation(rng, 3, 3)
    assert t.equals(t, ToleranceConfig(gap_tol=0.0))


def test_engine_certificates_follow_the_rule(rng):
    for _ in range(6):
        n = int(rng.integers(1, 6))
        _assert_rule(nfl_decompose(gen.random_contraction_relation(rng, n)).certificates)
        _assert_rule(dissipative_decompose(gen.random_dissipative(rng, n)).certificates)
        _assert_rule(symmetric_wold_decompose(gen.random_selfadjoint(rng, n)).certificates)
        unitary = Relation.from_operator(gen.random_unitary(rng, n))
        _assert_rule(wold_decompose(unitary).certificates)
        chains = [int(c) for c in rng.integers(1, 4, size=2)]
        relation, _ = gen.random_shift_symmetric(rng, chains, 1)
        _assert_rule(symmetric_wold_decompose(relation, require_maximal=False).certificates)
    for n in (2, 4):
        _assert_rule(wold_decompose(Relation.from_operator(np.eye(n, k=-1)), LOOSE).certificates)
    s = 1 / np.sqrt(2)
    leaning = np.array([[0, 0, 0], [1, s, 0], [0, s, 0]])
    report = wold_decompose(Relation.from_operator(leaning), LOOSE)
    _assert_rule(report.certificates)
    assert not report.passed


def test_reduction_and_z_certificates_follow_the_rule(rng):
    for _ in range(6):
        n = int(rng.integers(2, 6))
        t, k = gen.random_reducing_pair(rng, n, k_dim=1)
        planted = reduction_certificates(t, k)
        _assert_rule(planted.certificates)
        assert planted.passed and planted.ok
        tilted = Subspace(np.cos(1e-3) * k.frame + np.sin(1e-3) * k.complement().frame[:, :1])
        _assert_rule(reduction_certificates(t, tilted).certificates)
        for zeta in (1j, -1j, 2j, np.exp(1j * np.pi / 4)):
            report = z_properties_check(t, gen.random_relation(rng, n), zeta)
            _assert_rule(report.certificates)


def test_shift_example_certificates_follow_the_rule():
    report = run_shift_example(W16)
    _assert_rule(report.certificates)
    assert report.passed
    assert report.certificate("probe_no_eigenvalues").tolerance == 0.0
    assert report.certificate("model_classification").tolerance == 0.0


def test_one_eigenvalue_fails_the_probe(monkeypatch):
    original = shiftmodel._deficiency_dim

    def one_at_zero(relation, zeta, cfg):
        return 1 if zeta == 0.0 else original(relation, zeta, cfg)

    monkeypatch.setattr(shiftmodel, "_deficiency_dim", one_at_zero)
    report = run_shift_example(W16)
    cert = report.certificate("probe_no_eigenvalues")
    assert cert.residual == 1.0 and not cert.passed
    assert not report.passed


def test_planted_unitary_parts_have_full_domain_and_range(rng):
    for _ in range(5):
        relation, _ = gen.block_contraction(rng, int(rng.integers(1, 4)), int(rng.integers(0, 4)))
        cert = nfl_decompose(relation).certificate("part_k_full_domain_range")
        assert cert.residual == 0.0 and cert.passed
        unitary = Relation.from_operator(gen.random_unitary(rng, int(rng.integers(1, 6))))
        cert = wold_decompose(unitary).certificate("part_k_full_domain_range")
        assert cert.residual == 0.0 and cert.passed


@pytest.mark.parametrize("mode", ["nfl", "dissipative"])
def test_cli_reports_follow_the_rule(tmp_path, capsys, rng, mode):
    relation = (gen.block_contraction(rng, 2, 2)[0] if mode == "nfl"
                else gen.random_dissipative(rng, 4))
    source = tmp_path / "t.json"
    source.write_text(emit_relation(relation), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["decompose", "--mode", mode, str(source), "--report", str(out)]) == 0
    _assert_documents_rule(json.loads(out.read_text())["certificates"])


def test_cli_certify_and_example_reports_follow_the_rule(tmp_path, capsys, rng):
    t, k = gen.random_reducing_pair(rng, 4, k_dim=2)
    source, space = tmp_path / "t.json", tmp_path / "k.json"
    source.write_text(emit_relation(t), encoding="utf-8")
    space.write_text(emit_subspace(k), encoding="utf-8")
    out = tmp_path / "certify.json"
    assert main(["certify", str(source), "--subspace", str(space), "--report", str(out)]) == 0
    _assert_documents_rule(json.loads(out.read_text())["certificates"])
    out = tmp_path / "example.json"
    assert main(["example", "shift", "--n", "16", "--report", str(out)]) == 0
    _assert_documents_rule(json.loads(out.read_text())["certificates"])
