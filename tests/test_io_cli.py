import json

import numpy as np
import pytest

from relcalc import (
    DocumentError,
    Relation,
    Subspace,
    emit_relation,
    emit_subspace,
    parse_relation,
    parse_subspace,
)
from relcalc.cli import main
from relcalc.io import load_relation_document

import gen


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _relation_file(tmp_path, relation, name="t.json"):
    return _write(tmp_path, name, emit_relation(relation))


# -- documents ----------------------------------------------------------


def test_round_trip_documents(rng):
    for _ in range(100):
        t = gen.random_relation(rng, int(rng.integers(1, 6)))
        again = parse_relation(emit_relation(t))
        assert again.gap(t) < 1e-8


def test_parse_scalar_document():
    text = json.dumps({"dim": 1, "F": [[[1.0, 0.0]]], "G": [[[0.0, 1.0]]]})
    t = parse_relation(text)
    assert t.gap(Relation.from_operator(np.array([[1j]]))) < 1e-12


def test_parse_zero_generator_document():
    text = json.dumps({"dim": 2, "F": [[], []], "G": [[], []]})
    t = parse_relation(text)
    assert t.graph.dim == 0 and t.n == 2


def test_parse_nonorthonormal_generators():
    # parsing spans the stacked generators, so scaling does not matter
    text = json.dumps({"dim": 1, "F": [[[2.0, 0.0]]], "G": [[[0.0, 2.0]]]})
    assert parse_relation(text).gap(Relation.from_operator(np.array([[1j]]))) < 1e-12


def test_document_metadata():
    doc = load_relation_document(
        json.dumps(
            {
                "dim": 1,
                "F": [[[1.0, 0.0]]],
                "G": [[[0.0, 0.0]]],
                "name": "zero",
                "tolerances": {"gap_tol": 1e-6},
            }
        )
    )
    assert doc.name == "zero"
    assert doc.tolerances.gap_tol == 1e-6


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("{", "line 1"),
        ("[1, 2]", "top level"),
        ('{"dim": 0, "F": [], "G": []}', "dim"),
        ('{"dim": 1, "F": [[[1, 0]]], "G": []}', "G: expected 1 rows"),
        ('{"dim": 1, "F": [[[1, 0]]], "G": [[[1, 0], [0, 1]]]}', "different shapes"),
        ('{"dim": 1, "F": [[[1, 0]]], "G": [[["x", 0]]]}', "G[0][0]"),
        ('{"dim": 1, "F": [[[1, 0]]], "G": [[[1, 0]]], "tolerances": {"foo": 1}}', "unknown keys"),
        ('{"dim": 2, "F": [[[1,0]], [[0,0],[0,0]]], "G": [[[0,0]], [[0,0]]]}', "ragged"),
    ],
)
def test_parse_errors(payload, fragment):
    with pytest.raises(DocumentError) as err:
        load_relation_document(payload)
    assert fragment in str(err.value)


@pytest.mark.parametrize("entry", ["[true, 0]", "[0, false]"])
def test_bool_entries_rejected(entry):
    text = '{"dim": 1, "F": [[[1, 0]]], "G": [[%s]]}' % entry
    with pytest.raises(DocumentError) as err:
        parse_relation(text)
    assert "G[0][0]: expected a [re, im] pair" in str(err.value)


def test_non_finite_entries_rejected():
    text = '{"dim": 1, "F": [[[1e999, 0]]], "G": [[[0, 0]]]}'
    with pytest.raises(DocumentError):
        parse_relation(text)


def test_subspace_round_trip(rng):
    s = gen.random_subspace(rng, 4, 2)
    again = parse_subspace(emit_subspace(s))
    assert again.gap(s) < 1e-8
    with pytest.raises(DocumentError):
        parse_subspace('{"dim": 2, "vectors": [[1, 2]]}')


# -- command line -------------------------------------------------------


def test_cli_classify(tmp_path, capsys):
    t = Relation.from_pairs([(np.array([0.0]), np.array([1.0]))])
    code = main(["classify", _relation_file(tmp_path, t)])
    out = capsys.readouterr().out
    assert code == 0
    assert "selfadjoint: yes" in out
    assert "operator: no" in out


def test_cli_classify_json(tmp_path, capsys):
    t = Relation.from_operator(np.array([[1j]]))
    code = main(["classify", _relation_file(tmp_path, t), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flags"]["dissipative"] is True
    assert doc["flags"]["symmetric"] is False


def test_cli_ztransform(tmp_path, capsys):
    t = Relation.identity(2)
    code = main(["ztransform", "--zeta", "0,1", _relation_file(tmp_path, t)])
    assert code == 0
    image = parse_relation(capsys.readouterr().out)
    assert image.gap(Relation.from_operator(-np.eye(2))) < 1e-10


def test_cli_decompose_dissipative(tmp_path, capsys):
    t = Relation.from_operator(np.diag([0.0, 1j]))
    report_path = tmp_path / "report.json"
    code = main([
        "decompose", "--mode", "dissipative",
        "--report", str(report_path),
        _relation_file(tmp_path, t),
    ])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["mode"] == "dissipative"
    assert doc["k_dim"] == 1
    k = Subspace.span(
        np.array([[complex(re, im) for re, im in row] for row in doc["k_frame"]]),
        ambient_dim=2,
    )
    assert k.gap(Subspace.from_basis_indices(2, [0])) < 1e-8
    assert all(cert["passed"] for cert in doc["certificates"])


def test_cli_decompose_precondition_violation(tmp_path, capsys):
    t = Relation.from_operator(np.array([[-5j]]))
    code = main(["decompose", "--mode", "dissipative", _relation_file(tmp_path, t)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_certify(tmp_path, capsys, rng):
    t, k = gen.random_reducing_pair(rng, 3, k_dim=2)
    rel_path = _relation_file(tmp_path, t)
    sub_path = _write(tmp_path, "k.json", emit_subspace(k))
    code = main(["certify", "--subspace", sub_path, rel_path])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reducing"] is True

    bad = _write(tmp_path, "bad.json", emit_subspace(gen.random_subspace(rng, 3, 1)))
    code = main(["certify", "--subspace", bad, rel_path])
    assert code in (0, 1)  # a random line almost surely fails to reduce
    doc = json.loads(capsys.readouterr().out)
    assert (code == 0) == doc["reducing"]


def test_cli_certify_nonreducing_exits_one(tmp_path, capsys):
    t = Relation.from_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    rel_path = _relation_file(tmp_path, t)
    sub_path = _write(tmp_path, "k.json", emit_subspace(Subspace.from_basis_indices(2, [0])))
    code = main(["certify", "--subspace", sub_path, rel_path])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["reducing"] is False


CERTIFY_NAMES = [
    "reducing",
    "invariant_k_domain",
    "invariant_k_multivalued",
    "invariant_k_restriction_domain",
    "invariant_k_perp_domain",
    "invariant_k_perp_multivalued",
    "invariant_k_perp_restriction_domain",
    "adjoint_reduced",
    "transform_reduced+i",
    "transform_reduced-i",
    "split_dom",
    "split_ran",
    "split_ker",
    "split_mul",
    "adjoint_distribution_k",
    "adjoint_distribution_k_perp",
    "adjoint_sum_identity",
]


def test_cli_certify_failures_carry_their_residuals(tmp_path, capsys):
    # nilpotent Jordan block: span{e1} is invariant but does not reduce
    t = Relation.from_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    rel_path = _relation_file(tmp_path, t)
    sub_path = _write(tmp_path, "k.json", emit_subspace(Subspace.from_basis_indices(2, [0])))
    assert main(["certify", "--subspace", sub_path, rel_path]) == 1
    certificates = json.loads(capsys.readouterr().out)["certificates"]
    assert [c["name"] for c in certificates] == CERTIFY_NAMES
    failed = [c for c in certificates if not c["passed"]]
    assert failed
    for cert in failed:
        assert cert["residual"] >= cert["tolerance"], cert


def test_cli_example(tmp_path, capsys):
    report_path = tmp_path / "shift.json"
    code = main(["example", "shift", "--n", "64", "--margin", "4",
                 "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "all window assertions passed" in out
    doc = json.loads(report_path.read_text())
    assert doc["passed"] is True
    assert doc["n"] == 64


def test_cli_example_bad_window(capsys):
    assert main(["example", "shift", "--n", "4"]) == 2


def test_cli_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["classify", missing]) == 2
    bad = _write(tmp_path, "bad.json", "{nope")
    assert main(["classify", bad]) == 2
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("entry", ["[1%s, 0]" % ("0" * 400), "[0, -1%s]" % ("0" * 400)],
                         ids=["re", "im"])
def test_cli_integer_beyond_float_range_exits_two(tmp_path, capsys, entry):
    path = _write(tmp_path, "huge.json", '{"dim": 1, "F": [[%s]], "G": [[[0, 0]]]}' % entry)
    assert main(["classify", path]) == 2
    assert "F[0][0]: entry beyond float range" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("zeta", ["nan,0", "inf,0", "1e400,0", "0,-inf"])
def test_cli_non_finite_zeta_exits_two(tmp_path, capsys, zeta):
    path = _relation_file(tmp_path, Relation.identity(2))
    assert main(["ztransform", "--zeta", zeta, path]) == 2
    assert f"--zeta: must be finite, got {zeta!r}" in capsys.readouterr().err


# json.dumps writes, and json.loads reads, the NaN and Infinity literals; a
# tolerance that compares false, or passes every residual, must not get in.
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("key", ["rank_tol", "psd_tol", "gap_tol"])
@pytest.mark.parametrize("command", [["classify"], ["decompose", "--mode", "nfl"]])
def test_cli_non_finite_tolerance_exits_two(tmp_path, capsys, command, key, bad):
    doc = json.loads(emit_relation(Relation.from_operator(np.diag([0.5, 0.25, 0.0]))))
    doc["tolerances"] = {key: bad}
    assert main([*command, _write(tmp_path, "tol.json", json.dumps(doc))]) == 2
    err = capsys.readouterr().err
    assert f"tolerances.{key}: expected a finite nonnegative number" in err


def test_cli_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_reports_deterministic(tmp_path, capsys, rng):
    t = gen.random_dissipative(rng, 3)
    path = _relation_file(tmp_path, t)
    main(["decompose", "--mode", "dissipative", path])
    first = capsys.readouterr().out
    main(["decompose", "--mode", "dissipative", path])
    second = capsys.readouterr().out
    assert first == second
    assert "seed" not in json.loads(first)
