import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relcalc import (
    DocumentError,
    Relation,
    Subspace,
    ToleranceConfig,
    WindowConfig,
    emit_relation,
    emit_subspace,
    nfl_decompose,
    parse_relation,
    parse_subspace,
    reduction_certificates,
    run_shift_example,
    symmetric_wold_decompose,
    z_transform,
)
from relcalc import cli
from relcalc.cli import main
from relcalc.io import (
    _encode_matrix,
    classification_document,
    decomposition_document,
    dumps,
    example_document,
    load_relation_document,
    reduction_document,
)

import gen
from reference import loop_encode_matrix


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


@pytest.mark.parametrize("parse, payload, message", [
    (load_relation_document, '{"dim": 1, "F": 3, "G": [[[1, 0]]]}', "F: expected a list of rows"),
    (load_relation_document, '{"dim": 1, "F": [5], "G": [[[1, 0]]]}', "F[0]: expected a list"),
    (load_relation_document, '{"dim": 1, "F": [[[1, 0]]], "G": [[[1, 0]]], "tolerances": []}',
     "tolerances: expected an object"),
    (load_relation_document, '{"dim": 1, "F": [[[1, 0]]], "G": [[[1, 0]]], "name": 3}',
     "name: expected a string"),
    (parse_subspace, '{"dim": 2, "vectors": 3}', "vectors: expected a list of vectors"),
    (parse_subspace, '{"dim": 2, "vectors": [[[1, 0]]]}',
     "vectors[0]: expected a vector of length 2"),
])
def test_documents_reject_malformed_fields(parse, payload, message):
    with pytest.raises(DocumentError) as err:
        parse(payload)
    assert str(err.value) == message


def test_subspace_document_without_vectors_is_the_zero_subspace():
    space = parse_subspace('{"dim": 2, "vectors": []}')
    assert (space.dim, space.ambient_dim) == (0, 2)


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


def test_encode_matrix_matches_loop_encoder(rng):
    edge = np.array([[-0.0, 5e-324, 1e308], [-1e308, -5e-324, 0.0]])
    matrices = [
        edge,
        edge + 1j * edge[::-1],
        1j * edge,
        gen.complex_matrix(rng, 4, 3),
        np.zeros((3, 0), dtype=complex),
        np.zeros((0, 2), dtype=complex),
        np.zeros((0, 0)),
    ]
    for matrix in matrices:
        # repr tells -0.0 from 0.0 and a float from an int
        assert repr(_encode_matrix(matrix)) == repr(loop_encode_matrix(matrix))


def _written_documents(rng):
    """(text relcalc writes, the same document written with indent=2 and
    the per-entry encoder) for every kind of document."""
    t = gen.random_dissipative(rng, 4)
    cfg = ToleranceConfig(gap_tol=1e-7)
    tolerances = {"rank_tol": cfg.rank_tol, "psd_tol": cfg.psd_tol, "gap_tol": cfg.gap_tol}
    relation = {"dim": t.n, "F": loop_encode_matrix(t.F), "G": loop_encode_matrix(t.G),
                "name": "t", "tolerances": tolerances}
    space = gen.random_subspace(rng, 4, 2)
    pairs = [
        (emit_relation(t, name="t", tolerances=cfg), json.dumps(relation, indent=2)),
        (emit_subspace(space), json.dumps(
            {"dim": 4, "vectors": loop_encode_matrix(space.frame.T)}, indent=2)),
    ]
    whole, k = gen.random_reducing_pair(rng, 4, 2)
    documents = [
        classification_document(t),
        reduction_document(whole, k, reduction_certificates(whole, k)),
        example_document(run_shift_example(WindowConfig(n=16))),
    ]
    for doc in documents:
        pairs.append((dumps(doc), json.dumps(doc, indent=2)))
    v = gen.block_contraction(rng, 2, 2)[0]
    shifted = gen.random_shift_symmetric(rng, [2], 1)[0]
    for mode, relation, result in [
        ("nfl", v, nfl_decompose(v)),
        ("symmetric", shifted, symmetric_wold_decompose(shifted, require_maximal=False)),
    ]:
        doc = decomposition_document(mode, relation, result)
        reference = dict(doc, k_frame=loop_encode_matrix(result.k.frame))
        if result.wandering is not None:
            reference["wandering_frame"] = loop_encode_matrix(result.wandering.frame)
        pairs.append((dumps(doc), json.dumps(reference, indent=2)))
    assert ['"wandering_frame"' in text for text, _ in pairs[-2:]] == [False, True]
    return pairs


def test_written_documents_parse_as_indented_ones(rng):
    for text, indented in _written_documents(rng):
        # repr tells -0.0 from 0.0, a float from an int and keeps key order
        assert repr(json.loads(text)) == repr(json.loads(indented))


def test_written_documents_put_one_top_level_key_per_line(rng):
    for text, _ in _written_documents(rng):
        lines = text.split("\n")
        assert lines[0] == "{" and lines[-1] == "}"
        keys = [next(iter(json.loads("{" + line.removesuffix(",") + "}")))
                for line in lines[1:-1]]
        assert keys == list(json.loads(text))


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


def test_cli_example_window_without_delta2_exits_two(capsys):
    # WindowConfig accepts a one-index window; the example rejects it on
    # entry as an input error, not as a failed certificate.
    assert main(["example", "shift", "--n", "8", "--margin", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "delta_2" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["ztransform", "{file}", "-o", "{out}"],
    ["decompose", "--mode", "nfl", "{file}", "--report", "{out}"],
    ["certify", "--subspace", "{subspace}", "{file}", "--report", "{out}"],
    ["example", "shift", "--n", "16", "--report", "{out}"],
], ids=["ztransform", "decompose", "certify", "example"])
def test_cli_unwritable_output_exits_two(tmp_path, capsys, command):
    paths = {
        "file": _relation_file(tmp_path, Relation.from_operator(np.diag([0.5, 1.0]))),
        "subspace": _write(tmp_path, "k.json", emit_subspace(Subspace.from_basis_indices(2, [0]))),
        "out": str(tmp_path / "missing_dir" / "out.json"),
    }
    assert main([arg.format(**paths) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths['out']}: ") and "Traceback" not in err


def test_cli_written_documents_put_one_top_level_key_per_line(tmp_path, capsys):
    path = _relation_file(tmp_path, Relation.from_operator(np.diag([0.5, 1.0])))
    out = tmp_path / "report.json"
    assert main(["decompose", "--mode", "nfl", path, "--report", str(out)]) == 0
    capsys.readouterr()
    assert main(["classify", "--json", path]) == 0
    for text in (out.read_text(), capsys.readouterr().out):
        doc = json.loads(text)
        assert text.strip() == dumps(doc)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("zeta", ["1e200,0", "0,-1e155", "1e308,1e308"])
def test_cli_zeta_whose_square_overflows_exits_two(tmp_path, capsys, zeta):
    path = _relation_file(tmp_path, Relation.identity(2))
    assert main(["ztransform", "--zeta", zeta, path]) == 2
    assert "error: zeta must be finite" in capsys.readouterr().err


_HUGE_AND_TINY = [1e308, -1e308, 1e-320, -1e-320, 1e154, 1.34e154, 1.35e154, 1e155, 1e200, -1e200]


@pytest.fixture(scope="module")
def identity_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("zeta") / "t.json"
    path.write_text(emit_relation(Relation.identity(2)), encoding="utf-8")
    return str(path)


@settings(max_examples=60, derandomize=True, deadline=None)
@example(zeta=(1e308, -1e308))
@example(zeta=(1e-320, -1e-320))
@example(zeta=(1e154, 0.0))
@example(zeta=(0.0, -1.34e154))
@example(zeta=(1.35e154, 0.0))
@example(zeta=(1e200, 1e155))
@given(st.tuples(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(_HUGE_AND_TINY)),
                 st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(_HUGE_AND_TINY))))
def test_cli_ztransform_exits_zero_or_two_on_every_finite_zeta(identity_file, zeta):
    # a finite RE,IM pair is transformed (0) or rejected as input (2), never raised
    re_part, im_part = zeta
    assert main(["ztransform", f"--zeta={re_part!r},{im_part!r}", identity_file]) in (0, 2)


def test_cli_zeta_with_a_negative_real_part(tmp_path, capsys, monkeypatch):
    # argparse reads "-1,0" after a space as an option; the help names the
    # "--zeta=-1,0" form, which is read as the value.
    t = Relation.from_operator(np.diag([1j, 2j]))
    assert main(["ztransform", "--zeta=-1,0", _relation_file(tmp_path, t)]) == 0
    image = parse_relation(capsys.readouterr().out)
    assert image.gap(z_transform(t, -1.0)) < 1e-12
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_info:
        main(["ztransform", "--help"])
    assert exit_info.value.code == 0
    assert "--zeta=-1,0" in capsys.readouterr().out


@pytest.mark.parametrize("zeta", ["1", "1,2,3", "i,0"])
def test_cli_zeta_not_a_pair_exits_two(tmp_path, capsys, zeta):
    path = _relation_file(tmp_path, Relation.identity(2))
    assert main(["ztransform", "--zeta", zeta, path]) == 2
    assert f"--zeta: expected RE,IM, got {zeta!r}" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", [["classify"], ["decompose", "--mode", "nfl"]])
def test_cli_gap_tol_of_one_exits_two(tmp_path, capsys, command):
    doc = json.loads(emit_relation(Relation.from_operator(np.diag([0.5, 0.25, 0.0]))))
    doc["tolerances"] = {"gap_tol": 1}
    with pytest.raises(DocumentError, match="tolerances.gap_tol must be below 1"):
        load_relation_document(json.dumps(doc))
    assert main([*command, _write(tmp_path, "tol.json", json.dumps(doc))]) == 2
    assert "tolerances.gap_tol must be below 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["classify"], ["decompose", "--mode", "nfl"]])
def test_cli_rank_tol_of_one_over_sqrt_two_exits_two(tmp_path, capsys, command):
    # A sine cut of sqrt(2) * rank_tol at 1 or more would keep every sine.
    doc = json.loads(emit_relation(Relation.from_operator(np.diag([1.0, 0.5, 0.2]))))
    doc["tolerances"] = {"rank_tol": 0.71}
    message = "tolerances.rank_tol must be below 1/sqrt(2)"
    with pytest.raises(DocumentError, match=re.escape(message)):
        load_relation_document(json.dumps(doc))
    assert main([*command, _write(tmp_path, "tol.json", json.dumps(doc))]) == 2
    assert message in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    # In-process calls share one parser, across successes, a bad flag
    # (argparse's exit 2) and a ValueError (exit 2), with the outputs and
    # exit codes of a fresh parser per call.
    path = _relation_file(tmp_path, Relation.from_operator(np.diag([0.0, 1j])))
    bad = _relation_file(tmp_path, Relation.from_operator(np.array([[-5j]])), "bad.json")
    decompose = ["decompose", "--mode", "dissipative", path]
    sequence = [["classify", path], ["ztransform", path], decompose,
                ["decompose", "--mode", "nfl", "--frobnicate", path],
                ["decompose", "--mode", "dissipative", bad], decompose]

    def run_sequence():
        results = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = run_sequence()
    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        shared = run_sequence()
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 2, 0]
    assert "unrecognized arguments: --frobnicate" in shared[3][2]
    assert "relation is not dissipative" in shared[4][2]
    monkeypatch.undo()
    assert cli.build_parser() is not cli.build_parser()


def test_cli_reports_deterministic(tmp_path, capsys, rng):
    t = gen.random_dissipative(rng, 3)
    path = _relation_file(tmp_path, t)
    main(["decompose", "--mode", "dissipative", path])
    first = capsys.readouterr().out
    main(["decompose", "--mode", "dissipative", path])
    second = capsys.readouterr().out
    assert first == second
    assert "seed" not in json.loads(first)
