"""End-to-end command line behavior, run in process."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

import gmetrix
from gmetrix.cli import MAX_RANDOM_POINTS, _budget_from, build_parser, main
from test_dsl import _XS, _expressions


def _reject_constant(token):
    raise ValueError(f"stdout holds {token}, which is not JSON")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = (json.loads(captured.out, parse_constant=_reject_constant)
           if captured.out else None)
    return code, doc, captured.err


#: Modules no command needs; importing any of them costs start-up time
HEAVY_MODULES = ("xml", "urllib.request", "http", "email", "ssl")


def test_cli_import_leaves_out_heavy_modules():
    # a fresh interpreter ignoring PYTHON* variables and user site packages
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import gmetrix.cli; "
             "print(' '.join(sorted(sys.modules)))")
    src = os.path.dirname(os.path.dirname(gmetrix.__file__))
    loaded = subprocess.run([sys.executable, "-E", "-s", "-c", probe, src],
                            capture_output=True, text=True, check=True)
    assert set(loaded.stdout.split()).isdisjoint(HEAVY_MODULES)


def test_no_arguments_is_a_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 64
    assert "usage error" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64


def test_realize_right_triangle(capsys):
    code, doc, _ = run(capsys, "realize", "3", "4", "5")
    assert code == 0
    assert doc["triplet"] == [3.0, 4.0, 5.0]
    assert doc["points"] == {"u": [0.0, 0.0], "v": [3.0, 0.0],
                             "w": [0.0, 4.0]}


def test_realize_undecidable_inputs(capsys):
    code, _, err = run(capsys, "realize", "3", "1", "1")
    assert code == 2
    assert "undecidable input" in err
    code, _, _ = run(capsys, "realize", "0", "1", "1")
    assert code == 2
    code, _, _ = run(capsys, "realize", "3", "x", "5")
    assert code == 64


def test_realize_names_a_zero_side_as_floats(capsys):
    code, doc, err = run(capsys, "realize", "0", "4", "5")
    assert code == 2
    assert doc is None
    assert ("undecidable input: side lengths must be positive, got "
            "(0.0, 4.0, 5.0)") in err
    assert "Fraction(" not in err


def test_realize_huge_sides(capsys):
    code, doc, _ = run(capsys, "realize", "1e300", "1e300", "1e300")
    assert code == 0
    assert doc["points"]["w"] == pytest.approx([0.5e300, 0.75 ** 0.5 * 1e300])


@pytest.mark.parametrize("argv", [("1e400", "1", "1"), ("--", "-1", "1", "1"),
                                  ("3", "4", "-1/2")])
def test_realize_rejects_out_of_range_sides(capsys, argv):
    code, _, err = run(capsys, "realize", *argv)
    assert code == 64
    assert "usage error" in err


def test_realize_rejects_a_side_that_underflows(capsys):
    code, doc, err = run(capsys, "realize", "1e-400", "4", "5")
    assert code == 64
    assert doc is None
    assert "'1e-400' underflows to 0 as a float" in err
    assert len(err) < 300  # no 401-digit denominator


def test_fn_eval(capsys):
    code, doc, err = run(capsys, "fn", "eval", "min(x, 1)", "--at", "3")
    assert code == 0
    assert doc == {"source": "min(x, 1)", "value": 1.0, "x": 3.0}
    assert "f(3.0) = 1.0" in err


def test_fn_eval_domain_problem_is_undecidable(capsys):
    code, _, err = run(capsys, "fn", "eval", "sqrt(x - 5)", "--at", "1")
    assert code == 2
    assert "undecidable input" in err


def test_fn_eval_rejects_negative_argument(capsys):
    code, _, _ = run(capsys, "fn", "eval", "x", "--at", "-1")
    assert code == 64


@pytest.mark.parametrize("argv", [
    ("member", "x", "--class", "B", "--x-max", "1e400"),
    ("search", "x", "--class", "B", "--x-max=-1e400"),
    ("fn", "eval", "x", "--at", "1e400"),
    ("fn", "classify", "x", "--plateau-b", "1e400"),
    ("region", "check", "x", "--a", "1e400", "--b", "1", "--n", "1"),
    ("region", "check", "x", "--a", "1", "--b", "1e400", "--n", "1"),
])
def test_numeric_flag_overflow_is_a_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 64
    assert "out of float range" in err


@pytest.mark.parametrize("argv", [
    ("fn", "eval", "x", "--at", "1e99999999"),
    ("fn", "eval", "x", "--at", "1e-99999999"),
    ("member", "x", "--class", "B", "--x-max", "1e999999999"),
    ("search", "x", "--class", "B", "--x-max", "1E999999999"),
    ("region", "check", "x", "--a", "1", "--b", "0e999999999", "--n", "1"),
    ("realize", "1e999999999", "1", "1"),
])
def test_numeric_flag_with_huge_exponent_is_rejected_at_once(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 64
    assert "exceeds the int digit limit" in err


def test_document_entry_with_huge_exponent_is_a_file_error(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text('{"points": ["x", "y"], '
                    '"entries": [[0, "1e999999999"], ["1e999999999", 0]]}',
                    encoding="utf-8")
    code, _, err = run(capsys, "space", "verify", str(path))
    assert code == 66
    assert "exceeds the int digit limit" in err


def test_entry_past_the_int_str_limit_is_printed_in_full(capsys, tmp_path):
    # 10^4300 has 4,301 digits, one more than str() of an int may write by
    # default; the verdicts, witnesses and the file error still print it
    digits = "1" + "0" * 4300
    path = tmp_path / "three.json"
    path.write_text('{"points": ["x", "y", "z"], "entries": '
                    '[[0, "1e4300", 1], ["1e4300", 0, 1], [1, 1, 0]]}',
                    encoding="utf-8")
    code, doc, _ = run(capsys, "space", "verify", str(path), "--class",
                       "metric")
    assert code == 1
    witness = doc["verdict"]["witness"]
    assert (witness["lhs"], witness["rhs"]) == (digits, 2)
    assert witness["description"] == f"d(x,y) = {digits} > 2 = " \
        "sum(d(x,z), d(z,y))"
    code, doc, _ = run(capsys, "space", "verify", str(path))
    assert code == 0
    verdicts = doc["classification"]
    assert verdicts["metric"]["witness"]["lhs"] == digits
    # half of it has 4,300 digits, so it stays a JSON number
    assert verdicts["b-metric"]["constants"]["s_min"] == 5 * 10 ** 4299
    # a negative entry is a file problem, as "-1" is
    path.write_text('{"points": ["x", "y"], '
                    '"entries": [[0, "-1e4300"], ["-1e4300", 0]]}',
                    encoding="utf-8")
    code, doc, err = run(capsys, "space", "verify", str(path))
    assert (code, doc) == (66, None)
    assert f"entries[0][1] = -{digits} is negative" in err


@pytest.mark.parametrize("source", ["floor(x*x - x*x)", "ceil(x*x - x*x)"])
def test_rounding_a_nan_is_undecidable(capsys, source):
    # inf - inf is NaN, which math.floor and math.ceil refuse
    code, _, err = run(capsys, "fn", "eval", source, "--at", "1e200")
    assert code == 2
    assert "undecidable input: NaN during evaluation" in err


@pytest.mark.parametrize("source", ["min(1, x*x - x*x)", "max(x*x - x*x, 1)",
                                    "1 ^ (x*x - x*x)", "(x*x - x*x) ^ 0"])
def test_min_max_of_a_nan_is_undecidable(capsys, source):
    # a NaN argument must not be dropped by the comparison or the power
    code, doc, err = run(capsys, "fn", "eval", source, "--at", "1e200")
    assert code == 2
    assert doc is None
    assert "undecidable input: NaN during evaluation (at x = 1e+200)" in err


def test_bad_expression_reports_position(capsys):
    code, _, err = run(capsys, "fn", "eval", "2x", "--at", "1")
    assert code == 64
    assert "line 1, column 2" in err


@pytest.mark.parametrize("source", ["(" * 500 + "x" + ")" * 500,
                                    "1" + "0" * 400])
def test_hostile_expression_is_a_usage_error(capsys, source):
    code, _, err = run(capsys, "fn", "eval", source, "--at", "1")
    assert code == 64
    assert "expression error" in err and "line 1, column" in err


def test_piece_condition_must_compare_x(capsys):
    code, _, err = run(capsys, "fn", "classify", "piece(x + 1 ? 1 : 2)")
    assert code == 64
    assert err == ("expression error: unexpected '+' at line 1, column 9 "
                   "(expected '<', '<=')\n")


def test_fn_classify(capsys):
    code, doc, _ = run(capsys, "fn", "classify", "sqrt(x)",
                       "--x-max", "10", "--points", "500")
    assert code == 0
    assert doc["subadditive"]["status"] == "holds"
    assert doc["grid"] == {"x_max": 10.0, "n_points": 500, "seed": 1}


@pytest.mark.parametrize("argv", [
    ["x", "--x-max", "0.000000001"],  # fewer than four tail samples
    ["piece(x < 0.00000003 ? 1 : 0.5)"],  # the tail neither vanishes nor holds
], ids=["short-tail", "unsteady-tail"])
def test_fn_classify_without_a_limit_at_zero(capsys, argv):
    code, doc, _ = run(capsys, "fn", "classify", *argv)
    assert code == 0
    assert doc["limit_at_zero"] is None


def test_space_random_then_verify(capsys, tmp_path):
    out = tmp_path / "m.json"
    code, doc, _ = run(capsys, "space", "random", "--kind", "metric",
                       "-n", "4", "--seed", "5", "-o", str(out))
    assert code == 0
    assert doc["kind"] == "metric"
    assert out.exists()

    code, doc, _ = run(capsys, "space", "verify", str(out))
    assert code == 0
    assert doc["classification"]["metric"]["status"] == "holds"
    assert "given_theta" not in doc

    code, doc, _ = run(capsys, "space", "verify", str(out),
                       "--class", "metric")
    assert code == 0
    assert doc["kind"] == "metric"


def test_space_verify_extended_includes_given_theta(capsys, tmp_path):
    out = tmp_path / "ext.json"
    code, _, _ = run(capsys, "space", "random", "--kind", "extended-b-metric",
                     "-n", "4", "--seed", "5", "-o", str(out))
    assert code == 0
    code, doc, _ = run(capsys, "space", "verify", str(out))
    assert code == 0
    assert doc["given_theta"]["status"] == "holds"


def test_space_verify_failing_kind_exits_one(capsys, tmp_path):
    out = tmp_path / "m.json"
    run(capsys, "space", "random", "--kind", "metric",
        "-n", "5", "--seed", "0", "-o", str(out))
    code, doc, _ = run(capsys, "space", "verify", str(out),
                       "--class", "ultrametric")
    assert code == 1
    assert doc["verdict"]["status"] == "fails"


def test_space_verify_missing_file(capsys):
    code, _, err = run(capsys, "space", "verify", "/nonexistent/space.json")
    assert code == 66
    assert "file error" in err


def test_space_verify_malformed_file(capsys, tmp_path):
    ragged = tmp_path / "ragged.json"
    ragged.write_text('{"points": ["x", "y"], "entries": [[0, 1]]}',
                      encoding="utf-8")
    code, _, err = run(capsys, "space", "verify", str(ragged))
    assert code == 66
    assert "file error" in err

    floats = tmp_path / "floats.json"
    floats.write_text('{"points": ["x", "y"], "entries": [[0, 1.5], [1.5, 0]]}',
                      encoding="utf-8")
    code, _, _ = run(capsys, "space", "verify", str(floats))
    assert code == 66

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    code, _, _ = run(capsys, "space", "verify", str(broken))
    assert code == 66


@pytest.mark.parametrize("n", [MAX_RANDOM_POINTS + 1, 10 ** 5])
def test_space_verify_rejects_an_oversized_document(capsys, tmp_path, n):
    # no rows at all, so only the point cap can reject the document cheaply
    doc = {"points": [f"p{i}" for i in range(n)], "entries": []}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "space", "verify", str(path))
    assert code == 66
    assert f"{n} points exceed the cap of {MAX_RANDOM_POINTS}" in err


@pytest.mark.parametrize("content", [
    b'{"points": ["x", "y"], "entries": [[0, 1' + b"0" * 5000 + b'], [1, 0]]}',
    b'{"points": ["\xe9"], "entries": [[0]]}',
    b"[" * 100_000,
], ids=["integer-past-digit-limit", "not-utf-8", "deep-nesting"])
def test_space_verify_undecodable_document_is_a_file_error(capsys, tmp_path,
                                                           content):
    path = tmp_path / "space.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "space", "verify", str(path))
    assert code == 66
    assert "file error: invalid JSON" in err


@pytest.mark.parametrize("text, message", [
    ('{"points": ["x", "y"], "entries": 5}', '"entries" must be a list of rows'),
    ('{"points": ["x", "y"], "entries": [[0, 1], [1, 0]], "theta": 3}',
     '"theta" must be a list of rows'),
    ('{"points": [], "entries": []}', "at least one point is required"),
], ids=["entries-not-rows", "theta-not-rows", "no-points"])
def test_space_verify_document_without_rows_is_a_file_error(capsys, tmp_path,
                                                            text, message):
    path = tmp_path / "space.json"
    path.write_text(text, encoding="utf-8")
    for kind in ([], ["--class", "metric"]):
        code, doc, err = run(capsys, "space", "verify", str(path), *kind)
        assert code == 66
        assert doc is None
        assert err == f"file error: {message}\n"


def test_space_verify_identity_violator_exits_one(capsys, tmp_path):
    doc = {"points": ["x", "y"], "entries": [[0, 0], [0, 0]]}
    path = tmp_path / "pseudo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "space", "verify", str(path))
    assert code == 1
    assert all(row["status"] == "fails"
               for row in out["classification"].values())


def test_space_random_rejects_function_class_kind(capsys):
    code, _, _ = run(capsys, "space", "random", "--kind", "MB",
                     "-n", "4", "--seed", "1")
    assert code == 64


@pytest.mark.parametrize("n", ["1", "0", str(MAX_RANDOM_POINTS + 1)])
def test_space_random_point_count_is_bounded(capsys, n):
    # rejected while parsing the flags, before any table is allocated
    code, _, err = run(capsys, "space", "random", "--kind", "metric",
                       "-n", n, "--seed", "1")
    assert code == 64
    assert "usage error" in err


def test_preserve_paths(capsys, tmp_path):
    path = tmp_path / "path.json"
    doc = {"points": ["x", "y", "z"], "entries": [[0, 1, 2],
                                                  [1, 0, 1],
                                                  [2, 1, 0]]}
    path.write_text(json.dumps(doc), encoding="utf-8")

    code, out, _ = run(capsys, "preserve", "x^2", "--space", str(path),
                       "--target", "metric")
    assert code == 1
    assert out["verdict"]["status"] == "fails"

    code, out, _ = run(capsys, "preserve", "x^2", "--space", str(path),
                       "--target", "b-metric")
    assert code == 0
    assert out["verdict"]["constants"]["s_min"] == 2

    # the path space is not ultrametric, so the source premise fails
    code, _, err = run(capsys, "preserve", "x", "--space", str(path),
                       "--target", "ultrametric")
    assert code == 2
    assert "undecidable input" in err


def test_preserve_with_a_nonzero_origin_fails(capsys, tmp_path):
    path = tmp_path / "path.json"
    path.write_text('{"points": ["x", "y", "z"], '
                    '"entries": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}',
                    encoding="utf-8")
    code, out, _ = run(capsys, "preserve", "x + 1", "--space", str(path),
                       "--target", "b-metric")
    assert code == 1
    witness = out["verdict"]["witness"]
    assert out["verdict"]["status"] == "fails"
    assert witness["points"] == ["x"]
    assert witness["description"] == (
        "f(d(x,x)) = f(0) = 1, but the image of d(x,x) = 0 must be 0")


def test_preserve_float_path_rejects_an_entry_past_float_range(capsys,
                                                              tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"points": ["x", "y"], '
                    '"entries": [[0, "1e400"], ["1e400", 0]]}',
                    encoding="utf-8")
    code, _, err = run(capsys, "preserve", "sqrt(x)", "--space", str(path),
                       "--target", "metric")
    assert code == 2
    assert "undecidable input: table entry outside the float range" in err


def test_preserve_rational_run_keeps_a_collinear_metric(capsys, tmp_path):
    path = tmp_path / "collinear.json"
    path.write_text('{"points": ["x", "y", "z"], "entries": '
                    '[[0, "295147/134653", "20133423508/6615636543"], '
                    '["295147/134653", 0, "794773/933489"], '
                    '["20133423508/6615636543", "794773/933489", 0]]}',
                    encoding="utf-8")
    code, doc, _ = run(capsys, "preserve", "abs(x)", "--space", str(path),
                       "--target", "metric")
    assert (code, doc["verdict"]["status"]) == (0, "holds")


def test_preserve_rational_run_names_huge_values_exactly(capsys, tmp_path):
    # 1e4000 fits no float, and -1e8000 has more digits than str() may write
    path = tmp_path / "huge.json"
    path.write_text('{"points": ["x", "y"], '
                    '"entries": [[0, "1e4000"], ["1e4000", 0]]}',
                    encoding="utf-8")
    code, doc, err = run(capsys, "preserve", "x*x - 2*x*x", "--space",
                         str(path), "--target", "b-metric")
    assert (code, doc) == (2, None)
    assert f"value -1{'0' * 8000} is negative (at x = 1{'0' * 4000})" in err
    code, doc, err = run(capsys, "preserve", "x - 2*x", "--space", str(path),
                         "--target", "b-metric")
    assert (code, doc) == (2, None)
    assert f"value -1{'0' * 4000} is negative" in err
    assert "Fraction(" not in err


def test_member_exit_codes(capsys):
    code, doc, _ = run(capsys, "member", "x^2", "--class", "EB",
                       "--points", "2000")
    assert code == 0
    assert doc["status"] == "member"

    code, doc, _ = run(capsys, "member", "exp(x) - 1", "--class", "EB",
                       "--points", "2000")
    assert code == 1
    assert doc["status"] == "non-member-evidence"

    code, doc, _ = run(capsys, "member", "sqrt(x)", "--class", "U",
                       "--points", "2000", "--samples", "2000")
    assert code == 2
    assert doc["status"] == "inconclusive"


# the grid and triplet budget of test_preservation's rung tests
_RUNG_FLAGS = ("--samples", "6000", "--points", "1200", "--grid-seed", "0",
               "--seed", "0")


@pytest.mark.parametrize("source, klass, code, basis", [
    ("piece(x <= 30 ? x : piece(x < 35 ? 0 : x))", "B", 1,
     gmetrix.BASIS_AMENABILITY),
    ("piece(x < 30 ? x : piece(x <= 30 ? 1000000000 : x))", "MB", 1,
     gmetrix.BASIS_TRIPLET_DIVERGENCE),
    ("piece(x < 30 ? piece(x <= 1 ? x : 1 + 1/x) : "
     "piece(x <= 30 ? 1000000000 : 1 + 1/x))", "EB", 2, None),
    ("piece(x <= 1 ? x : 1 + 1/x)", "DU", 2, None),
])
def test_member_exit_codes_of_the_scan_rungs(capsys, source, klass, code,
                                             basis):
    got, doc, _ = run(capsys, "member", source, "--class", klass,
                      *_RUNG_FLAGS)
    assert (got, doc["basis"]) == (code, basis)


#: the largest seed --seed reads (int() takes up to 4,300 digits)
_HUGE_SEED = "9" * 4300


def test_seed_at_the_int_str_limit_is_drawn_from(capsys):
    # seed + 1 and seed * 1000 + i have more digits than str() may write
    code, doc, _ = run(capsys, "member", "x", "--class", "B",
                       "--seed", _HUGE_SEED, "--samples", "20000")
    assert (code, doc["status"]) == (0, "member")
    assert doc["budget"]["seed"] == int(_HUGE_SEED)
    code, doc, _ = run(capsys, "search", "exp(x)-1", "--class", "MB",
                       "--seed", _HUGE_SEED, "--samples", "20000")
    assert code == 1
    assert doc["witness"] is not None
    code, doc, _ = run(capsys, "suite", "--seed", _HUGE_SEED)
    assert code == 0
    assert len(doc["assertions"]) == 12
    assert all(item["passed"] for item in doc["assertions"])


def test_preserve_names_an_entry_past_the_float_and_digit_limits(capsys,
                                                                tmp_path):
    path = tmp_path / "two.json"
    path.write_text('{"points": ["x", "y"], '
                    '"entries": [[0, "1e4300"], ["1e4300", 0]]}',
                    encoding="utf-8")
    code, doc, err = run(capsys, "preserve", "x^2", "--space", str(path),
                         "--target", "metric")
    assert (code, doc) == (2, None)
    assert "table entry outside the float range (at x = '1" + "0" * 4300 \
        in err


@pytest.mark.parametrize("command", ["member", "search"])
# the scale is 2 * x-max; the second is the largest x-max whose scale
# still underflows
@pytest.mark.parametrize("flags", [("--x-max", "5e-324"),
                                   ("--x-max", "2.5e-323")])
def test_triplet_scale_whose_twentieth_underflows_is_a_usage_error(
        capsys, command, flags):
    code, _, err = run(capsys, command, "x", "--class", "B", *flags,
                       "--points", "10", "--samples", "10")
    assert code == 64
    assert "underflows when divided by 20" in err


@pytest.mark.parametrize("argv, code", [
    (("fn", "classify", "x/(1+x)", "--points", "9", "--plateau-b",
      "8e-319"), 0),
    (("region", "check", "x", "--a", "1", "--b", "5e-324", "--n", "2"), 2),
])
def test_plateau_edge_whose_tail_floor_underflows_ends(capsys, argv, code):
    # b * 2^-30 underflows to 0, and the geometric tail stops at the last
    # positive float instead of halving zero forever
    assert run(capsys, *argv)[0] == code


def test_realize_sides_that_span_the_float_range(capsys):
    code, doc, _ = run(capsys, "realize", "7.577708634473567e-264",
                       "1.6069380442589903e+60", "1.6069380442589903e+60")
    assert code == 0
    assert doc["points"]["w"] == [0.0, 1.6069380442589903e+60]


def test_member_rejects_unsupported_classes(capsys):
    for klass in ("M", "BM"):
        code, doc, err = run(capsys, "member", "x", "--class", klass,
                             "--points", "500", "--samples", "100")
        assert code == 64
        assert doc is None
        assert err == (f"usage error: membership for {klass!r} is not "
                       "decidable here (supported: U, DU, B, MB, EB)\n")
    code, _, _ = run(capsys, "member", "x", "--class", "metric")
    assert code == 64


def test_search_rejects_unsupported_classes(capsys):
    for klass in ("M", "BM"):
        code, doc, err = run(capsys, "search", "x", "--class", klass)
        assert code == 64
        assert doc is None
        assert err == (f"usage error: search for {klass!r} is not supported "
                       "(supported: U, DU, B, MB, EB)\n")


# a metric document for the commands that read one, written where "DOC" is
_METRIC_DOC = ('{"points": ["x", "y", "z"], '
               '"entries": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}')


def _with_document(tmp_path, argv):
    path = tmp_path / "space.json"
    path.write_text(_METRIC_DOC, encoding="utf-8")
    return [str(path) if arg == "DOC" else arg for arg in argv]


@pytest.mark.parametrize("argv", [
    ["member", "x", "--class", "foo"],
    ["search", "x", "--class", "foo"],
    ["space", "verify", "DOC", "--class", "foo"],
    ["space", "random", "--kind", "foo", "-n", "3", "--seed", "1"],
    ["preserve", "x", "--space", "DOC", "--target", "foo"],
], ids=["member", "search", "space-verify", "space-random", "preserve"])
def test_unknown_class_tag_is_a_usage_error(capsys, tmp_path, argv):
    # the tag is read while the flags are parsed, and its error takes the
    # usage exit like any other bad flag rather than escaping main
    code, doc, err = run(capsys, *_with_document(tmp_path, argv))
    assert code == 64
    assert doc is None
    assert err == "usage error: unknown class tag 'foo'\n"


@pytest.mark.parametrize("argv, message", [
    (["member", "x", "--class", "metric"],
     "--class: 'metric' names a space kind, not a function class"),
    (["search", "x", "--class", "b-metric"],
     "--class: 'b-metric' names a space kind, not a function class"),
    (["space", "verify", "DOC", "--class", "EB"],
     "--class: 'EB' names a function class, not a space kind"),
    (["space", "random", "--kind", "MB", "-n", "3", "--seed", "1"],
     "--kind: 'MB' names a function class, not a space kind"),
    (["preserve", "x", "--space", "DOC", "--target", "B"],
     "--target: 'B' names a function class, not a space kind"),
], ids=["member", "search", "space-verify", "space-random", "preserve"])
def test_tag_of_the_other_family_is_a_usage_error(capsys, tmp_path, argv,
                                                  message):
    code, doc, err = run(capsys, *_with_document(tmp_path, argv))
    assert code == 64
    assert doc is None
    assert err == f"usage error: argument {message}\n"


def test_search_witness_and_absence(capsys):
    code, doc, _ = run(capsys, "search", "exp(x) - 1", "--class", "B",
                       "--points", "2000", "--samples", "5000")
    assert code == 1
    assert doc["witness"]["samples_used"] <= 5000

    code, doc, _ = run(capsys, "search", "x", "--class", "B",
                       "--points", "500", "--samples", "2000")
    assert code == 2
    assert doc["witness"] is None


def test_search_witness_at_huge_scale(capsys):
    # vanishes up to 1e199, so a triplet at scale 1e200 (twice x-max) has
    # an infinite constant; realizing it squares sides near 1e200
    source = "piece(x <= 1" + "0" * 199 + " ? 0 : x)"
    code, doc, _ = run(capsys, "search", source, "--class", "B",
                       "--x-max", "5e199", "--points", "10")
    assert code == 1
    assert doc["witness"]["constant"] == "inf"
    assert all(math.isfinite(coordinate)
               for point in doc["witness"]["points"].values()
               for coordinate in point)


def test_an_infinite_constant_is_written_as_inf(capsys):
    # a grid pair ratio near 1e300 / (2 * 1e-240) overflows to inf
    code, doc, _ = run(capsys, "fn", "classify",
                       "piece(x <= 0.00000001 ? x^30 : 10^300)")
    assert code == 0
    assert doc["quasi_subadditive"]["constants"]["s_star_estimate"] == "inf"
    # a scan ratio overflows with no image 0: no class is refuted, and the
    # extended class's sufficient route holds with s = inf
    source = "piece(x <= 1 ? x^30 : 10^305)"
    for klass in ("U", "DU", "B", "MB"):
        code, doc, _ = run(capsys, "member", source, "--class", klass,
                           "--points", "1200", "--samples", "8000")
        assert (code, doc["status"]) == (2, "inconclusive"), klass
    code, doc, _ = run(capsys, "member", source, "--class", "EB",
                       "--points", "1200")
    assert code == 0
    assert doc["constants"]["s"] == "inf"
    # nor is the overflow a search witness: search finds none, as member
    # refutes nothing
    code, doc, _ = run(capsys, "search", source, "--class", "B",
                       "--points", "1200", "--samples", "8000")
    assert code == 2
    assert doc["witness"] is None


@pytest.mark.parametrize("command", ["member", "search"])
# the scale is 2 * x-max; the second is the largest x-max the grid takes,
# whose scale is the largest float
@pytest.mark.parametrize("flags", [("--x-max", "5e307"),
                                   ("--x-max", "8.988465674311579e307")])
def test_triplet_scale_whose_double_overflows_is_a_usage_error(
        capsys, command, flags):
    code, _, err = run(capsys, command, "x", "--class", "B", *flags,
                       "--points", "10", "--samples", "10")
    assert code == 64
    assert "usage error" in err and "overflows" in err


@pytest.mark.parametrize("argv,message", [
    (("fn", "classify", "x", "--points", "1"), "n_points must be at least 2"),
    (("member", "x", "--class", "B", "--points", "1"),
     "n_points must be at least 2"),
    (("search", "x", "--class", "B", "--points", "1"),
     "n_points must be at least 2"),
    (("fn", "classify", "x", "--x-max", "1e308", "--points", "10"),
     "x_max 1e+308 overflows when doubled"),
    (("member", "x", "--class", "B", "--x-max", "1e308", "--points", "10"),
     "x_max 1e+308 overflows when doubled"),
    # only rejected counts are probed: an accepted one allocates its grid
    *((command + ("--points", points),
       f"n_points {points} exceeds the cap of 1000000")
      for command in (("fn", "classify", "x"),
                      ("member", "x", "--class", "B"),
                      ("search", "x", "--class", "B"))
      for points in ("1000001", "1000000000000")),
])
def test_grid_flags_out_of_range_are_usage_errors(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 64
    assert f"usage error: {message}" in err


def test_flag_defaults_are_the_spec_defaults():
    # each default is read from its spec, so the flags and the library agree
    parser = build_parser()
    for command in ("member", "search"):
        args = parser.parse_args([command, "x", "--class", "B"])
        assert _budget_from(args) == gmetrix.Budget()
    args = parser.parse_args(["fn", "classify", "x"])
    assert gmetrix.GridSpec(x_max=args.x_max, n_points=args.points,
                            seed=args.seed) == gmetrix.GridSpec()
    for command in ("check", "plot"):
        args = parser.parse_args(["region", command, "x", "--a", "1",
                                  "--b", "1", "--n", "3"])
        assert args.samples == gmetrix.RegionSpec(1, 1, 3).samples_per_interval


@pytest.mark.parametrize("command", ["member", "search"])
def test_scale_flag_is_refused(capsys, command):
    # the scan's scale is 2 * x-max; no flag sets it apart from the grid
    code, doc, err = run(capsys, command, "x", "--class", "B", "--scale", "1")
    assert (code, doc) == (64, None)
    assert "unrecognized arguments: --scale 1" in err


def test_suite_is_reproducible(capsys):
    code, doc, err = run(capsys, "suite", "--seed", "42")
    assert code == 0
    assert all(item["passed"] for item in doc["assertions"])
    assert "pass" in err
    first = json.dumps(doc, sort_keys=True)
    code, doc, _ = run(capsys, "suite", "--seed", "42")
    assert code == 0
    assert json.dumps(doc, sort_keys=True) == first


#: sha256 of `suite --seed S` stdout, the same on Python 3.10 to 3.13
SUITE_SHA256 = {
    0: "ffdf77e109ce3ba22bd5a23c71ad76b5bf3c1a5b65bc4d28d10abaa0a1dc7db3",
    1: "aea8fc3eab3243bde036f91f5900b26ab0003c9ba165ed359470dd223db1ffd4",
    2: "ecdf5adff6592d2553a5e3db4f0cbfa5adedfec663bfc0a1035af27a5a6bfd3d",
    3: "30d3cbdf4c3e181a62c7e618bfecd53e70443d29cf909df1b19af0e5f22543ee",
}


@pytest.mark.parametrize("seed", sorted(SUITE_SHA256))
def test_suite_output_is_pinned(capsys, seed):
    assert main(["suite", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_SHA256[seed]


def test_region_check_and_plot(capsys, tmp_path):
    code, doc, _ = run(capsys, "region", "check", "ceil(x)",
                       "--a", "1", "--b", "1", "--n", "20")
    assert code == 0
    assert doc["all_hold"] is True

    svg = tmp_path / "out.svg"
    code, doc, _ = run(capsys, "region", "plot", "ceil(x)",
                       "--a", "1", "--b", "1", "--n", "6", "-o", str(svg))
    assert code == 0
    assert doc["svg"] == str(svg)
    assert svg.read_text(encoding="utf-8").startswith("<svg ")


def test_region_plot_onto_a_directory_leaves_no_temp_file(capsys, tmp_path):
    target = tmp_path / "out.svg"
    target.mkdir()
    code, doc, err = run(capsys, "region", "plot", "ceil(x)", "--a", "1",
                         "--b", "1", "--n", "3", "-o", str(target))
    assert (code, doc) == (66, None)
    assert "file error" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.svg"]


def test_region_check_failure_exits_one(capsys):
    mutant = "piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : piece(x <= 2 ? 3 : ceil(x))))"
    code, doc, _ = run(capsys, "region", "check", mutant,
                       "--a", "1", "--b", "1", "--n", "20")
    assert code == 1
    assert [item["n"] for item in doc["intervals"]
            if item["verdict"]["status"] == "fails"] == [1]


@pytest.mark.parametrize("command", ["check", "plot"])
@pytest.mark.parametrize("flags, message", [
    (("--a", "1", "--n", "1030"), "overflows"),
    (("--a", "1e20", "--n", "1000"), "overflows"),
    (("--a", "1", "--n", "3", "--samples", "1"), "samples_per_interval"),
    (("--a", "1", "--n", "3", "--samples", "1001"), "exceeds the cap of 1000"),
    (("--a", "1", "--n", "3", "--samples", "1000000000000"),
     "exceeds the cap of 1000"),
    # a later --b wins over the --b 1 in front
    (("--a", "1", "--n", "2", "--b", "1e308"), "(16 * b)"),
    (("--a", "1", "--n", "2", "--b", "1e306", "--samples", "1000"),
     "(1000 * b)"),
])
def test_region_spec_out_of_range_is_a_usage_error(capsys, tmp_path, command,
                                                   flags, message):
    out = () if command == "check" else ("-o", str(tmp_path / "r.svg"))
    code, _, err = run(capsys, "region", command, "ceil(x)", "--b", "1",
                       *flags, *out)
    assert code == 64
    assert "usage error" in err and message in err
    assert not (tmp_path / "r.svg").exists()


def test_region_plot_refuses_a_path_that_overflows(capsys, tmp_path):
    flags = ("piece(x <= 0 ? 0 : 1)", "--a", "1", "--b", "1e306", "--n", "2")
    code, doc, _ = run(capsys, "region", "check", *flags)
    assert (code, doc["all_hold"]) == (0, True)
    svg = tmp_path / "r.svg"
    code, doc, err = run(capsys, "region", "plot", *flags, "-o", str(svg))
    assert (code, doc) == (64, None)
    assert "usage error: the plot's x range 3e+306 overflows" in err
    assert not svg.exists()


def test_region_check_without_plateau_is_undecidable(capsys):
    code, _, err = run(capsys, "region", "check", "x^2",
                       "--a", "1", "--b", "1", "--n", "3")
    assert code == 2
    assert "undecidable input" in err


def test_stdout_is_json_only(capsys):
    code, _, err = run(capsys, "member", "x^2", "--class", "EB",
                       "--points", "2000")
    assert code == 0
    assert err.strip()  # the human summary goes to stderr, not stdout


# an ultrametric, so that every target's source premise holds and each
# preserve call reaches the pushforward
_ULTRAMETRIC = ('{"points": ["x", "y", "z"], '
                '"entries": [[0, "1/2", 2], ["1/2", 0, 2], [2, 2, 0]]}')
_TARGETS = ("metric", "ultrametric", "weak-ultrametric", "b-metric",
            "extended-b-metric")


@pytest.fixture(scope="module")
def ultrametric_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spaces") / "ultrametric.json"
    path.write_text(_ULTRAMETRIC, encoding="utf-8")
    return str(path)


def _exit_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(max_examples=150, deadline=None)
@given(source=_expressions(), x=_XS)
def test_expressions_never_exit_internal(ultrametric_file, source, x):
    # an expression can hold, fail, be undecidable or be malformed, but it
    # never reaches the internal-error exit
    codes = {_exit_code("fn", "eval", source, "--at", repr(x)),
             _exit_code("fn", "classify", source, "--points", "20")}
    codes.update(_exit_code("preserve", source, "--space", ultrametric_file,
                            "--target", target) for target in _TARGETS)
    assert codes <= {0, 1, 2, 64}, (source, x, codes)


def test_scanner_compiles_only_when_a_scan_runs(capsys, monkeypatch, tmp_path):
    # the scan's generated function is compiled lazily, so commands that
    # never scan never pay for it
    parsed = []

    def parse(text):
        parsed.append(gmetrix.dsl.parse_fn(text))
        return parsed[-1]

    monkeypatch.setattr(gmetrix.cli, "parse_fn", parse)
    path = tmp_path / "path.json"
    path.write_text('{"points": ["x", "y", "z"], '
                    '"entries": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}',
                    encoding="utf-8")
    _, doc, _ = run(capsys, "fn", "classify", "sqrt(x)", "--points", "500")
    assert doc["subadditive"]["status"] == "holds"
    _, doc, _ = run(capsys, "member", "0", "--class", "B", "--points", "500")
    assert doc["basis"] == gmetrix.BASIS_AMENABILITY
    _, doc, _ = run(capsys, "member", "x", "--class", "EB", "--points", "500")
    assert doc["basis"] == gmetrix.BASIS_EB_SUFFICIENT
    _, doc, _ = run(capsys, "fn", "eval", "x^2", "--at", "3")
    assert doc["value"] == 9.0
    code, _, _ = run(capsys, "preserve", "min(x, 1)", "--space", str(path),
                     "--target", "metric")
    assert code == 0
    assert ["scanner" in f.__dict__ for f in parsed] == [False] * 5
    # the profile's pair loop, likewise, only where a profile runs
    assert ["pairer" in f.__dict__ for f in parsed] \
        == [True, True, True, False, False]

    _, doc, _ = run(capsys, "member", "x", "--class", "B", "--points", "500",
                    "--samples", "10")
    assert doc["constants"]["triplet_samples_used"] == 10
    assert "scanner" in parsed[-1].__dict__
