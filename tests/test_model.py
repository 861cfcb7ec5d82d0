"""Distance tables, JSON documents, tags, and the seeded space generators."""

import dataclasses
import hashlib
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gmetrix import (
    Budget,
    ClassTag,
    DistanceTable,
    GridSpec,
    RegionSpec,
    ThetaTable,
    Status,
    Verdict,
    Witness,
    canonical_dumps,
    check_extended_b,
    check_identity,
    classify_fn,
    constant_theta,
    counterexample_search,
    dump_space,
    load_space,
    membership,
    new_distance_table,
    new_theta_table,
    parse_fn,
    random_space,
    region_check,
    space_from_json,
    space_to_json,
)
from gmetrix import axioms, model
from gmetrix.preservation import SuiteAssertion, SuiteReport
from gmetrix.errors import (
    AsymmetricEntry,
    GmetrixError,
    InvalidEntry,
    InvalidTheta,
    NegativeEntry,
    NonzeroDiagonal,
    PreconditionViolated,
    ShapeMismatch,
    SpaceFormatError,
    UnsupportedKind,
    exact_text,
)
from gmetrix.model import MAX_SPACE_POINTS, as_rational, rational_to_json

from oracles import brute_is_metric, brute_is_ultra


def test_table_coerces_ints_strings_and_fractions():
    table = new_distance_table(["x", "y"], [[0, "3/2"], [Fraction(3, 2), 0]])
    assert table.entry(0, 1) == Fraction(3, 2)
    assert isinstance(table.entry(0, 1), Fraction)


def test_table_rejects_floats():
    with pytest.raises(InvalidEntry):
        new_distance_table(["x", "y"], [[0, 1.5], [1.5, 0]])


def test_table_rejects_bools():
    with pytest.raises(InvalidEntry):
        new_distance_table(["x", "y"], [[0, True], [True, 0]])


def test_table_rejects_a_non_fraction_past_the_int_str_limit():
    huge = 10 ** 5000
    with pytest.raises(InvalidEntry, match=f"= {exact_text(huge)} is not a"):
        DistanceTable(("a", "b"), ((Fraction(0), huge), (huge, Fraction(0))))
    with pytest.raises(InvalidEntry, match="= '1' is not a Fraction"):
        DistanceTable(("a", "b"), ((Fraction(0), "1"), ("1", Fraction(0))))


def test_table_shape_validation():
    with pytest.raises(ShapeMismatch):
        new_distance_table(["x", "y"], [[0, 1]])
    with pytest.raises(ShapeMismatch):
        new_distance_table(["x", "x"], [[0, 1], [1, 0]])


def test_table_negative_entry():
    with pytest.raises(NegativeEntry) as excinfo:
        new_distance_table(["x", "y"], [[0, -1], [-1, 0]])
    assert excinfo.value.value == Fraction(-1)


def test_table_nonzero_diagonal():
    with pytest.raises(NonzeroDiagonal):
        new_distance_table(["x", "y"], [[1, 2], [2, 0]])


def test_table_asymmetry():
    with pytest.raises(AsymmetricEntry) as excinfo:
        new_distance_table(["x", "y", "z"],
                           [[0, 1, 2], [1, 0, 3], [2, 4, 0]])
    assert (excinfo.value.i, excinfo.value.j) == (1, 2)


def test_theta_table_entries_below_one_rejected():
    with pytest.raises(InvalidTheta):
        new_theta_table(["x", "y"], [["1/2", 1], [1, 1]])


def test_constant_theta_round_trip():
    theta = constant_theta(["x", "y", "z"], "3/2")
    assert theta.max_entry() == Fraction(3, 2)
    assert theta.entry(0, 0) == Fraction(3, 2)


def test_space_json_round_trip_is_bit_exact():
    table = new_distance_table(["x", "y", "z"],
                               [[0, "7/3", 4], ["7/3", 0, "1/6"],
                                [4, "1/6", 0]])
    doc = space_to_json(table)
    back, theta = space_from_json(json.loads(json.dumps(doc)))
    assert theta is None
    assert back.entries == table.entries
    assert back.points == table.points


def test_space_json_with_theta_round_trip(tmp_path):
    table = new_distance_table(["x", "y"], [[0, 3], [3, 0]])
    theta = constant_theta(["x", "y"], 2)
    path = tmp_path / "space.json"
    dump_space(path, table, theta)
    back, theta_back = load_space(path)
    assert back.entries == table.entries
    assert theta_back.entries == theta.entries
    with pytest.raises(SpaceFormatError, match="different points"):
        space_to_json(table, constant_theta(["x", "z"], 2))


def test_space_json_schema_errors():
    with pytest.raises(SpaceFormatError):
        space_from_json([1, 2, 3])
    with pytest.raises(SpaceFormatError):
        space_from_json({"entries": [[0]]})
    with pytest.raises(SpaceFormatError):
        space_from_json({"points": ["x", 2], "entries": [[0, 1], [1, 0]]})
    with pytest.raises(SpaceFormatError):
        # floats in documents are rejected just like in constructors
        space_from_json({"points": ["x", "y"],
                         "entries": [[0, 1.5], [1.5, 0]]})


def test_space_document_point_cap():
    # probed with empty rows: the cap rejects before any entry is converted,
    # and at the cap the shape check is what fails
    names = [f"p{i}" for i in range(MAX_SPACE_POINTS + 1)]
    with pytest.raises(SpaceFormatError, match="exceed the cap of 500"):
        space_from_json({"points": names, "entries": []})
    with pytest.raises(SpaceFormatError, match="500 points but 0 rows"):
        space_from_json({"points": names[:-1], "entries": []})


def test_load_space_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpaceFormatError):
        load_space(path)


def test_table_errors_keep_their_order():
    # entries are checked before the diagonal, the diagonal before symmetry
    with pytest.raises(NegativeEntry):
        new_distance_table(["x", "y", "z"],
                           [[0, 1, 2], [1, 0, 3], [2, -1, 0]])
    with pytest.raises(NonzeroDiagonal):
        new_distance_table(["x", "y"], [[0, 1], [2, 5]])
    with pytest.raises(InvalidTheta):
        new_theta_table(["x", "y"], [[1, 2], ["1/2", 1]])
    with pytest.raises(AsymmetricEntry):
        new_theta_table(["x", "y"], [[1, 2], [3, 1]])
    with pytest.raises(InvalidEntry, match=r"theta\[1\]\[0\]"):
        ThetaTable(("x", "y"), ((Fraction(1), Fraction(2)), (2, Fraction(1))))
    # the floor test is exact at the boundary and for huge denominators
    with pytest.raises(InvalidTheta, match="999999/1000000 is below 1"):
        new_theta_table(["x", "y"], [[1, "999999/1000000"],
                                     ["999999/1000000", 1]])
    assert new_theta_table(["x", "y"], [[1, 1], [1, 1]]).scale == 1
    tiny = Fraction(-1, 10 ** 60 + 7)
    with pytest.raises(NegativeEntry) as raised:
        new_distance_table(["x", "y"], [[0, tiny], [tiny, 0]])
    assert raised.value.value == tiny
    # an asymmetry earlier in row-major order still loses to the diagonal,
    # and each error carries the Fraction values, not the scaled ints
    with pytest.raises(NonzeroDiagonal) as raised:
        new_distance_table(["x", "y", "z"],
                           [[0, "1/3", 1], ["1/2", 0, 1], [1, 1, "1/5"]])
    assert (raised.value.i, raised.value.value) == (2, Fraction(1, 5))
    with pytest.raises(AsymmetricEntry) as raised:
        new_distance_table(["x", "y"], [[0, "1/3"], ["1/2", 0]])
    assert (raised.value.left, raised.value.right) == (Fraction(1, 3),
                                                       Fraction(1, 2))


@pytest.mark.parametrize("kind, build", [(DistanceTable, new_distance_table),
                                         (ThetaTable, new_theta_table)])
def test_table_keeps_an_invisible_integer_form(kind, build):
    floor = 0 if kind is DistanceTable else 1
    primes = (1_000_003, 1_000_033, 1_000_037)
    entries = [[Fraction(floor)] * 3 for _ in range(3)]
    for (i, j), p in zip(((0, 1), (0, 2), (1, 2)), primes):
        entries[i][j] = entries[j][i] = floor + Fraction(p + 1, p)
    table = build(["x", "y", "z"], entries)
    assert table.scale == math.lcm(*primes)
    assert all(table.rows[i][j] == table.scale * entries[i][j]
               and isinstance(table.rows[i][j], int)
               for i in range(3) for j in range(3))
    # built again from text, the table is the same in every visible way
    twin = build(["x", "y", "z"], [[exact_text(v) for v in row]
                                   for row in entries])
    assert twin == table and hash(twin) == hash(table)
    assert canonical_dumps(twin) == canonical_dumps(table)
    assert [f.name for f in dataclasses.fields(table)] == ["points",
                                                           "entries"]
    assert repr(twin) == repr(table)


@pytest.mark.parametrize("text", ["1e999999999", "1E-999999999",
                                  "0e99999999", "1.5e4301"])
def test_exponent_past_the_digit_limit_is_rejected_at_once(text):
    # Fraction(text) would build a power of ten with that many digits
    with pytest.raises(InvalidEntry, match="exceeds the int digit limit"):
        as_rational(text)
    with pytest.raises(SpaceFormatError, match="exceeds the int digit limit"):
        space_from_json({"points": ["x", "y"],
                         "entries": [[0, text], [text, 0]]})


def test_exponent_at_the_digit_limit_is_accepted():
    limit = sys.get_int_max_str_digits()
    assert as_rational(f"1e{limit}") == 10 ** limit
    assert as_rational(f"1e-{limit}") == Fraction(1, 10 ** limit)
    assert as_rational("25e-1") == Fraction(5, 2)
    with pytest.raises(InvalidEntry, match="not an exact rational"):
        as_rational("1e")


def _two_point_tables(value):
    """The distance and theta tables on two points with `value` off the
    diagonal, or the type and message of what building each raised."""
    built = []
    for build, diagonal in ((new_distance_table, 0), (new_theta_table, 1)):
        try:
            built.append(build(["x", "y"], [[diagonal, value],
                                            [value, diagonal]]))
        except GmetrixError as err:
            built.append((type(err), str(err)))
    return built


def _as_rational_tables(value):
    try:
        exact = as_rational(value)
    except InvalidEntry as err:
        return [(InvalidEntry, str(err))] * 2
    return _two_point_tables(exact)


_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("value", [
    "1/2", "6/4", "007/3", "0/5", "1/0", "0/0",
    "+1/2", "-1/2", " 1/2", "1/2 ", "1 /2", "1_0/3", "1/2/3", "/2", "1/",
    "\u0661/\u0662", "\u00b2/3", "1.5", "1e3",
    pytest.param("7" * _LIMIT, id="digits-at-limit"),
    pytest.param("7" * (_LIMIT + 1), id="digits-past-limit"),
    pytest.param("7" * _LIMIT + "/3", id="numerator-at-limit"),
    pytest.param("3/" + "7" * (_LIMIT + 1), id="denominator-past-limit"),
    True, None, 1.5, pytest.param(10 ** 399 + 7, id="int-400-digits")])
def test_table_entries_read_as_as_rational_reads_them(value):
    # a table reads an int and a "p/q" of ASCII digits directly; it must
    # accept, and reject with the same message, what as_rational does
    assert _two_point_tables(value) == _as_rational_tables(value)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789/+-_ .e\u0661\u00b2", max_size=8))
def test_table_entry_text_reads_as_as_rational_reads_it(text):
    assert _two_point_tables(text) == _as_rational_tables(text)


def _read_digits(text):
    """An int from its decimal text, read 1,000 digits at a time."""
    digits = text.lstrip("-")
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def test_values_past_the_int_str_limit_are_written_in_full():
    huge = 3 ** 20000  # 9,543 digits
    for n in (huge, -huge, 10 ** 4300, -(10 ** 4300) - 1):
        text = exact_text(n)
        assert text[text.startswith("-"):][0] != "0"
        assert _read_digits(text) == n
        assert rational_to_json(Fraction(n)) == text
        assert exact_text(Fraction(n, 7)) == f"{text}/7"
        assert rational_to_json(Fraction(7, n)) \
            == ("-7/" if n < 0 else "7/") + text.lstrip("-")
    # an int the JSON encoder can write stays a number
    assert rational_to_json(Fraction(10 ** 4299)) == 10 ** 4299
    assert exact_text(Fraction(-3, 4)) == "-3/4"
    with pytest.raises(NegativeEntry, match=f"= -{exact_text(huge)} is"):
        new_distance_table(["x", "y"], [[0, -huge], [-huge, 0]])


@pytest.mark.parametrize("content", [
    b'{"points": ["x", "y"], "entries": [[0, 1' + b"0" * 5000 + b'], [1, 0]]}',
    b'{"points": ["\xe9"], "entries": [[0]]}',
    b"[" * 100_000,
], ids=["integer-past-digit-limit", "not-utf-8", "deep-nesting"])
def test_load_space_maps_decode_failures(tmp_path, content):
    path = tmp_path / "space.json"
    path.write_bytes(content)
    with pytest.raises(SpaceFormatError, match="invalid JSON"):
        load_space(path)


def test_canonical_dumps_is_sorted_and_newline_terminated():
    text = canonical_dumps({"b": 1, "a": Fraction(1, 3)})
    assert text == '{\n  "a": "1/3",\n  "b": 1\n}\n'
    # an enum member is written as its value
    assert canonical_dumps({"class": ClassTag.B}) == '{\n  "class": "B"\n}\n'


def _reports():
    """One report of each type that has a `to_json`, with an infinity or a
    nested report where the type can hold one."""
    grid = GridSpec(x_max=4.0, n_points=50)
    budget = Budget(triplet_samples=500, grid=grid)
    witness = Witness(description="d(x,y) broken", points=("x", "y"),
                      lhs=Fraction(1, 3), rhs=math.inf,
                      data={"triplet": (1.0, 2.0, 2.5)})
    table = new_distance_table(["x", "y"], [[0, "3/2"], ["3/2", 0]])
    assertion = SuiteAssertion("id", "description", False,
                               {"s": Fraction(3, 2), "constant": math.inf})
    region = region_check(parse_fn("ceil(x)"),
                          RegionSpec(a=1.0, b=1.0, n_max=2))
    # vanishes past 1, so a sampled triplet has an infinite constant
    search = counterexample_search(parse_fn("piece(x <= 1 ? x : 0)"),
                                   ClassTag.B, budget)
    assert search.constant == math.inf
    return {
        "Witness": witness,
        "Verdict": model.fails(witness, {"s": math.inf}),
        "DistanceTable": table,
        "ThetaTable": constant_theta(table.points, "5/4"),
        "GridSpec": grid,
        "FnProfile": classify_fn(parse_fn("x^2"), grid),
        "Budget": budget,
        "MembershipReport": membership(parse_fn("0"), ClassTag.B, budget),
        "SearchWitness": search,
        "SuiteAssertion": assertion,
        "SuiteReport": SuiteReport(seed=0, assertions=(assertion,)),
        "IntervalCheck": region.intervals[0],
        "RegionSpec": region.spec,
        "RegionReport": region,
        "RealFn": parse_fn("x"),
    }


def test_every_report_encodes_as_its_to_json():
    for name, report in _reports().items():
        doc = report.to_json()
        assert canonical_dumps(report) == canonical_dumps(doc), name
        # to_json is fully encoded: plain JSON values only
        assert json.loads(canonical_dumps(doc)) == doc, name


def test_canonical_dumps_writes_an_infinity_as_a_string():
    text = canonical_dumps({"s": math.inf, "t": [-math.inf, 1.5]})
    assert json.loads(text) == {"s": "inf", "t": ["-inf", 1.5]}
    with pytest.raises(ValueError, match="not JSON compliant"):
        canonical_dumps({"s": math.nan})


def test_encode_value_rejects_an_object_without_to_json():
    with pytest.raises(TypeError, match="cannot encode"):
        model.encode_value(object())


def test_class_tag_parse():
    assert ClassTag.parse("eb") is ClassTag.EB
    assert ClassTag.parse("Extended-B-Metric") is ClassTag.EXTENDED_B_METRIC
    assert ClassTag.parse("mb").is_function_class
    assert ClassTag.parse("ultrametric").is_space
    with pytest.raises(UnsupportedKind):
        ClassTag.parse("euclidean")
    # the class table, row by row as the README defines each class, in
    # ClassTag order: what kind of space f must carry into what kind
    metric, ultra, weak, b, extended = (
        ClassTag.METRIC, ClassTag.ULTRAMETRIC, ClassTag.WEAK_ULTRAMETRIC,
        ClassTag.B_METRIC, ClassTag.EXTENDED_B_METRIC)
    assert list(model.CLASS_KINDS.items()) == [
        (ClassTag.M, (metric, metric)),
        (ClassTag.U, (ultra, ultra)),
        (ClassTag.DU, (ultra, weak)),
        (ClassTag.B, (b, b)),
        (ClassTag.MB, (metric, b)),
        (ClassTag.BM, (b, metric)),
        (ClassTag.EB, (extended, extended)),
    ]
    # is_space splits the tags into the 5 kinds and the 7 classes, and
    # every source and target is a kind the table kernel has a rule for
    kinds = [tag for tag in ClassTag if tag.is_space]
    assert kinds == [metric, ultra, weak, b, extended]
    assert [tag for tag in ClassTag if tag.is_function_class] \
        == list(model.CLASS_KINDS)
    assert {kind for pair in model.CLASS_KINDS.values() for kind in pair} \
        <= set(axioms._KINDS)


def test_verdict_construction_contracts():
    with pytest.raises(PreconditionViolated):
        Verdict(Status.FAILS)  # a failing verdict demands a witness
    with pytest.raises(PreconditionViolated):
        Verdict(Status.INCONCLUSIVE)  # inconclusive demands a note
    witness = Witness(description="d(x,y) broken", points=("x", "y"))
    assert Verdict(Status.FAILS, witness=witness).fails


SPACE_KINDS = (ClassTag.METRIC, ClassTag.ULTRAMETRIC,
               ClassTag.WEAK_ULTRAMETRIC, ClassTag.B_METRIC,
               ClassTag.EXTENDED_B_METRIC)


@pytest.mark.parametrize("kind", SPACE_KINDS)
@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_random_space_postconditions(kind, n):
    for seed in range(10):
        table, theta = random_space(kind, n, seed)
        assert table.n == n
        raw = [list(row) for row in table.entries]
        assert check_identity(table).holds
        if kind is ClassTag.METRIC:
            assert theta is None
            assert brute_is_metric(raw)
        elif kind is ClassTag.ULTRAMETRIC:
            assert theta is None
            assert brute_is_ultra(raw)
        elif kind is ClassTag.EXTENDED_B_METRIC:
            assert theta is not None
            assert check_extended_b(table, theta).holds
        else:
            assert theta is None


#: sha256 over the canonical JSON of `random_space(kind, n, seed)` for each
#: kind in SPACE_KINDS order, n 2..12 and seeds 0..4, nested in that order
GENERATED_SPACES_SHA256 = (
    "d2149c80cdb1045e54323a46bcb500df15d5100c32a8307f2e8b0d146202a4f7")


def test_random_space_output_is_pinned():
    digest = hashlib.sha256()
    for kind in SPACE_KINDS:
        for n in range(2, 13):
            for seed in range(5):
                doc = space_to_json(*random_space(kind, n, seed))
                digest.update(canonical_dumps(doc).encode())
    assert digest.hexdigest() == GENERATED_SPACES_SHA256


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_random_space_validates_one_table(monkeypatch, kind):
    validated = []
    check = model._RationalTable.__post_init__

    def counting_check(table):
        validated.append(type(table))
        check(table)

    monkeypatch.setattr(model._RationalTable, "__post_init__", counting_check)
    random_space(kind, 6, 0)
    theta = [ThetaTable] if kind is ClassTag.EXTENDED_B_METRIC else []
    assert validated == [DistanceTable] + theta


def test_random_space_is_deterministic():
    a, _ = random_space(ClassTag.B_METRIC, 5, 123)
    b, _ = random_space(ClassTag.B_METRIC, 5, 123)
    c, _ = random_space(ClassTag.B_METRIC, 5, 124)
    assert a.entries == b.entries
    assert a.entries != c.entries


def test_random_space_takes_seeds_past_the_int_str_limit():
    seed = 10 ** 5000  # str(seed) raises at the default digit limit
    a, _ = random_space(ClassTag.B_METRIC, 5, seed)
    b, _ = random_space(ClassTag.B_METRIC, 5, seed)
    c, _ = random_space(ClassTag.B_METRIC, 5, seed + 1)
    assert a.entries == b.entries
    assert a.entries != c.entries


def test_random_space_kinds_are_separated_by_seed_stream():
    # same (n, seed) for different kinds must not alias
    m, _ = random_space(ClassTag.METRIC, 4, 9)
    u, _ = random_space(ClassTag.ULTRAMETRIC, 4, 9)
    assert m.entries != u.entries


def test_random_space_input_validation():
    with pytest.raises(PreconditionViolated):
        random_space(ClassTag.METRIC, 1, 0)
    with pytest.raises(UnsupportedKind):
        random_space(ClassTag.EB, 4, 0)


def test_distance_table_is_immutable():
    table = new_distance_table(["x", "y"], [[0, 3], [3, 0]])
    with pytest.raises(Exception):
        table.points = ("a", "b")
