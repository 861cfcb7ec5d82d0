"""Generated space documents and flags never reach the internal-error exit.

Each example runs the command line in process and asks two things of it:
an exit in {0, 1, 2, 64, 66}, and stdout that is either empty or one strict
JSON document. The flags that set how much work a command does (samples,
grid points, intervals) stay small, so each example is cheap.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

import pytest

from gmetrix.cli import main
from test_cli import _reject_constant

EXPECTED_EXITS = {0, 1, 2, 64, 66}

#: The largest int the `--seed` flags and JSON documents can hold: int()
#: and the JSON decoder read at most this many digits.
DIGIT_LIMIT = 4300


def _outcome(*argv):
    """(exit code, stdout) of one in-process run; stdout must be empty or
    strict JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    return code, out.getvalue()


# --- space documents ---------------------------------------------------------

_DIGITS = st.integers(0, 10 ** DIGIT_LIMIT - 1)

#: every spelling of an entry that the document language reads, including
#: exponents at the digit limit, as JSON ints or strings
_ENTRIES = st.one_of(
    st.integers(0, 1000),
    _DIGITS,
    st.integers(0, 1000).map(str),
    st.tuples(st.integers(0, 999), st.integers(1, 999)).map(
        lambda pq: f"{pq[0]}/{pq[1]}"),
    st.tuples(st.integers(0, 99), st.integers(0, 999)).map(
        lambda ab: f"{ab[0]}.{ab[1]}"),
    st.tuples(st.integers(1, 9), st.sampled_from("eE"),
              st.integers(-DIGIT_LIMIT, DIGIT_LIMIT)).map(
        lambda m: f"{m[0]}{m[1]}{m[2]}"),
    st.sampled_from(["1e4300", "1E-4300", "-0", "+7", " 5 "]),
)

#: entries no document may hold: negative, float, bool, null, not a number,
#: an exponent past the digit limit, a zero denominator, an exponent in a
#: denominator, a nested list
_BAD_ENTRIES = st.sampled_from(
    [-1, "-1/2", 1.5, True, None, "x", "", "1/0", "1e4301", "1e-999999999",
     "3/1e4300", [1], {"a": 1}])


def _symmetric(n, values, diagonal):
    rows = [[diagonal] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), value in zip(pairs, values):
        rows[i][j] = rows[j][i] = value
    return rows


@st.composite
def _documents(draw):
    """Document text: a well-formed table of 2 to 12 points, sometimes with
    a theta table, then, in about half the examples, one defect."""
    n = draw(st.integers(2, 12))
    count = n * (n - 1) // 2
    doc = {"points": [f"p{i}" for i in range(n)],
           "entries": _symmetric(n, draw(st.lists(
               _ENTRIES, min_size=count, max_size=count)), 0)}
    if draw(st.booleans()):
        bounds = st.one_of(st.integers(1, 9), st.sampled_from(["3/2", "1e3"]))
        doc["theta"] = _symmetric(n, draw(st.lists(
            bounds, min_size=count, max_size=count)), 1)
    defect = draw(st.one_of(st.none(), st.sampled_from([
        "entry", "theta-entry", "asymmetric", "diagonal", "short-row",
        "missing-row", "duplicate-point", "point-type", "missing-key",
        "not-an-object", "not-json"])))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if defect == "entry" and i != j:
        doc["entries"][i][j] = doc["entries"][j][i] = draw(_BAD_ENTRIES)
    elif defect == "theta-entry" and i != j and "theta" in doc:
        doc["theta"][i][j] = doc["theta"][j][i] = draw(
            st.one_of(_BAD_ENTRIES, st.sampled_from([0, "1/2"])))
    elif defect == "asymmetric" and i != j:
        doc["entries"][i][j] = draw(_ENTRIES)
    elif defect == "diagonal":
        doc["entries"][i][i] = draw(st.sampled_from([1, "1/3", "1e-4300"]))
    elif defect == "short-row":
        doc["entries"][i].pop()
    elif defect == "missing-row":
        doc["entries"].pop()
    elif defect == "duplicate-point":
        doc["points"][i] = doc["points"][(i + 1) % n]
    elif defect == "point-type":
        doc["points"][i] = i
    elif defect == "missing-key":
        del doc[draw(st.sampled_from(["points", "entries"]))]
    elif defect == "not-an-object":
        return json.dumps([doc["points"], doc["entries"]])
    elif defect == "not-json":
        return json.dumps(doc)[:-1]
    return json.dumps(doc)


_SPACE_KINDS = ["metric", "ultrametric", "weak-ultrametric", "b-metric",
                "extended-b-metric"]
_FUNCTION_CLASSES = ["U", "DU", "B", "MB", "EB"]

#: tags a flag may be given besides its own family's: the other family's,
#: M and BM (which no command decides), case and space variants, any text
_ANY_TAG = st.one_of(
    st.sampled_from(_SPACE_KINDS + _FUNCTION_CLASSES + ["M", "BM"]),
    st.tuples(st.sampled_from(_SPACE_KINDS + _FUNCTION_CLASSES),
              st.sampled_from([str.upper, str.lower, str.title]),
              st.sampled_from(["", " ", "\t"])).map(
        lambda v: v[2] + v[1](v[0]) + v[2]),
    st.text(max_size=20),
)
_KINDS = st.one_of(st.sampled_from(_SPACE_KINDS),
                   st.sampled_from(_SPACE_KINDS), _ANY_TAG)
_CLASSES = st.one_of(st.sampled_from(_FUNCTION_CLASSES),
                     st.sampled_from(_FUNCTION_CLASSES), _ANY_TAG)

_PARSED = st.sampled_from(["x", "min(x, 1)", "x^2", "sqrt(x)", "ceil(x)",
                           "x/(1+x)", "1"])
#: expressions mostly parse; the rest fail while the arguments are parsed
_EXPRESSIONS = st.one_of(_PARSED, _PARSED, _PARSED, st.sampled_from(
    ["x^", "foo(x)", "piece(x + 1 ? 1 : 2)", ""]))


@pytest.fixture(scope="module")
def space_file(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "space.json"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(text=_documents(), kind=_KINDS, source=_EXPRESSIONS)
def test_documents_never_exit_internal(space_file, text, kind, source):
    space_file.write_text(text, encoding="utf-8")
    path = str(space_file)
    for argv in (("space", "verify", path),
                 ("space", "verify", path, "--class", kind),
                 ("preserve", source, "--space", path, "--target", kind)):
        code, _ = _outcome(*argv)
        assert code in EXPECTED_EXITS, (argv, text[:200], code)


# --- flags ------------------------------------------------------------------

#: positive number texts as a flag receives them: ints, fractions, floats
#: down to the smallest subnormal and up to the float range, exponents
_POSITIVE = st.one_of(
    st.integers(1, 50).map(str),
    st.floats(min_value=0.0, exclude_min=True,
              allow_infinity=False).map(repr),
    st.tuples(st.integers(1, 9), st.integers(-330, 310)).map(
        lambda m: f"{m[0]}e{m[1]}"),
    st.sampled_from(["1/3", "1e308", "5e307", "1e-320", "5e-324", " 2 "]),
)

#: texts a number flag must reject: zero, negative, past the float range
#: or the digit limit, not finite, not a number
_NOT_POSITIVE = st.one_of(
    st.floats(max_value=0.0).map(repr),
    st.sampled_from(["0", "-0", "-1/3", "1e400", "1e4300", "1e4301",
                     "1e-999999999", "nan", "inf", "", "x", "1_0"]),
)

_NUMBERS = st.one_of(_POSITIVE, _POSITIVE, _POSITIVE, _NOT_POSITIVE)

#: the largest seed: the samplers draw from seed + 1 and the suite from
#: seed * 1000 + i, which have more digits than str() may write
MAX_SEED = "9" * DIGIT_LIMIT

#: seeds: small, negative, up to DIGIT_LIMIT digits, one past it, not ints
_SEEDS = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.integers(-(10 ** DIGIT_LIMIT - 1), 10 ** DIGIT_LIMIT - 1).map(str),
    st.sampled_from([MAX_SEED, "-" + MAX_SEED, "1" + "0" * DIGIT_LIMIT,
                     "1.5", "x"]),
)

#: counts that size the work: small, or ones the flags must reject
_SMALL_COUNTS = st.one_of(st.integers(1, 12).map(str),
                          st.integers(1, 12).map(str),
                          st.sampled_from(["0", "-1", "1.5", "x", "1e3"]))


def _flag_lists(flags):
    """Each flag in `flags` (name -> value strategy) either left out or
    given, as one flat argument list."""
    return st.tuples(*(st.one_of(st.just(()), values.map(
        lambda value, name=name: (f"{name}={value}",)))
        for name, values in flags.items())).map(
        lambda groups: [arg for group in groups for arg in group])


_PAST_SWEEP = st.integers(4582, 4700).map(str)
_SCAN = {"--x-max": _NUMBERS, "--seed": _SEEDS, "--grid-seed": _SEEDS}


@st.composite
def _commands(draw):
    """One argv for a subcommand other than `suite`, its work kept small:
    member and search always get few grid points, and either few samples or
    just enough to pass the scan's grid sweep (4,580 samples at the default
    scale) and draw from both seeded samplers."""
    command = draw(st.sampled_from(["space-random", "fn-classify", "fn-eval",
                                    "member", "search", "region-check",
                                    "region-plot", "realize"]))
    if command == "space-random":
        return ["space", "random", "--kind", draw(_KINDS),
                "-n", draw(_SMALL_COUNTS),
                *draw(_flag_lists({"--seed": _SEEDS}))]
    if command == "fn-classify":
        return ["fn", "classify", draw(_EXPRESSIONS),
                f"--points={draw(_SMALL_COUNTS)}",
                *draw(_flag_lists({"--x-max": _NUMBERS, "--seed": _SEEDS,
                                   "--plateau-b": _NUMBERS}))]
    if command == "fn-eval":
        return ["fn", "eval", draw(_EXPRESSIONS), f"--at={draw(_NUMBERS)}"]
    if command in ("member", "search"):
        return [command, draw(_EXPRESSIONS), "--class", draw(_CLASSES),
                f"--samples={draw(st.one_of(_SMALL_COUNTS, _PAST_SWEEP))}",
                f"--points={draw(_SMALL_COUNTS)}",
                *draw(_flag_lists(_SCAN))]
    if command.startswith("region"):
        return ["region", command[len("region-"):], draw(_EXPRESSIONS),
                f"--a={draw(_NUMBERS)}", f"--b={draw(_NUMBERS)}",
                f"--n={draw(_SMALL_COUNTS)}",
                *draw(_flag_lists({"--samples": _SMALL_COUNTS}))]
    return ["realize", "--", *(draw(_NUMBERS) for _ in range(3))]


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(argv=_commands())
@example(argv=["member", "x", "--class", "B", "--samples", "4600",
               "--points", "10", "--seed", MAX_SEED])
@example(argv=["search", "x", "--class", "MB", "--samples", "4600",
               "--points", "10", "--seed", MAX_SEED])
def test_flags_never_exit_internal(tmp_path_factory, argv):
    if argv[:2] == ["region", "plot"]:
        argv = argv + ["-o",
                       str(tmp_path_factory.getbasetemp() / "region.svg")]
    code, _ = _outcome(*argv)
    assert code in EXPECTED_EXITS, ([a[:60] for a in argv], code)


@settings(max_examples=1, deadline=None)
@given(seed=_SEEDS)
@example(seed=MAX_SEED)
def test_suite_passes_for_every_seed(seed):
    # every assertion holds whatever the seed, so a seed the flag reads
    # exits 0; a whole suite run takes about a second, so few examples
    try:
        int(seed)
    except ValueError:  # not an int, or past the digit limit
        expected = 64
    else:
        expected = 0
    code, _ = _outcome("suite", f"--seed={seed}")
    assert code == expected, (seed[:60], code)
