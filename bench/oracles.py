"""Independent answers for every benchmark request.

Nothing here imports gmetrix. Table facts come from brute force over every
ordered triple of plain Fraction lists (restated from the definitions, as in
tests/oracles.py); function facts come from the expressions restated as
Python code and from known results about the catalog. ``check`` compares a
request's exit code and parsed stdout against these and replays every
witness the output carries. make_expected.py runs it on the whole pool before
it stores an answer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from workloads import (
    FUNCTIONS,
    REFUTED,
    STEP,
    make_table,
    parse_doc_key,
)

# --- tables --------------------------------------------------------------------


def rational(value) -> Fraction:
    """Decode an exact JSON rational: an int or a "p/q" string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an exact rational: {value!r}")
    return Fraction(value)


def first_violation(entries, combine):
    """First (i, j, k) in row-major order with d(i,j) > combine(d(i,k), d(k,j))."""
    n = len(entries)
    for i in range(n):
        row_i = entries[i]
        for j in range(n):
            lhs = row_i[j]
            for k in range(n):
                if lhs > combine(row_i[k], entries[k][j]):
                    return i, j, k
    return None


def _sum(a, b):
    return a + b


def identity_holds(entries) -> bool:
    n = len(entries)
    return all(entries[i][j] > 0 for i in range(n) for j in range(n) if i != j)


def b_constant_and_theta(entries):
    """(s_min, minimal theta table): per pair the largest
    d(x,y) / (d(x,z) + d(z,y)) over z, at least 1."""
    n = len(entries)
    theta = [[Fraction(1)] * n for _ in range(n)]
    best = Fraction(1)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            top = Fraction(1)
            for k in range(n):
                ratio = entries[i][j] / (entries[i][k] + entries[k][j])
                if ratio > top:
                    top = ratio
            theta[i][j] = top
            best = max(best, top)
    return best, theta


def weak_ultra_constant(entries) -> Fraction:
    n = len(entries)
    best = Fraction(1)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                ratio = entries[i][j] / max(entries[i][k], entries[k][j])
                if ratio > best:
                    best = ratio
    return best


def extended_violation(entries, theta):
    n = len(entries)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if entries[i][j] > theta[i][j] * (entries[i][k] + entries[k][j]):
                    return i, j, k
    return None


class TableFacts:
    """Brute-force facts about one table, computed on first use."""

    def __init__(self, entries) -> None:
        self.entries = entries
        self.identity = identity_holds(entries)
        self._cache: dict = {}

    def _get(self, name, compute):
        if name not in self._cache:
            self._cache[name] = compute()
        return self._cache[name]

    @property
    def triangle_violation(self):
        return self._get("tri", lambda: first_violation(self.entries, _sum))

    @property
    def ultra_violation(self):
        return self._get("ultra", lambda: first_violation(self.entries, max))

    @property
    def s_min_theta(self):
        return self._get("b", lambda: b_constant_and_theta(self.entries))

    @property
    def c_min(self):
        return self._get("c", lambda: weak_ultra_constant(self.entries))


def _check_triple_witness(problems, where, verdict, entries, expected, combine):
    witness = verdict.get("witness") or {}
    data = witness.get("data") or {}
    triple = (data.get("i"), data.get("j"), data.get("k"))
    if triple != tuple(expected):
        problems.append(f"{where}: witness {triple} is not the first "
                        f"violation {tuple(expected)}")
        return
    i, j, k = triple
    lhs, rhs = rational(witness.get("lhs")), rational(witness.get("rhs"))
    if (lhs != entries[i][j] or rhs != combine(entries[i][k], entries[k][j])
            or not lhs > rhs):
        problems.append(f"{where}: witness does not replay")


def _check_axiom(problems, where, verdict, facts, combine):
    violation = (facts.triangle_violation if combine is _sum
                 else facts.ultra_violation)
    want = "holds" if violation is None else "fails"
    if verdict.get("status") != want:
        problems.append(f"{where}: status {verdict.get('status')}, "
                        f"oracle says {want}")
    elif violation is not None:
        _check_triple_witness(problems, where, verdict, facts.entries,
                              violation, combine)


def _check_constant(problems, where, verdict, name, value):
    got = (verdict.get("constants") or {}).get(name)
    if verdict.get("status") != "holds" or rational(got) != value:
        problems.append(f"{where}: {name} = {got}, oracle says {value}")


_AXIOM_COMBINE = {"metric": _sum, "ultrametric": max}


def _check_relaxed(problems, where, verdict, facts, kind):
    if kind == "weak-ultrametric":
        _check_constant(problems, where, verdict, "C_min", facts.c_min)
    elif kind == "b-metric":
        _check_constant(problems, where, verdict, "s_min", facts.s_min_theta[0])
    else:
        theta_max = max(max(row) for row in facts.s_min_theta[1])
        _check_constant(problems, where, verdict, "theta_max", theta_max)


def _check_kind(problems, where, verdict, facts, kind):
    if kind in _AXIOM_COMBINE:
        _check_axiom(problems, where, verdict, facts, _AXIOM_COMBINE[kind])
    else:
        _check_relaxed(problems, where, verdict, facts, kind)


def _check_verify(problems, out, facts, theta):
    if not facts.identity:
        problems.append("generated table fails the identity axiom")
        return
    rows = out.get("classification", {})
    for kind in ("metric", "ultrametric", "weak-ultrametric", "b-metric",
                 "extended-b-metric"):
        _check_kind(problems, kind, rows.get(kind, {}), facts, kind)
    if theta is not None:
        want = ("holds" if extended_violation(facts.entries, theta) is None
                else "fails")
        got = out.get("given_theta", {}).get("status")
        if got != want:
            problems.append(f"given theta: status {got}, oracle says {want}")


# pushforward as documented: +, *, min, max trees are exact; everything else
# is evaluated in floats and the float converted exactly
_IMAGE = {
    "x": lambda v: v,
    "min(x, 1)": lambda v: min(v, Fraction(1)),
    "sqrt(x)": lambda v: Fraction(math.sqrt(float(v))),
    "x^2": lambda v: Fraction(float(v) ** 2.0),
}
_SOURCE_NEEDS = {"metric": "metric", "ultrametric": "ultrametric",
                 "weak-ultrametric": "ultrametric"}


def _check_preserve(problems, rc, out, facts, expr, target):
    need = _SOURCE_NEEDS.get(target)
    source_ok = facts.identity and (
        need is None
        or (facts.triangle_violation is None and
            (need == "metric" or facts.ultra_violation is None)))
    if not source_ok:
        if rc != 2 or out is not None:
            problems.append(f"source violates {need}; expected exit 2, no output")
        return
    image = [[_IMAGE[expr](v) for v in row] for row in facts.entries]
    image_facts = TableFacts(image)
    if not image_facts.identity:
        problems.append("image fails the identity axiom")
        return
    verdict = out.get("verdict", {})
    _check_kind(problems, f"preserve {target}", verdict, image_facts, target)
    want_rc = 0 if verdict.get("status") == "holds" else 1
    if rc != want_rc:
        problems.append(f"exit {rc}, expected {want_rc}")


def _check_random(problems, out, kind, n, seed):
    space = out.get("space", {})
    entries = [[rational(v) for v in row] for row in space.get("entries", [])]
    if (out.get("kind"), out.get("n"), out.get("seed")) != (kind, n, seed) \
            or len(entries) != n:
        problems.append("random space header does not echo the request")
        return
    facts = TableFacts(entries)
    if not facts.identity:
        problems.append("random space fails the identity axiom")
        return
    if kind in _AXIOM_COMBINE:
        if facts.triangle_violation is not None:
            problems.append(f"random {kind} is not a metric")
        if kind == "ultrametric" and facts.ultra_violation is not None:
            problems.append("random ultrametric fails the max inequality")
    elif kind == "weak-ultrametric" and facts.c_min > 2:
        problems.append(f"weak ultrametric constant {facts.c_min} above 2")
    elif kind == "b-metric" and facts.s_min_theta[0] > 2:
        problems.append(f"b-metric constant {facts.s_min_theta[0]} above 2")
    elif kind == "extended-b-metric":
        theta = [[rational(v) for v in row] for row in space.get("theta", [])]
        if theta != facts.s_min_theta[1]:
            problems.append("attached theta is not the minimal bound table")


# --- functions -------------------------------------------------------------------

def _step(x):
    return 0.0 if x <= 0 else (1.0 if x <= 1 else 4.0)


# each catalog and benchmark expression restated as Python
_PY = {
    "identity": lambda x: x,
    "saturating-ratio": lambda x: x / (1.0 + x),
    "unit-clamp": lambda x: min(x, 1.0),
    "square-root": math.sqrt,
    "square": lambda x: x ** 2.0,
    "exp-minus-one": lambda x: math.exp(x) - 1.0,
    "zero": lambda x: 0.0,
    "ceiling": lambda x: float(math.ceil(x)),
    "step": _step,
    "deep-min-sqrt-log": lambda x: min(math.sqrt(x),
                                       math.log1p(x) + min(x, 1.0)),
    "deep-max-nested": lambda x: max(math.log1p(math.sqrt(x)),
                                     min(x / (1.0 + x), 0.5),
                                     min(math.log1p(math.log1p(x)),
                                         math.sqrt(x) / 2.0)),
    "deep-piece-plateau": lambda x: 0.0 if x <= 0 else max(
        1.0, math.log1p(min(x, 3.0)) + min(math.sqrt(x), 1.0)),
}
assert set(_PY) == {name for name, _ in FUNCTIONS}
assert dict(FUNCTIONS)["step"] == STEP

# known facts: nothing outside REFUTED fails a necessary screen; these are
# the ones that are not subadditive
NOT_SUBADDITIVE = ("square", "exp-minus-one", "step")


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)


def _replay_pair(problems, where, f, data, violation):
    """Replay a witness on the pair (a, b): f(a + b) versus f(a), f(b)."""
    a, b = data.get("a"), data.get("b")
    fa, fb, fab = f(a), f(b), f(a + b)
    if not (_close(fa, data.get("f_a")) and _close(fb, data.get("f_b"))
            and _close(fab, data.get("f_sum")) and violation(fa, fb, fab)):
        problems.append(f"{where}: pair witness does not replay")


def _replay_zero(problems, where, f, data):
    x = data.get("x")
    if not (x > 0 and f(x) == 0.0):
        problems.append(f"{where}: zero witness does not replay")


def triplet_constant(a, b, c):
    """Smallest s >= 1 with each entry <= s times the sum of the others;
    None when no finite s exists."""
    best = 1.0
    for num, rest in ((a, b + c), (b, a + c), (c, a + b)):
        if rest == 0:
            if num > 0:
                return None
            continue
        best = max(best, num / rest)
    return best


def _check_member(problems, rc, out, name, klass):
    f = _PY[name]
    status = out.get("status")
    if name in REFUTED:
        if status != "non-member-evidence" or rc != 1:
            problems.append(f"{name} is refuted; got {status}, exit {rc}")
            return
        data = (out.get("witness") or {}).get("data") or {}
        if name == "zero":
            _replay_zero(problems, "member", f, data)
        else:
            _replay_pair(problems, "member", f, data,
                         lambda fa, fb, fab: fab / (fa + fb) > 1e6)
        return
    want = ("member", "inconclusive") if klass == "U" else ("member",)
    if status not in want or rc != (0 if status == "member" else 2):
        problems.append(f"{name} is in {klass}; got {status}, exit {rc}")
    if name == "step" and klass in ("DU", "B", "MB"):
        s = (out.get("constants") or {}).get("s")
        if s != 2.0:
            problems.append(f"step function s = {s}, known to be 2")


def _check_search(problems, rc, out, name):
    witness = out.get("witness")
    if name != "exp-minus-one":
        # members admit a scalar bound, and every image triplet of zero is
        # (0, 0, 0) with constant 1: no witness can exist
        if witness is not None or rc != 2:
            problems.append(f"search on {name} returned a witness")
        return
    if witness is None or rc != 1:
        problems.append("search on exp(x) - 1 found no witness")
        return
    a, b, c = witness["triplet"]
    images = tuple(_PY[name](v) for v in (a, b, c))
    constant = triplet_constant(*images)
    got = witness["constant"]
    pts = witness["points"]
    (ux, uy), (vx, vy), (wx, wy) = pts["u"], pts["v"], pts["w"]
    sides = (math.hypot(vx - ux, vy - uy), math.hypot(wx - ux, wy - uy),
             math.hypot(wx - vx, wy - vy))
    ok = (a <= b + c and b <= a + c and c <= a + b
          and all(_close(x, y) for x, y in zip(images, witness["images"]))
          and (got == "inf" if constant is None else _close(constant, got))
          and all(math.isclose(s, t, rel_tol=1e-9) for s, t in zip(sides,
                                                                    (a, b, c))))
    if not ok or (constant is not None and constant <= 1e6):
        problems.append("search witness does not replay")


def _check_classify(problems, rc, out, name):
    f = _PY[name]
    if rc != 0:
        problems.append(f"exit {rc}")
    amenable = out.get("amenable", {})
    if name == "zero":
        if amenable.get("status") != "fails":
            problems.append("zero is not amenable")
        else:
            _replay_zero(problems, "amenable", f,
                         amenable.get("witness", {}).get("data", {}))
    elif amenable.get("status") != "holds":
        problems.append(f"{name} is amenable")
    if out.get("increasing", {}).get("status") != "holds":
        problems.append(f"{name} is nondecreasing")
    sub = out.get("subadditive", {})
    if name in NOT_SUBADDITIVE:
        if sub.get("status") != "fails":
            problems.append(f"{name} is not subadditive")
        else:
            _replay_pair(problems, "subadditive", f,
                         sub.get("witness", {}).get("data", {}),
                         lambda fa, fb, fab: fab > fa + fb)
    elif sub.get("status") != "holds":
        problems.append(f"{name} is subadditive")
    quasi = out.get("quasi_subadditive", {}).get("status")
    if quasi != ("fails" if name == "exp-minus-one" else "inconclusive"):
        problems.append(f"{name}: quasi-subadditivity {quasi}")


def _check_region(problems, rc, out, name, a):
    f = _PY[name]
    violated = False
    for item in out.get("intervals", []):
        n, verdict = item["n"], item["verdict"]
        if item["lower"] != a / 2 or item["upper"] != 2.0 ** n * a:
            problems.append(f"interval {n}: wrong envelope")
        if verdict["status"] == "fails":
            violated = True
            data = verdict["witness"]["data"]
            value = f(data["x"])
            bound = item["upper"] if data["side"] == "upper" else item["lower"]
            if not (_close(value, data["value"])
                    and (value > bound if data["side"] == "upper"
                         else value < bound)):
                problems.append(f"interval {n}: witness does not replay")
    # the step function jumps to 4 on (1, 2], above the bound 2 there; the
    # ceiling and the plateau tree stay inside their staircases
    if violated != (name == "step") or rc != (1 if violated else 0):
        problems.append(f"region {name}: violated={violated}, exit {rc}")


def _check_suite(problems, rc, out):
    if rc != 0 or not out.get("all_passed") or not all(
            item["passed"] for item in out.get("assertions", [])):
        problems.append("suite assertions failed")


# --- entry -----------------------------------------------------------------------

_FACTS: dict = {}


def doc_facts(doc_key: str):
    """(TableFacts, theta) for a pool document, cached per process."""
    if doc_key not in _FACTS:
        entries, theta = make_table(*parse_doc_key(doc_key))
        _FACTS[doc_key] = (TableFacts(entries), theta)
    return _FACTS[doc_key]


def check(key: str, argv, rc: int, out) -> list:
    """Problems with one request's exit code and parsed stdout (None when
    stdout was empty); an empty list means the answer is right."""
    problems: list = []
    kind = key.split("|")[0]
    if kind.startswith("verify"):
        facts, theta = doc_facts(key.split("|")[1])
        if kind == "verify":
            _check_verify(problems, out, facts, theta)
            want_rc = 0 if facts.identity else 1
        else:
            target = kind[len("verify-"):]
            verdict = out.get("verdict", {})
            _check_kind(problems, target, verdict, facts, target)
            want_rc = 0 if verdict.get("status") == "holds" else 1
        if rc != want_rc:
            problems.append(f"exit {rc}, expected {want_rc}")
    elif kind.startswith("preserve"):
        _, expr, doc_key = key.split("|")
        facts, _theta = doc_facts(doc_key)
        _check_preserve(problems, rc, out, facts, expr,
                        kind[len("preserve-"):])
    elif kind == "random":
        _, space_kind, n, seed = key.split("|")
        _check_random(problems, out, space_kind, int(n[1:]), int(seed))
        if rc != 0:
            problems.append(f"exit {rc}")
    elif kind == "member":
        _, klass, name, _seed = key.split("|")
        _check_member(problems, rc, out, name, klass)
    elif kind == "search":
        _check_search(problems, rc, out, key.split("|")[2])
    elif kind == "classify":
        _check_classify(problems, rc, out, key.split("|")[1])
    elif kind == "region":
        name = key.split("|")[1]
        _check_region(problems, rc, out, name, float(Fraction(argv[4])))
    elif kind == "suite":
        _check_suite(problems, rc, out)
    else:
        problems.append(f"no oracle for request {key}")
    return problems
