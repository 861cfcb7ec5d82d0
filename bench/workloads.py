"""Seeded inputs for the three benchmark workloads.

Every request the benchmark sends comes from a finite pool whose expected
answers live in ``expected/<workload>.json``. A pool entry is a pure function
of its key, so documents are rebuilt from the key and never stored. The
workload seed only chooses which pool entries run and in which order.

Requests are grouped in blocks. Each block has the same composition (so many
requests of each size and kind) and a seeded order, so two seeds load the
program alike and differ in their inputs. A run replays the first block of
its seed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

KINDS = ("metric", "ultrametric", "b-metric", "extended", "plain")
REGIMES = ("small", "large")
SIZES = (8, 16, 32, 48)
# documents per (kind, regime, n) stratum
POOL_PER_SIZE = {8: 8, 16: 8, 32: 4, 48: 2}
TABLE_EXPRS = ("x", "min(x, 1)", "sqrt(x)", "x^2")
# preserve targets per generated kind; the first needs the strongest source
PRESERVE_TARGETS = {
    "metric": ("metric", "b-metric"),
    "ultrametric": ("ultrametric", "weak-ultrametric"),
    "b-metric": ("b-metric", "extended-b-metric"),
    "extended": ("extended-b-metric", "b-metric"),
    "plain": ("b-metric", "extended-b-metric"),
}
RANDOM_KINDS = ("metric", "ultrametric", "weak-ultrametric", "b-metric",
                "extended-b-metric")
RANDOM_SEEDS = 3

STEP = "piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : 4))"
# amenable, nondecreasing and subadditive, so metric preserving; deeper trees
# cost more per evaluation
DEEP = (
    ("deep-min-sqrt-log", "min(sqrt(x), log1p(x) + min(x, 1))"),
    ("deep-max-nested", "max(log1p(sqrt(x)), min(x / (1 + x), 1/2), "
                        "min(log1p(log1p(x)), sqrt(x) / 2))"),
    ("deep-piece-plateau", "piece(x <= 0 ? 0 : max(1, log1p(min(x, 3)) "
                           "+ min(sqrt(x), 1)))"),
)
CATALOG = (
    ("identity", "x"),
    ("saturating-ratio", "x / (1 + x)"),
    ("unit-clamp", "min(x, 1)"),
    ("square-root", "sqrt(x)"),
    ("square", "x^2"),
    ("exp-minus-one", "exp(x) - 1"),
    ("zero", "0"),
    ("ceiling", "ceil(x)"),
)
FUNCTIONS = CATALOG + (("step", STEP),) + DEEP
REFUTED = ("exp-minus-one", "zero")
MEMBER_CLASSES = ("U", "DU", "B", "MB", "EB")
SCAN_CLASSES = ("U", "DU", "B", "MB")
SAMPLING_SEEDS = 6
# (name, plateau value a, plateau edge b)
PLATEAUS = (("ceiling", "1", "1"), ("step", "1", "1"),
            ("deep-piece-plateau", "1", "1/4"))
REGION_SIZES = (4, 8, 12, 16, 24, 32)
SUITE_SEEDS = 48

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")


def _primes_from(start: int, count: int) -> tuple[int, ...]:
    out = []
    candidate = start
    while len(out) < count:
        if all(candidate % d for d in range(2, int(candidate ** 0.5) + 1)):
            out.append(candidate)
        candidate += 1
    return tuple(out)


# denominators of the large regime: distinct primes near 10^6
LARGE_PRIMES = _primes_from(1_000_003, 64)


# --- documents -----------------------------------------------------------------

def _den(rng: random.Random, regime: str) -> int:
    return rng.choice((4, 8)) if regime == "small" else rng.choice(LARGE_PRIMES)


def _metric_entries(rng: random.Random, n: int, regime: str):
    # distinct integer points in a cube under L1, each axis scaled by its
    # own denominator
    dens = [_den(rng, regime) for _ in range(3)]
    points = set()
    while len(points) < n:
        points.add(tuple(Fraction(rng.randint(0, 12 * d), d) for d in dens))
    coords = sorted(points)
    rng.shuffle(coords)
    return [[sum(abs(a - b) for a, b in zip(p, q)) for q in coords]
            for p in coords]


def _ultra_entries(rng: random.Random, n: int, regime: str):
    # merge tree: two clusters join at the next of n - 1 increasing heights
    if regime == "small":
        den = _den(rng, regime)
        heights, h = [], Fraction(0)
        for _ in range(n - 1):
            h += Fraction(rng.randint(1, 16), den)
            heights.append(h)
    else:
        heights = set()
        while len(heights) < n - 1:
            heights.add(Fraction(rng.randint(1, 10 ** 7),
                                 rng.choice(LARGE_PRIMES)))
        heights = sorted(heights)
    entries = [[Fraction(0)] * n for _ in range(n)]
    clusters = [[i] for i in range(n)]
    for h in heights:
        a, b = sorted(rng.sample(range(len(clusters)), 2))
        for u in clusters[a]:
            for v in clusters[b]:
                entries[u][v] = entries[v][u] = h
        clusters[a].extend(clusters.pop(b))
    return entries


def _factors(rng: random.Random, n: int, regime: str, top: int):
    # symmetric per-pair factors in [1, top]
    out = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = _den(rng, regime)
            out[i][j] = out[j][i] = 1 + Fraction(rng.randint(0, (top - 1) * den),
                                                 den)
    return out


def _plain_entries(rng: random.Random, n: int, regime: str):
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = _den(rng, regime)
            entries[i][j] = entries[j][i] = Fraction(rng.randint(1, 16 * den),
                                                     den)
    return entries


def make_table(kind: str, regime: str, n: int, index: int):
    """(entries, theta or None) for one pool document; a pure function."""
    rng = random.Random(f"bench-table|{kind}|{regime}|{n}|{index}")
    theta = None
    if kind == "metric":
        entries = _metric_entries(rng, n, regime)
    elif kind == "ultrametric":
        entries = _ultra_entries(rng, n, regime)
    elif kind == "plain":
        entries = _plain_entries(rng, n, regime)
    else:
        base = _metric_entries(rng, n, regime)
        top = 2 if kind == "b-metric" else 4
        factors = _factors(rng, n, regime, top)
        entries = [[d * f for d, f in zip(row, frow)]
                   for row, frow in zip(base, factors)]
        if kind == "extended":
            # d'(x,y) = f d(x,y) <= f (d(x,z) + d(z,y)) <= f (d'(x,z) + d'(z,y))
            theta = factors
    return entries, theta


def _rational(value: Fraction):
    return (value.numerator if value.denominator == 1
            else f"{value.numerator}/{value.denominator}")


def table_document(entries, theta) -> dict:
    n = len(entries)
    doc = {"points": [f"p{i}" for i in range(n)],
           "entries": [[_rational(v) for v in row] for row in entries]}
    if theta is not None:
        doc["theta"] = [[_rational(v) for v in row] for row in theta]
    return doc


# --- request pools -----------------------------------------------------------------
#
# A request is (key, argv, doc) where doc names a table document by its pool
# key, or is None. argv holds the placeholder "{doc}" for the document path.

def table_doc_key(kind: str, regime: str, n: int, index: int) -> str:
    return f"{kind}/{regime}/n{n}/{index}"


def parse_doc_key(key: str):
    kind, regime, n, index = key.split("/")
    return kind, regime, int(n[1:]), int(index)


def table_requests_for(kind: str, regime: str, n: int, index: int):
    """The three requests issued against one document: the full table, one
    targeted kind, one preservation check."""
    doc = table_doc_key(kind, regime, n, index)
    klass = ("metric", "ultrametric")[index % 2]
    expr = TABLE_EXPRS[index % len(TABLE_EXPRS)]
    target = PRESERVE_TARGETS[kind][(index // len(TABLE_EXPRS)) % 2]
    return {
        "verify": (f"verify|{doc}", ["space", "verify", "{doc}"], doc),
        "verify-class": (f"verify-{klass}|{doc}",
                         ["space", "verify", "{doc}", "--class", klass], doc),
        "preserve": (f"preserve-{target}|{expr}|{doc}",
                     ["preserve", expr, "--space", "{doc}", "--target", target],
                     doc),
    }


def random_request(kind: str, n: int, seed: int):
    return (f"random|{kind}|n{n}|{seed}",
            ["space", "random", "--kind", kind, "-n", str(n),
             "--seed", str(seed)], None)


def table_pool():
    for kind in KINDS:
        for regime in REGIMES:
            for n in SIZES:
                for index in range(POOL_PER_SIZE[n]):
                    yield from table_requests_for(kind, regime, n,
                                                  index).values()
    for kind in RANDOM_KINDS:
        for n in SIZES:
            for seed in range(RANDOM_SEEDS):
                yield random_request(kind, n, seed)


def fn_source(name: str) -> str:
    return dict(FUNCTIONS)[name]


def member_request(name: str, klass: str, seed: int):
    return (f"member|{klass}|{name}|{seed}",
            ["member", fn_source(name), "--class", klass, "--seed", str(seed)],
            None)


def search_request(name: str, seed: int):
    return (f"search|MB|{name}|{seed}",
            ["search", fn_source(name), "--class", "MB", "--seed", str(seed)],
            None)


def classify_request(name: str):
    return (f"classify|{name}", ["fn", "classify", fn_source(name)], None)


def region_request(name: str, a: str, b: str, n: int):
    return (f"region|{name}|n{n}",
            ["region", "check", fn_source(name), "--a", a, "--b", b,
             "--n", str(n)], None)


def function_pool():
    for name, _ in FUNCTIONS:
        for seed in range(SAMPLING_SEEDS):
            for klass in MEMBER_CLASSES:
                yield member_request(name, klass, seed)
            yield search_request(name, seed)
        yield classify_request(name)
    for name, a, b in PLATEAUS:
        for n in REGION_SIZES:
            yield region_request(name, a, b, n)


def suite_request(seed: int):
    return (f"suite|{seed}", ["suite", "--seed", str(seed)], None)


def suite_pool():
    for seed in range(SUITE_SEEDS):
        yield suite_request(seed)


POOLS = {"tables": table_pool, "functions": function_pool,
         "suite": suite_pool}


# --- blocks -----------------------------------------------------------------------

class _Deck:
    """Deals items in shuffled rounds, so every item comes up once before
    any comes up twice."""

    def __init__(self, rng: random.Random, items) -> None:
        self.rng = rng
        self.items = list(items)
        self.hand: list = []

    def deal(self):
        if not self.hand:
            self.hand = list(self.items)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


# Block compositions, given per part (see PARTS). Requests fall into cost
# groups, and the group sizes put the median request in the middle of one
# group and the 90th percentile in the middle of another, never in the gap
# between two groups, where a percentile would jump with every small shift
# in timing.
#
# tables, 27 requests: 8 fast (random and preserve at small n), 9 verifies
# at n = 8 around the median, 5 middling ones (n = 16, and preserve and
# random at n = 32), and 5 heavy verifies around the 90th percentile: 4 at
# n = 32 and a targeted one at n = 48 with large denominators.
# (request, n, count); kind and regime are dealt per n.
TABLE_BLOCK = (
    ("random", 8, 2), ("random", 16, 1), ("preserve", 8, 5),
    ("verify", 8, 5), ("verify-class", 8, 4),
    ("verify", 16, 1), ("verify-class", 16, 1), ("preserve", 16, 1),
    ("preserve", 32, 1), ("random", 32, 1),
    ("verify", 32, 2), ("verify-class", 32, 2), ("verify-class", 48, 1),
)


def _fixed_order() -> random.Random:
    # decks whose choice sets a request's cost deal in the same order for
    # every seed, so runs with different seeds do the same amount of work;
    # the seed still picks documents, sampling seeds and the order of a block
    return random.Random("bench-fixed-order")


def _table_blocks(rng: random.Random):
    strata = {n: _Deck(_fixed_order(), [(k, r) for k in KINDS
                                         for r in REGIMES])
              for n in SIZES}
    kinds_48 = _Deck(_fixed_order(), KINDS)
    random_kinds = _Deck(_fixed_order(), RANDOM_KINDS)
    while True:
        part = []
        for request, n, times in TABLE_BLOCK:
            for _ in range(times):
                if request == "random":
                    part.append(random_request(
                        random_kinds.deal(), n,
                        rng.randrange(RANDOM_SEEDS)))
                    continue
                if n == 48:
                    kind, regime = kinds_48.deal(), "large"
                else:
                    kind, regime = strata[n].deal()
                index = rng.randrange(POOL_PER_SIZE[n])
                part.append(table_requests_for(kind, regime, n,
                                                index)[request])
        yield part


# functions, 11 requests: a region check, 2 profiles, 4 screens of the zero
# function around the median (a 10k-point profile, then the amenability
# screen: the same work whatever the class), an EB member, an exp(x) - 1
# screen, and 2 full triplet scans at the top: one on a catalog function or
# the step function, one on a deep tree.


def _function_blocks(rng: random.Random):
    deep = [name for name, _ in DEEP]
    members = [name for name, _ in FUNCTIONS if name not in REFUTED]
    scan_kinds = SCAN_CLASSES + ("search",)
    scans = {depth: _Deck(_fixed_order(), [(name, klass) for name in names
                                           for klass in scan_kinds])
             for depth, names in (
                 ("shallow", [m for m in members if m not in deep]),
                 ("deep", deep))}
    eb = _Deck(rng, members)
    screens = {name: _Deck(rng, MEMBER_CLASSES) for name in REFUTED}
    profiles = _Deck(rng, [name for name, _ in FUNCTIONS])
    regions = _Deck(rng, [(p, n) for p in PLATEAUS for n in REGION_SIZES])

    def sampling_seed():
        return rng.randrange(SAMPLING_SEEDS)

    while True:
        part = []
        for depth in ("shallow", "deep"):
            name, klass = scans[depth].deal()
            part.append(search_request(name, sampling_seed())
                        if klass == "search"
                        else member_request(name, klass, sampling_seed()))
        for _ in range(4):
            part.append(member_request("zero", screens["zero"].deal(),
                                       sampling_seed()))
        part.append(member_request(eb.deal(), "EB", sampling_seed()))
        part.append(member_request("exp-minus-one",
                                   screens["exp-minus-one"].deal(),
                                   sampling_seed()))
        for _ in range(2):
            part.append(classify_request(profiles.deal()))
        (name, a, b), n = regions.deal()
        part.append(region_request(name, a, b, n))
        yield part


def _suite_blocks(rng: random.Random):
    seeds = _Deck(rng, range(SUITE_SEEDS))
    while True:
        yield [suite_request(seeds.deal())]


_BLOCKS = {"tables": _table_blocks, "functions": _function_blocks,
           "suite": _suite_blocks}


# parts per block
PARTS = {"tables": 1, "functions": 1, "suite": 2}


def blocks(workload: str, seed: int):
    """Endless stream of request blocks of a workload for a seed."""
    rng = random.Random(f"bench-blocks|{workload}|{seed}")
    parts = _BLOCKS[workload](rng)
    while True:
        block = [r for _ in range(PARTS[workload]) for r in next(parts)]
        rng.shuffle(block)
        yield block


def load_expected(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def write_document(directory: str, doc_key: str) -> str:
    """Write a pool document as JSON and return its path."""
    path = os.path.join(directory, doc_key.replace("/", "_") + ".json")
    if not os.path.exists(path):
        entries, theta = make_table(*parse_doc_key(doc_key))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(table_document(entries, theta), handle)
    return path
