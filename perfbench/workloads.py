"""Seeded request streams for the three benchmark workloads.

A stream is a list of :class:`Request`, each one invocation of
``python -m pcores.cli``.  Requests are drawn in blocks: every block holds
a fixed mix of commands, and the size parameter that sets a request's cost
(n, kmax, the transform table size) is stratified across the block, so two
seeds give different requests with the same cost profile.  That keeps the
run-to-run spread of the latency percentiles small while the inputs vary.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("exact", "circle", "transforms")
PRECISIONS = (40, 60, 100)
# `pcore approx` attaches the exact count (a full series computation) only
# up to this n; the circle workload stays above it to leave the engine idle.
EXACT_CUTOFF = 20000


def _primes(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(p for p in range(max(lo, 2), hi + 1)
                 if all(p % d for d in range(2, math.isqrt(p) + 1)))


SMALL_PRIMES = _primes(5, 31)
MID_PRIMES = _primes(5, 61)
LARGE_PRIMES = _primes(5, 97)
# p = 3 mod 4, as the class number and the quadratic trig identity need
CLASS_PRIMES = tuple(p for p in _primes(7, 499) if p % 4 == 3)
TRIG_PRIMES = tuple(p for p in LARGE_PRIMES if p % 4 == 3)


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its envelope must echo."""

    command: str                 # the envelope's "command", e.g. "verify fft"
    parameters: dict             # flags passed, as the envelope echoes them
    prec: int
    fmt: str = "json"
    cache: bool = False          # pass --cache <run cache file>
    repeat_of: int | None = None  # index of the request this one repeats
    key: tuple = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (
            self.command, tuple(sorted(self.parameters.items())), self.prec))

    def argv(self, cache_path: str | None = None) -> list[str]:
        out = self.command.split()
        for name, value in self.parameters.items():
            out += ["--" + name.replace("_", "-"), str(value)]
        out += ["--prec", str(self.prec), "--format", self.fmt]
        if self.cache:
            out += ["--cache", cache_path]
        return out


def _log_uniform(rng: random.Random, lo: float, hi: float,
                 stratum: int, strata: int) -> float:
    """A log-uniform draw from the stratum-th of `strata` equal slices."""
    u = (stratum + rng.random()) / strata
    return lo * (hi / lo) ** u


def _exact_block(rng: random.Random, history: list[Request]) -> list[Request]:
    # 9 fresh requests over n in [800, 2400], 3 repeats of earlier ones
    # under another --format, so about a quarter of lookups hit the cache.
    kinds = ["count"] * 4 + ["series"] * 2 + ["approx"] * 3
    strata = list(range(len(kinds)))
    rng.shuffle(strata)
    fresh = []
    for kind, stratum in zip(kinds, strata):
        p = rng.choice(SMALL_PRIMES)
        n = round(_log_uniform(rng, 800, 2400, stratum, len(kinds)))
        prec = rng.choice(PRECISIONS)
        if kind == "count":
            fresh.append(Request("count", {"p": p, "n": n}, prec, cache=True))
        elif kind == "series":
            fresh.append(Request("series", {"p": p, "max_n": n}, prec,
                                 cache=True))
        else:
            fresh.append(Request("approx", {"p": p, "n": n,
                                            "method": "divisor"},
                                 prec, cache=True))
    slots = fresh + [None] * 3
    rng.shuffle(slots)
    block: list[Request] = []
    for slot in slots:
        if slot is None:
            earlier = [i for i, r in enumerate(history + block)
                       if r.repeat_of is None]
            if not earlier:
                continue
            index = rng.choice(earlier)
            first = (history + block)[index]
            slot = Request(first.command, first.parameters, first.prec,
                           fmt=rng.choice(("text", "csv")), cache=True,
                           repeat_of=index)
        block.append(slot)
    return block


def _circle_block(rng: random.Random, history: list[Request]) -> list[Request]:
    # Three cheap Ramanujan sweeps, four mid-size requests and three large
    # singular series per block: p50 falls among the mid-size requests and
    # p90 in the middle of the large ones, not on a boundary between kinds.
    # The divisor estimate shares (p, n) with one singular series, so the
    # checker can hold that estimate to its truncation error.
    block = []
    for _ in range(3):
        block.append(Request("verify ramanujan-identity",
                             {"p": rng.choice(SMALL_PRIMES),
                              "kmax": rng.randint(5, 15),
                              "nmax": rng.randint(5, 15)},
                             rng.choice(PRECISIONS)))
    for stratum in range(2):
        kmax = round(_log_uniform(rng, 40, 120, stratum, 2))
        block.append(Request("verify dedekind-parity",
                             {"p": rng.choice(SMALL_PRIMES), "kmax": kmax},
                             rng.choice(PRECISIONS)))
    singular = []
    for kmax in [round(_log_uniform(rng, 40, 70, 0, 1))] + [
            round(_log_uniform(rng, 70, 120, stratum, 3))
            for stratum in range(3)]:
        n = round(_log_uniform(rng, EXACT_CUTOFF + 1, 10 ** 6, 0, 1))
        singular.append(Request("approx", {"p": rng.choice(SMALL_PRIMES),
                                           "n": n, "method": "singular",
                                           "kmax": kmax},
                                rng.choice(PRECISIONS)))
    paired = rng.choice(singular).parameters
    block.append(Request("approx", {"p": paired["p"], "n": paired["n"],
                                    "method": "divisor"},
                         rng.choice(PRECISIONS)))
    block += singular
    rng.shuffle(block)
    return block


def _eta_case(rng: random.Random) -> dict:
    # Both product arguments stay inside |x| <= 0.9 (t >= 0.11 and
    # k^2*p*t <= 350), where 400 factors meet the 1e-12 default tolerance;
    # the library itself only refuses |x| > 0.95.
    while True:
        p = rng.choice(SMALL_PRIMES)
        k = rng.randint(1, 6)
        if k % p:
            break
    h = rng.choice([h for h in range(k) if math.gcd(h, k) == 1])
    t_max = min(2.0, 350 / (k * k * p))
    t = round(rng.uniform(0.11, t_max), 3)
    return {"p": p, "h": h, "k": k, "t": t}


def _trig_identity_case(rng: random.Random) -> dict:
    while True:
        r = rng.choice((2, 4, 6, 8))
        p = rng.choice(TRIG_PRIMES)
        if math.gcd(p, r + 1) == 1:
            return {"r": r, "p": p}


def _transforms_block(rng: random.Random,
                      history: list[Request]) -> list[Request]:
    # Three of sixteen requests run the transform table, so p90 falls
    # inside the table's latencies.  They run at the default precision:
    # a table at --prec 100 costs twice one at 40, and p90 is only steady
    # where the tail latencies lie close together.  Nine of the thirteen
    # light commands are the cheapest ones, so p50 falls among them and
    # measures start-up and rendering.
    block = []
    for stratum in range(3):
        block.append(Request("verify fft", {
            "kmax": round(_log_uniform(rng, 5, 6.5, stratum, 3)),
            "grids": rng.randint(10, 20),
            "grid_kmax": round(_log_uniform(rng, 16, 32, 0, 1)),
            "pmax": rng.choice((31, 53, 97))}, 60))
    light = [
        ("classnum", lambda: {"p": rng.choice(CLASS_PRIMES)}),
        ("classnum", lambda: {"p": rng.choice(CLASS_PRIMES)}),
        ("classnum", lambda: {"p": rng.choice(CLASS_PRIMES)}),
        ("trig", lambda: {"r": rng.randint(1, 8), "p": rng.choice(LARGE_PRIMES)}),
        ("trig", lambda: {"r": rng.randint(1, 8), "p": rng.choice(LARGE_PRIMES)}),
        ("trig", lambda: {"r": rng.randint(1, 8), "p": rng.choice(LARGE_PRIMES)}),
        ("verify trig-identity", lambda: _trig_identity_case(rng)),
        ("verify trig-identity", lambda: _trig_identity_case(rng)),
        ("verify trig-identity", lambda: _trig_identity_case(rng)),
        ("cp", lambda: {"p": rng.choice(MID_PRIMES)}),
        ("verify eta-transform", lambda: _eta_case(rng)),
        ("verify dirichlet-series",
         lambda: {"p": rng.choice(SMALL_PRIMES), "s": rng.randint(2, 4),
                  "n": rng.randint(1, 30)}),
        ("verify divisibility", lambda: {"p": rng.choice(SMALL_PRIMES)}),
    ]
    for command, draw in light:
        block.append(Request(command, draw(), rng.choice(PRECISIONS)))
    rng.shuffle(block)
    return block


_BLOCKS = {"exact": _exact_block, "circle": _circle_block,
           "transforms": _transforms_block}


def generate(workload: str, seed: int, count: int) -> list[Request]:
    """The first `count` requests of the workload's stream for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    make_block = _BLOCKS[workload]
    requests: list[Request] = []
    while len(requests) < count:
        requests += make_block(rng, requests)
    return requests[:count]
