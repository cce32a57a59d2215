"""Seeded request streams for the certificate benchmark, and the checks on their outputs.

A stream is a list of rounds; a round is a list of CLI requests.  Runs issue
whole rounds and start again at the first round after the last one.  Every
round holds one request per stratum of the input property that sets a
request's cost (presentation shape, genus, region size), and the geography
values K and M advance by the golden-ratio step from seeded phases, so every
seed covers each stratum evenly and a run's totals do not hinge on a few
lucky draws.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from random import Random
from typing import Optional

WORKLOADS = ("paper-suite", "prescribed-group", "geography-sweep")
DEFAULT_SEED = 0

# Rounds per stream; a stream is long enough that a run at today's speed does
# not reach its end, and short enough that the default-seed reference stays small.
STREAM_ROUNDS = {"paper-suite": 1, "prescribed-group": 16, "geography-sweep": 48}

# prescribed-group: one presentation per shape in a round.  A shape fixes the
# generator count n and each relator's sum of |exponents|; with s = 2n + sum|r_i|,
# normalization gives genus 2s + 1 and a normalized presentation that depends on
# the seed only through which generator each fresh letter links to, so requests
# of one shape cost about the same while their groups differ.  Six genus-17
# shapes cover 1-3 generators and 1-4 relators and give each run enough requests
# for a tail percentile; the last shape is the genus-33 reference case
# <x0,x1,x2 | x0^2, x1^2, x2^2, [x0,x1]> (a 1191 x 66 cokernel).
PRESCRIBED_SHAPES = (
    (1, (6,)), (1, (4, 2)), (1, (2, 2, 2)), (2, (1, 1, 1, 1)), (2, (2, 2)), (3, (2,)),
    (3, (2, 2, 2, 4)),
)
MAX_GENUS = 33

# geography-sweep: one thm-b per odd genus, one geography request per M stratum.
SWEEP_GENERA = tuple(range(5, 26, 2))
SWEEP_M_STRATA = ((20, 147), (147, 274), (274, 401))

_STEP = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class Request:
    """One CLI request; ``presentation`` is the file text a thm-a request reads."""

    command: str
    g: int = 0
    k: int = 0
    max_m: int = 0
    presentation: str = ""

    def argv(self, presentation_path: Optional[str] = None) -> list[str]:
        if self.command == "verify-paper":
            return ["verify-paper"]
        if self.command == "thm-a":
            return ["thm-a", "--presentation", presentation_path, "--json"]
        if self.command == "thm-b":
            return ["thm-b", "--g", str(self.g), "--k", str(self.k), "--json"]
        return ["geography", "--max-m", str(self.max_m), "--json"]


def stream(workload: str, seed: int) -> list[list[Request]]:
    """The rounds of a workload; the same seed always gives the same rounds."""
    if workload == "paper-suite":
        return [[Request("verify-paper")]]
    if workload == "prescribed-group":
        return [_prescribed_round(seed, r) for r in range(STREAM_ROUNDS[workload])]
    if workload == "geography-sweep":
        rng = Random(f"{seed}/geography-sweep")
        k_phase = {g: rng.random() for g in SWEEP_GENERA}
        m_phase = [rng.random() for _ in SWEEP_M_STRATA]
        return [_sweep_round(seed, r, k_phase, m_phase) for r in range(STREAM_ROUNDS[workload])]
    raise ValueError(f"unknown workload {workload!r}")


def _prescribed_round(seed: int, r: int) -> list[Request]:
    reqs = [Request("thm-a", presentation=_presentation(Random(f"{seed}/prescribed/{r}/{i}"), n, parts))
            for i, (n, parts) in enumerate(PRESCRIBED_SHAPES)]
    Random(f"{seed}/prescribed/{r}").shuffle(reqs)
    return reqs


def _presentation(rng: Random, n: int, parts: tuple[int, ...]) -> str:
    """A presentation on n generators whose i-th relator has sum of |exponents|
    parts[i], exponents in {+-1, +-2}, and at least one exponent other than +1
    (so it is not already in normal form and normalizes to genus 2s + 1)."""
    if 2 * (2 * n + sum(parts)) + 1 > MAX_GENUS:
        raise ValueError(f"shape {n}, {parts} has predicted genus above {MAX_GENUS}")
    while True:
        relators = []
        for part in parts:
            letters = []
            while part:
                e = rng.choice((1, 2)) if part >= 2 else 1
                part -= e
                letters.append((rng.randrange(n), e * rng.choice((1, -1))))
            relators.append(letters)
        if all(e == 1 for rel in relators for _, e in rel):
            continue
        gens = " ".join(f"x{i}" for i in range(n))
        rels = " ".join(
            "rel: " + " ".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in rel) + ";"
            for rel in relators
        )
        return f"gens: {gens}; {rels}\n"


def _sweep_round(seed: int, r: int, k_phase: dict, m_phase: list) -> list[Request]:
    reqs = [Request("thm-b", g=g, k=int((k_phase[g] + r * _STEP) % 1.0 * (2 * g + 3)))
            for g in SWEEP_GENERA]
    reqs += [Request("geography", max_m=lo + int((phase + r * _STEP) % 1.0 * (hi - lo)))
             for (lo, hi), phase in zip(SWEEP_M_STRATA, m_phase)]
    Random(f"{seed}/geography-sweep/{r}").shuffle(reqs)
    return reqs


# --- output checks --------------------------------------------------------------


def check(request: Request, rc, out: str) -> Optional[str]:
    """Why the output of a request is wrong, or None when every check passes.

    The checks use closed forms and independent recomputation only, no stored data.
    """
    if rc != 0:
        return f"exit code {rc}"
    if request.command == "verify-paper":
        lines = out.splitlines()
        if not lines or lines[-1] != "golden suite: all sections match":
            return "golden suite summary missing or failed"
        sections = lines[:-1]
        if not sections or not all(line.startswith("PASS  ") for line in sections):
            return "a golden section did not PASS"
        return None
    try:
        res = json.loads(out)["results"]
    except (ValueError, KeyError, TypeError):
        return "output is not a certificate"
    if request.command == "thm-a":
        if res.get("verdict") is not True:
            return "thm-a verdict is not true"
        if "h1" not in res or "target_abelianization" not in res \
                or res["h1"] != res["target_abelianization"]:
            return "thm-a h1 differs from the target abelianization"
        return None
    if request.command == "thm-b":
        g, k = request.g, request.k
        want = {
            "g": g,
            "k": k,
            "verdict": True,
            "euler": 4 - 4 * g + res.get("length", 0),
            "signature": -8 * (g + 1),
            "chi_h": g + 1 + k,
            "c1_squared": 8 * k,
        }
        bad = [key for key, value in want.items() if res.get(key) != value]
        return f"thm-b fields {bad} break the closed forms" if bad else None
    rows = res.get("rows")
    if rows != geography_rows(request.max_m):
        return "geography rows differ from the admissible, realized region"
    return None


def geography_rows(max_m: int) -> list[list[int]]:
    """Admissible points (m, n) with m <= max_m and their bred-family (g, k), in (m, n) order.

    n = 8m mod 16, so n runs in steps of 16 from 8m mod 16.  k = n/8 has the
    parity of m, so g = m - 1 - k is odd; n <= 8(m - 6) gives g >= 5 and
    3n <= 16m gives k <= 2g + 2, so every admissible point is realized.
    """
    rows = []
    for m in range(6, max_m + 1):
        for n in range((8 * m) % 16, min(8 * (m - 6), 16 * m // 3) + 1, 16):
            rows.append([m, n, m - 1 - n // 8, n // 8])
    return rows


_VERSION = re.compile(r',"toolVersion":"[^"]*"')


def digest(out: str) -> str:
    """SHA-256 of the output bytes with the certificate's toolVersion field cut out."""
    return hashlib.sha256(_VERSION.sub("", out).encode()).hexdigest()
