"""The four benchmark workloads, their jobs and the known answer of every job.

A job is one ``quiverkit`` command line.  The runner appends ``--out
<file>``, calls ``quiverkit.cli.main`` on it and, outside the timed
region, hands the :class:`Outcome` to ``Job.check``, which returns
``None`` for a correct answer or the reason it is wrong.

Every expected value is a closed-form count (variables and clusters of
finite-type cluster algebras, the N(N-3)/2 diagonals of an N-gon) or was
pinned from the output of the first version of quiverkit this benchmark
measured.  README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Exit codes the CLI documents: success, usage error, size cap, verification failure.
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)


@dataclass
class Outcome:
    """What one job did: exit code (``None`` if an exception escaped), the
    escaped exception's text, the output file, and the seed counts of the
    mutation closures it computed (recorded by the runner, because the
    CLI prints variables but not clusters)."""

    rc: int | None
    error: str | None
    out: Path
    seed_counts: list[int] = field(default_factory=list)


Check = Callable[[Outcome], "str | None"]


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Check

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    def verdict(self, outcome: Outcome) -> str | None:
        """``None`` if the job succeeded, else why it failed."""
        if outcome.error is not None:
            return f"escaped: {outcome.error}"
        if outcome.rc not in DOCUMENTED_EXIT_CODES:
            return f"undocumented exit code {outcome.rc}"
        if outcome.rc != 0:
            return f"exit code {outcome.rc}, expected 0"
        try:
            return self.check(outcome)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    smoke_jobs: tuple[Job, ...]
    seeded: bool = False  # the workload seed is passed on as ``--seed``

    def job_list(self, seed: int, smoke: bool = False) -> tuple[Job, ...]:
        jobs = self.smoke_jobs if smoke else self.jobs
        if not self.seeded:
            return jobs
        return tuple(Job(j.argv + ("--seed", str(seed)), j.check) for j in jobs)


def _json(outcome: Outcome) -> dict:
    return json.loads(outcome.out.read_text(encoding="utf-8"))


# --- classify ---------------------------------------------------------------

def classify_job(n: int, m: int, principal: int, others: list[tuple[int, int, int, int]]) -> Job:
    """``classify --report json`` with its pinned answer.

    ``others`` lists (size, k, s, r) of every non-principal component in
    report order.  The components must also cover all N(N-3)/2 diagonals
    of the N-gon, N = n*m + 2, and the principal one must be gamma(n, m).
    """

    def check(outcome):
        doc = _json(outcome)
        N = n * m + 2
        total = doc["principal"]["size"] + sum(o["size"] for o in doc["others"])
        if total != N * (N - 3) // 2:
            return f"component sizes sum to {total}, expected {N * (N - 3) // 2}"
        if doc["principal"]["iso_gamma"] is not True:
            return f"principal component is not gamma({n},{m})"
        if doc["principal"]["size"] != principal:
            return f"principal size {doc['principal']['size']}, expected {principal}"
        got = [
            (o["size"], *((o["match"]["k"], o["match"]["s"], o["match"]["r"]) if o["match"] else (None,) * 3))
            for o in doc["others"]
        ]
        if got != [tuple(o) for o in others]:
            return f"components (size, k, s, r) {got}, expected {others}"
        return None

    return Job(("classify", "--n", str(n), "--m", str(m), "--report", "json"), check)


# For m = 1 the power is gamma(n, 1) itself: one component, no others.
# (46, 1) has 1080 vertices, under the default cap of 5000.  The first
# version measured escapes it with RecursionError; that is one failed
# job, and the job stays in the list until the program handles it.
CLASSIFY = Workload(
    "classify",
    jobs=(
        classify_job(4, 3, 21, [(56, 4, 9, 2)]),
        classify_job(6, 3, 50, [(120, 6, 13, 2)]),
        classify_job(5, 3, 34, [(85, 5, 11, 2)]),
        classify_job(2, 5, 6, [(24, 2, 6, 4), (24, 2, 6, 4)]),
        classify_job(6, 2, 35, [(21, 6, 0, 1), (21, 6, 0, 1)]),
        classify_job(40, 1, 819, []),
        classify_job(46, 1, 1080, []),
    ),
    smoke_jobs=(
        classify_job(2, 3, 4, [(16, 2, 5, 2)]),
        classify_job(3, 2, 8, [(6, 3, 0, 1), (6, 3, 0, 1)]),
        classify_job(6, 1, 20, []),
    ),
)


# --- closure ----------------------------------------------------------------

_MONOMIAL = re.compile(r"u_\d+(\^\d+)?(\*u_\d+(\^\d+)?)*")


def denominator_is_monomial(rendered: str) -> bool:
    """Whether a rendered variable ``num / den`` has a monomial ``den``."""
    if " / " not in rendered:
        return True
    return _MONOMIAL.fullmatch(rendered.rsplit(" / ", 1)[1]) is not None


def closure_job(label: str, rows: list[list[int]], variables: int, clusters: int) -> Job:
    """``mutate --enumerate`` checked against the Fomin-Zelevinsky counts
    of cluster variables and clusters of a finite type."""

    def check(outcome):
        doc = _json(outcome)
        if doc["cap_reached"] is not False:
            return f"{label}: seed cap reached"
        if doc["count"] != variables or len(doc["variables"]) != variables:
            return f"{label}: {doc['count']} variables, expected {variables}"
        bad = [v for v in doc["variables"] if not denominator_is_monomial(v)]
        if bad:
            return f"{label}: denominator of {bad[0]!r} is not a monomial"
        if outcome.seed_counts != [clusters]:
            return f"{label}: clusters {outcome.seed_counts}, expected [{clusters}]"
        return None

    return Job(("mutate", "--enumerate", "--matrix", json.dumps(rows, separators=(",", ":"))), check)


def a_path(n: int) -> list[list[int]]:
    """Exchange matrix of the linearly oriented A_n path."""
    return [[(j == i + 1) - (j == i - 1) for j in range(n)] for i in range(n)]


CLOSURE = Workload(
    "closure",
    jobs=(
        closure_job("A_5", a_path(5), 20, 132),
        closure_job("D_4", [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]], 16, 50),
        closure_job("B_3", [[0, 1, 0], [-2, 0, 1], [0, -1, 0]], 12, 20),
        closure_job("G_2", [[0, 1], [-3, 0]], 8, 8),
    ),
    smoke_jobs=(
        closure_job("A_2", a_path(2), 5, 5),
        closure_job("B_2", [[0, 1], [-2, 0]], 6, 6),
    ),
)


# --- structure --------------------------------------------------------------

def sha_job(digest: str, *argv: str) -> Job:
    """A job whose output bytes are pinned by SHA-256."""

    def check(outcome):
        got = hashlib.sha256(outcome.out.read_bytes()).hexdigest()
        return None if got == digest else f"sha256 {got[:16]}..., expected {digest[:16]}..."

    return Job(argv, check)


STRUCTURE = Workload(
    "structure",
    jobs=(
        sha_job("13ec3b3ee273d3446ff324c23318d6c0bb9d1fbffc6b56fa4c85ca103af94188",
                "power", "--n", "96", "--m", "2", "--components"),
        sha_job("2ab3f7e43e0d0283f8acedc5ed8244e7c3d9eba43a6ad3689bdb2156bf248873",
                "power", "--n", "96", "--m", "3", "--components", "--emit", "dot"),
        sha_job("a1c4bcc66bba2d8db7b26a92fdac578df9f99297176f14afeaba5472821931ac",
                "power", "--n", "80", "--m", "5", "--components"),
        sha_job("640cfb85892e34448becdacef8c17b2c7c08909f4414839c1e4a93f5b77c3342",
                "gamma", "--n", "96", "--emit", "dot"),
        sha_job("2b3312ab794bb895ad62c43bdf9f1b35bea24ad4d566c122d7cd051018485207",
                "orbit", "--k", "60", "--s", "70", "--r", "1"),
        sha_job("053fb0fb2426e3cba7b9b7e8a4b43af922e44f56402bc52e9fd38dc4d9c504c4",
                "angulations", "--n", "9"),
        sha_job("7c7ab2e9baa54371d5f163e46215b9b2579f2b705888d44a71b408ab0daf1645",
                "angulations", "--n", "7", "--m", "2"),
    ),
    smoke_jobs=(
        sha_job("2b702b8d9611435dded1b69faced76900f49fc5140bdc1a512cf113e736e6c42",
                "power", "--n", "6", "--m", "2", "--components"),
        sha_job("bf91083f0a6ad4036c95ec638fdda39eaf422477000878bee2eb4bcfed0a7e13",
                "power", "--n", "6", "--m", "3", "--components", "--emit", "dot"),
        sha_job("6b7b8ec622b3d81f06afcabe55eee40c58ce2370cdb0f20cc34ce9b1f2a98de5",
                "gamma", "--n", "5", "--emit", "dot"),
        sha_job("9fd8e43210d8bc7c7686109c9a1f53dfe0e70aa7bc417ee2a0a414bad7914580",
                "orbit", "--k", "3", "--s", "2", "--r", "1"),
        sha_job("25845fd015978f337df413a65c72888ac982743dbd9f68f127bef7d7c024f5d8",
                "angulations", "--n", "4"),
        sha_job("9ad4d6502525ddd3c2d2ea256477541dabbf3518af8721a0d799f2106fffe192",
                "angulations", "--n", "3", "--m", "2"),
    ),
)


# --- verify -----------------------------------------------------------------

def verify_job(checks: int, *argv: str) -> Job:
    """``verify`` prints ``checks`` result lines and every hard one passes."""

    def check(outcome):
        lines = outcome.out.read_text(encoding="utf-8").splitlines()
        results = [ln for ln in lines if ln.startswith("[")]
        if len(results) != checks:
            return f"{len(results)} check lines, expected {checks}"
        failed = [ln for ln in results if not ln.startswith("[PASS]") and "(non-gating)" not in ln]
        if failed:
            return f"hard check failed: {failed[0][:120]}"
        if lines[-1] != "all hard checks passed":
            return f"last line {lines[-1]!r}"
        return None

    return Job(("verify",) + argv, check)


VERIFY = Workload(
    "verify",
    jobs=(verify_job(12),),
    smoke_jobs=(verify_job(1, "--only", "mutation-involution"),),
    seeded=True,
)


WORKLOADS = {w.name: w for w in (CLASSIFY, CLOSURE, STRUCTURE, VERIFY)}
