"""Command-line front end.

Subcommands: gamma, power, classify, mutate, angulations, orbit, verify.
Identical inputs produce byte-identical output.  Exit codes: 0 success,
2 usage error (including an ``--out`` path that cannot be written, a
``mutate --cap`` below 1 or without ``--enumerate``, and a
``QUIVERKIT_CAP`` that is not a positive integer), 3 size cap exceeded,
4 verification failure.  ``classify`` reports the principal component
and, for every other one, the (k, s, r) match of its closed-form normal
form, confirmed by an isomorphism test.
sympy is imported on first use of a mutation field, so only ``mutate``, and
the ``verify`` checks that mutate, load it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .config import DEFAULT_SEED_CAP, default_vertex_cap
from .errors import SizeCapError
from .export import (
    SCHEMA, _dump, angulations_json, components_dot, components_json, to_dot, to_json,
)
from .mutation import (
    ExchangeMatrix,
    enumerate_cluster_variables,
    initial_seed,
    mutate_seed,
)
from .orbit import classify_components, orbit_quiver
from .polygon import enumerate_angulations, gamma
from .power import power
from .quiver import split_components
from .verify import run_checks


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_quiver(args, tq, name: str, **meta) -> int:
    """Write one quiver as ``--emit`` asks: DOT graph ``name``, or JSON with ``meta``."""
    if args.emit == "dot":
        _emit(to_dot(tq, name=name), args.out)
    else:
        _emit(to_json(tq, schema=SCHEMA, **meta), args.out)
    return 0


def _cmd_gamma(args) -> int:
    tq = gamma(args.n, args.m)
    return _emit_quiver(args, tq, f"gamma_{args.n}_{args.m}", n=args.n, m=args.m)


def _cmd_power(args) -> int:
    tq = power(gamma(args.n, 1), args.m)
    if not args.components:
        return _emit_quiver(args, tq, f"power_{args.n}_{args.m}", n=args.n, m=args.m)
    parts = split_components(tq)
    if args.emit == "dot":
        _emit(components_dot(parts), args.out)
    else:
        _emit(components_json(parts, schema=SCHEMA, n=args.n, m=args.m), args.out)
    return 0


def _cmd_classify(args) -> int:
    report = classify_components(args.n, args.m)
    if args.report == "json":
        _emit(_dump(report.to_json_dict()), args.out)
        return 0
    lines = [
        f"power(gamma({args.n * args.m},1), {args.m}):",
        f"  principal component: {report.principal_size} vertices, "
        f"gamma({args.n},{args.m}) match: {report.principal_is_gamma}",
    ]
    for comp in report.others:
        if comp.match is not None:
            k, s, r = comp.match
            tag = f"orbit_quiver(k={k}, s={s}, r={r})"
            if len(comp.all_matches) > 1:
                tag += f" (+{len(comp.all_matches) - 1} more)"
        else:
            tag = "unmatched"
        lines.append(f"  component of {comp.size} vertices: {tag}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_mutate(args) -> int:
    if args.cap is not None and not args.enumerate:
        raise ValueError("--cap applies only to --enumerate")
    try:
        rows = json.loads(args.matrix)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--matrix is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("--matrix is nested too deeply to parse") from exc
    M = ExchangeMatrix(rows).validate()
    payload: dict = {"schema": SCHEMA, "matrix": M.rows()}
    if args.enumerate:
        closure = enumerate_cluster_variables(
            M, cap=DEFAULT_SEED_CAP if args.cap is None else args.cap
        )
        rendered = sorted(x.render() for x in closure.variables)
        payload.update(
            {
                "variables": rendered,
                "count": len(rendered),
                "cap_reached": closure.cap_reached,
            }
        )
    else:
        try:
            steps = [int(tok) for tok in args.steps.replace(" ", "").split(",") if tok]
        except ValueError:
            raise ValueError(
                f"--steps must be comma-separated integers, got {args.steps!r}"
            ) from None
        seed = initial_seed(M)
        for k in steps:
            seed = mutate_seed(seed, k)
        payload.update(
            {
                "steps": steps,
                "cluster": [x.render() for x in seed.cluster],
                "matrix_after": seed.matrix.rows(),
            }
        )
    _emit(_dump(payload), args.out)
    return 0


def _cmd_angulations(args) -> int:
    found = enumerate_angulations(args.n, args.m)
    _emit(angulations_json(found, schema=SCHEMA, n=args.n, m=args.m, count=len(found)), args.out)
    return 0


def _cmd_orbit(args) -> int:
    oq = orbit_quiver(args.k, args.s, args.r)
    name = f"orbit_{args.k}_{args.s}_{args.r}"
    return _emit_quiver(args, oq.quotient, name, k=args.k, s=args.s, r=args.r)


def _cmd_verify(args) -> int:
    results = run_checks(only=args.only, seed=args.seed)
    if not results:
        sys.stderr.write(f"no check matches --only {args.only!r}\n")
        return 2
    lines = []
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        lines.append(f"[{status}] {res.name} ({res.seconds:.3f}s): {res.detail}")
    ok = all(res.ok for res in results)
    lines.append("all hard checks passed" if ok else "hard check failure")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverkit",
        description="translation quivers, polygon diagonals, powers, "
        "orbit quotients and cluster mutation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--emit", choices=("dot", "json"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("gamma", help="diagonal quiver of an (n*m+2)-gon")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    add_common(p)

    p = sub.add_parser("power", help="m-th power of gamma(n,1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--components", action="store_true", help="emit the decomposition")
    add_common(p)

    p = sub.add_parser("classify", help="match power components to orbit quotients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("mutate", help="mutate a seed or enumerate cluster variables")
    p.add_argument("--matrix", required=True, help="JSON rows, e.g. [[0,1],[-1,0]]")
    walk = p.add_mutually_exclusive_group()
    walk.add_argument("--steps", default="", help="1-based directions, e.g. 1,2,1")
    walk.add_argument("--enumerate", action="store_true")
    p.add_argument("--cap", type=int, help="seed cap for --enumerate")
    p.add_argument("--out", default=None)

    p = sub.add_parser("angulations", help="maximal non-crossing diagonal collections")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("orbit", help="quotient of the k-row strip by tau^-s ∘ [r]")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="run the named acceptance checks")
    p.add_argument("--only", default=None, help="substring filter on check names")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--out", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and kept."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        default_vertex_cap()  # a malformed QUIVERKIT_CAP fails every command alike
        # Looked up by name on each call, so a rebound _cmd_* is the one that runs.
        return globals()["_cmd_" + args.command](args)
    except SizeCapError as exc:
        sys.stderr.write(f"size cap: {exc}\n")
        return 3
    except (ValueError, IndexError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
