"""Command-line interface.

Commands::

    nearhex build  --model M [--out F]
    nearhex export --model M --format json [--out F]
    nearhex verify --model M [--checks c1,c2,...] [--out F]
    nearhex iso A B
    nearhex report [--out F]

Exit codes: 0 success / all checks pass, 1 a check or comparison failed,
2 usage or input error.  All output is deterministic for a fixed version.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable

from .acceptance import acceptance_report, run_acceptance
from .builders import build_dsp62, build_h3, build_h3_partitions, build_h3_debruyn
from .geometry import Geometry, GeometryError
from .gq22 import build_w2
from .iso import are_isomorphic
from .jsonio import dumps, geometry_to_document, load_geometry
from .verify import CHECKS, default_checks, run_check

MODELS: dict[str, Callable[[], Geometry]] = {
    "w2": build_w2,
    "h3": build_h3,
    "h3-partition": build_h3_partitions,
    "h3-debruyn": build_h3_debruyn,
    "dsp62": lambda: build_dsp62(build_h3()),
}


class UsageError(Exception):
    pass


def _write(text: str, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            raise UsageError(f"cannot write to standard output: {exc}") from exc
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc


def _build_model(name: str) -> Geometry:
    try:
        factory = MODELS[name]
    except KeyError:
        raise UsageError(f"unknown model {name!r}; choose from {', '.join(MODELS)}")
    return factory()


def _entry(check: str, model: str, g: Geometry) -> dict:
    ok, counts, witnesses = run_check(check, model, g)
    return {
        "check": check,
        "geometry": model,
        "verdict": "pass" if ok else "fail",
        "counts": counts,
        "witnesses": witnesses[:10],
    }


def cmd_build(args: argparse.Namespace) -> int:
    g = _build_model(args.model)
    _write(dumps(geometry_to_document(g, args.model)), args.out)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    if args.format != "json":
        raise UsageError(f"unsupported format {args.format!r}")
    return cmd_build(args)


def cmd_verify(args: argparse.Namespace) -> int:
    checks = None
    if args.checks is not None:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not checks:
            raise UsageError("empty check list")
        for check in checks:
            if check not in CHECKS:
                raise UsageError(f"unknown check {check!r}; choose from {', '.join(CHECKS)}")
    g = _build_model(args.model)
    if checks is None:
        checks = default_checks(args.model)
    entries = [_entry(check, args.model, g) for check in checks]
    report = {
        "geometry": args.model,
        "verdict": "pass" if all(e["verdict"] == "pass" for e in entries) else "fail",
        "checks": entries,
    }
    _write(dumps(report), args.out)
    return 0 if report["verdict"] == "pass" else 1


def cmd_iso(args: argparse.Namespace) -> int:
    name_a, ga = load_geometry(args.a)
    name_b, gb = load_geometry(args.b)
    verdict = are_isomorphic(ga, gb)
    doc = {
        "a": name_a,
        "b": name_b,
        "verdict": "isomorphic" if verdict.isomorphic else "not isomorphic",
        "detail": verdict.detail,
    }
    if verdict.isomorphic:
        doc["mapping"] = {ga.labels[p]: gb.labels[q] for p, q in enumerate(verdict.mapping)}
    _write(dumps(doc), args.out)
    return 0 if verdict.isomorphic else 1


def cmd_report(args: argparse.Namespace) -> int:
    results = run_acceptance()
    report = acceptance_report(results)
    _write(dumps(report), args.out)
    return 0 if report["all_pass"] else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first :func:`main` call and shared
    by every later one: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="nearhex",
        description="Build and exhaustively verify the near hexagons grown from the (2,2) quadrangle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="export a geometry as JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("export", help="alias of build with an explicit format")
    p.add_argument("--model", required=True)
    p.add_argument("--format", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("verify", help="run selected checks against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--checks", help=f"comma-separated subset of: {','.join(CHECKS)}")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("iso", help="compare two geometry files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("report", help="run the full acceptance suite")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
