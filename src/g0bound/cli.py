"""Command-line front end.

Subcommands: bound (single-point bound report), verify (full record-stream
verification over one model or the built-in fleet), zeros (leading zeros of
the order-direction profile with running reciprocal sums), identity
(transform-identity records only).

Complex arguments use the compact grammar RE+IMi / RE-IMi with no spaces
(plain RE for reals), e.g. 1+2i, 2.5-0.75i, 1e2+0.5i.  Exit codes: 0 ok,
1 numeric failure (non-convergence, overflow), 2 usage or domain error,
3 verification records failed.  Timing goes to stderr so stdout stays
machine-readable.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time

from .bound import evaluate_chain, midpoint_rho, optimize_rho
from .errors import DomainError, G0BoundError
from .models import MODEL_NAMES, build_model, default_fleet
from .verify import (DEFAULT_TOLERANCES, GridSpec, format_complex,
                     records_to_csv, records_to_jsonl, run_all,
                     run_identity_suite)
__all__ = ["main", "parse_complex"]

_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"(?P<re>{_NUM})(?:(?P<sign>[+-])"
    r"(?P<im>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?$")


def parse_complex(text: str) -> complex:
    """RE, RE+IMi or RE-IMi with no interior spaces."""
    m = _COMPLEX_RE.fullmatch(text.strip())
    if m is None:
        raise DomainError(
            f"cannot parse complex value {text!r}; expected forms like "
            "1.5, 1+2i or 2.5-0.75i")
    re_part = float(m.group("re"))
    if m.group("im") is None:
        return complex(re_part, 0.0)
    im_part = float(m.group("im"))
    if m.group("sign") == "-":
        im_part = -im_part
    return complex(re_part, im_part)


def _extract_tolerance_overrides(argv):
    """Pull --tol.<check_name>=<value> flags out before argparse sees them."""
    clean, overrides = [], {}
    for arg in argv:
        if not arg.startswith("--tol."):
            clean.append(arg)
            continue
        name, sep, value = arg[len("--tol."):].partition("=")
        if not sep:
            raise DomainError(f"{arg!r}: expected --tol.<name>=<value>")
        if name not in DEFAULT_TOLERANCES:
            known = ", ".join(sorted(DEFAULT_TOLERANCES))
            raise DomainError(f"unknown tolerance {name!r}; known: {known}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise DomainError(f"{arg!r}: tolerance value must be a number")
    return clean, overrides


def _model_from_args(args):
    kwargs = {}
    for attr in ("nu", "a", "head_count", "z_max"):
        value = getattr(args, attr, None)
        if value is not None:
            kwargs[attr] = value
    return build_model(args.model, **kwargs)


def _float_list(text, flag):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"{flag} expects a comma-separated number list")


def _grid_from_args(args) -> GridSpec:
    base = GridSpec.default()
    radii = _float_list(args.radii, "--radii") if args.radii else base.radii
    angles = _float_list(args.angles, "--angles") if args.angles else base.angles
    if args.rhos:
        rhos = []
        for part in args.rhos.split(","):
            part = part.strip()
            if part in ("midpoint", "optimized"):
                rhos.append(part)
            else:
                try:
                    rhos.append(float(part))
                except ValueError:
                    raise DomainError(
                        f"--rhos entry {part!r} is neither a number nor "
                        "midpoint/optimized")
        rhos = tuple(rhos)
    else:
        rhos = base.rhos
    return GridSpec(radii=radii, angles=angles, rhos=rhos)


def cmd_bound(args, tolerances) -> int:
    model = _model_from_args(args)
    z = parse_complex(args.z)
    if args.rho is None:
        rho, policy = midpoint_rho(model), "midpoint"
    elif args.rho == "opt":
        rho, _ = optimize_rho(model, z)
        policy = "optimized"
    else:
        try:
            rho = float(args.rho)
        except ValueError:
            raise DomainError(f"--rho must be a number or 'opt', got {args.rho!r}")
        policy = "given"
    report = evaluate_chain(model, z, rho)
    payload = report.to_json_dict()
    payload["model_id"] = model.model_id
    payload["rho_policy"] = policy
    if policy == "optimized":
        payload["rho_star"] = report.rho

    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.output == "csv":
        keys = sorted(payload)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        writer.writerow([json.dumps(payload[k], sort_keys=True)
                         if isinstance(payload[k], dict) else payload[k]
                         for k in keys])
    else:
        print(f"model        {model.model_id}")
        print(f"z            {format_complex(z)}")
        print(f"rho          {rho!r} ({policy})")
        print(f"J            {report.J!r}")
        print(f"exponent     {report.exponent_thm!r}")
        print(f"intermediate {report.exponent_intermediate!r}")
        print(f"lower        {report.lower!r}")
        print(f"mid          {report.mid!r}")
        print(f"bound        {report.bound!r}")
        print(f"chain_ok     {str(report.chain_ok).lower()}")
        print(f"slack        {report.slack!r}")
    return 0 if report.chain_ok else 3


def _summary_payload(summary) -> dict:
    return {k: summary[k] for k in ("total", "passed", "failed",
                                    "worst_rel_error")}


def _emit_records(records, summary, output) -> None:
    if output == "jsonl":
        sys.stdout.write(records_to_jsonl(records))
        print(json.dumps({"summary": _summary_payload(summary)},
                         sort_keys=True))
    elif output == "csv":
        sys.stdout.write(records_to_csv(records))
        print(json.dumps({"summary": _summary_payload(summary)},
                         sort_keys=True), file=sys.stderr)
    else:
        for rec in records:
            verdict = "PASS" if rec.passed else "FAIL"
            print(f"{verdict} {rec.check_name} {rec.model_id} "
                  f"{json.dumps(rec.inputs, sort_keys=True)} "
                  f"rel={rec.rel_error:.3e} tol={rec.tolerance:.1e}")
        s = _summary_payload(summary)
        print(f"summary: total={s['total']} passed={s['passed']} "
              f"failed={s['failed']}")


def cmd_verify(args, tolerances) -> int:
    if args.model == "all":
        for attr in ("nu", "a", "head_count", "z_max"):
            if getattr(args, attr, None) is not None:
                raise DomainError(f"--{attr.replace('_', '-')} needs a "
                                  "specific --model, not 'all'")
        models = default_fleet()
    else:
        models = [_model_from_args(args)]
    grid = _grid_from_args(args)
    summary = run_all(models, grid, seed=args.seed, tolerances=tolerances)
    _emit_records(summary["records"], summary, args.output)
    return 3 if summary["failed"] else 0


def cmd_zeros(args, tolerances) -> int:
    if args.model == "k-order" and args.head_count is None:
        args.head_count = max(8, min(args.count, 32))
    model = _model_from_args(args)
    head = model.zeros().head
    if args.count < 1:
        raise DomainError("--count must be at least 1")
    if args.count > head.size:
        raise DomainError(
            f"model {model.model_id!r} exposes {head.size} zeros, "
            f"requested {args.count}")
    zeros = head[:args.count]
    running = (1.0 / zeros).cumsum()
    if args.output == "json":
        print(json.dumps({
            "model_id": model.model_id,
            "zeros": [float(z) for z in zeros],
            "reciprocal_sums": [float(s) for s in running],
        }, sort_keys=True))
    elif args.output == "csv":
        print("n,zero,reciprocal_sum")
        for n, (z, s) in enumerate(zip(zeros, running), start=1):
            print(f"{n},{float(z)!r},{float(s)!r}")
    else:
        print(f"{'n':>6}  {'z_n':>20}  {'sum 1/z_n':>16}")
        for n, (z, s) in enumerate(zip(zeros, running), start=1):
            print(f"{n:6d}  {z:20.10f}  {s:16.10f}")
    return 0


def cmd_identity(args, tolerances) -> int:
    model = _model_from_args(args)
    if args.rho:
        rhos = _float_list(args.rho, "--rho")
    else:
        rhos = None
    records = run_identity_suite(model, rhos, tolerances=tolerances)
    failed = sum(1 for r in records if not r.passed)
    worst = {}
    for rec in records:
        worst[rec.check_name] = max(worst.get(rec.check_name, 0.0),
                                    rec.rel_error)
    summary = {"total": len(records), "passed": len(records) - failed,
               "failed": failed,
               "worst_rel_error": {k: worst[k] for k in sorted(worst)}}
    _emit_records(records, summary, args.output)
    return 3 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g0bound",
        description="Half-plane growth bounds for genus-0 entire functions "
                    "with negative zeros.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, allow_all=False):
        choices = MODEL_NAMES + (("all",) if allow_all else ())
        p.add_argument("--model", required=not allow_all,
                       default="all" if allow_all else None, choices=choices)
        p.add_argument("--nu", type=float, default=None,
                       help="order parameter (bessel-i only)")
        p.add_argument("--a", type=float, default=None,
                       help="argument parameter (k-order only)")
        p.add_argument("--head-count", type=int, default=None,
                       help="explicitly enumerated leading zeros")
        p.add_argument("--z-max", type=float, default=None,
                       help="radius the zero head must cover")

    p_bound = sub.add_parser("bound", help="bound report at one point")
    add_model_flags(p_bound)
    p_bound.add_argument("--z", required=True,
                         help="evaluation point, e.g. 1+2i")
    p_bound.add_argument("--rho", default=None,
                         help="order parameter in (rho0,1), or 'opt'")
    p_bound.add_argument("--output", choices=("text", "json", "csv"),
                         default="text")
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="run all verification suites")
    add_model_flags(p_verify, allow_all=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--radii", default=None,
                          help="comma-separated grid radii")
    p_verify.add_argument("--angles", default=None,
                          help="comma-separated grid angles (radians)")
    p_verify.add_argument("--rhos", default=None,
                          help="comma-separated rho entries "
                               "(numbers, midpoint, optimized)")
    p_verify.add_argument("--output", choices=("text", "jsonl", "csv"),
                          default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_zeros = sub.add_parser("zeros", help="leading zeros of the profile")
    add_model_flags(p_zeros)
    p_zeros.add_argument("--count", type=int, default=10)
    p_zeros.add_argument("--output", choices=("text", "json", "csv"),
                         default="text")
    p_zeros.set_defaults(func=cmd_zeros)

    p_ident = sub.add_parser("identity", help="transform-identity records")
    add_model_flags(p_ident)
    p_ident.add_argument("--rho", default=None,
                         help="comma-separated list of orders to test")
    p_ident.add_argument("--output", choices=("text", "jsonl", "csv"),
                         default="text")
    p_ident.set_defaults(func=cmd_identity)
    return parser


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        raw, tolerances = _extract_tolerance_overrides(raw)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser()
    args = parser.parse_args(raw)
    start = time.perf_counter()
    try:
        return args.func(args, tolerances)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except G0BoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
