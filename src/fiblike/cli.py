"""Command-line front end: term generation, identity verification, root
analysis, and ratio-limit reports.

Four subcommands: ``gen``, ``verify``, ``root``, ``limit``.  Global flags
``--precision`` (decimal digits, >= 15), ``--output`` (plain/json/csv) and
``--seed`` (for randomized verification batches) may appear after the
subcommand.  Rational arguments accept decimal and p/q forms ("0.2",
"3/10"); they are parsed exactly, never through binary floating point.

``verify`` takes every per-identity fact from
:data:`fiblike.identities.IDENTITIES`; an identity is one entry there.

Exit codes are a stable scripting contract: 0 on success (and when every
checked identity instance holds), 1 when a verification run finds a
counterexample to the printed formula, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp

from . import identities
from .charpoly import (
    RootConvergenceError,
    _to_mpf,
    all_roots,
    charpoly_of,
    rootset_to_dict,
    wu_zhang_ordered,
)
from .convergence import ratio_limit, report_to_csv, report_to_dict
from .rationals import as_rational, format_rational, parse_rational_list
from .sequences import (
    PeriodicSpec,
    RecurrenceSpec,
    SequenceSpec,
    horadam_spec,
    knacci_spec,
    load_spec,
    periodic_spec,
    terms,
)

__all__ = ["CliConfig", "build_parser", "main", "run"]

@dataclass(frozen=True)
class CliConfig:
    precision: int = 50
    output: str = "plain"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.precision < 15:
            raise ValueError(f"--precision must be >= 15, got {self.precision}")
        if self.output not in ("plain", "json", "csv"):
            raise ValueError(f"--output must be plain, json, or csv, got {self.output!r}")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--precision", type=int, default=50, help="working decimal digits (>= 15)")
    parser.add_argument(
        "--output", choices=("plain", "json", "csv"), default="plain", help="output format"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized verification")


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--knacci", type=int, metavar="K", help="k-step Fibonacci basis of order K")
    parser.add_argument("--coeffs", metavar="LIST", help="constant coefficients q1,..,qk")
    parser.add_argument("--periodic2", metavar="A,B", help="2-periodic leading coefficients")
    parser.add_argument("--periodic", metavar="LIST", help="k-periodic leading coefficients")
    parser.add_argument("--spec", metavar="FILE", help="JSON spec file")
    parser.add_argument("--inits", metavar="LIST", help="initial terms (defaults to the 0,..,0,1 basis)")


def _spec_from_args(args: argparse.Namespace) -> SequenceSpec:
    sources = [s for s in ("knacci", "coeffs", "periodic2", "periodic", "spec") if getattr(args, s) is not None]
    if len(sources) != 1:
        raise ValueError("give exactly one of --knacci/--coeffs/--periodic2/--periodic/--spec")
    inits = parse_rational_list(args.inits) if args.inits else None
    if args.knacci is not None:
        if inits is not None:
            return RecurrenceSpec(k=args.knacci, coeffs=(Fraction(1),) * args.knacci, inits=inits)
        return knacci_spec(args.knacci)
    if args.coeffs is not None:
        coeffs = parse_rational_list(args.coeffs)
        if inits is not None:
            return RecurrenceSpec(k=len(coeffs), coeffs=coeffs, inits=inits)
        return horadam_spec(len(coeffs), coeffs)
    if args.periodic2 is not None:
        leading = parse_rational_list(args.periodic2)
        if len(leading) != 2:
            raise ValueError("--periodic2 expects exactly two values, e.g. 0.2,0.3")
        return periodic_spec(leading, inits if inits is not None else (0, 1))
    if args.periodic is not None:
        leading = parse_rational_list(args.periodic)
        if inits is None:
            inits = (Fraction(0),) * (len(leading) - 1) + (Fraction(1),)
        return periodic_spec(leading, inits)
    with open(args.spec, "r", encoding="utf-8") as fh:
        return load_spec(fh.read())


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# ----------------------------------------------------------------- gen ----


def _cmd_gen(args: argparse.Namespace, config: CliConfig) -> int:
    spec = _spec_from_args(args)
    start, end = args.start, args.end
    if start < 0 or end < start:
        raise ValueError(f"need 0 <= from <= to, got from={start} to={end}")
    values = terms(spec, end + 1)[start:]
    rendered = [format_rational(v) for v in values]
    if config.output == "json":
        _emit_json({"command": "gen", "from": start, "to": end, "values": rendered})
    elif config.output == "csv":
        print("n,value")
        for n, v in enumerate(rendered, start=start):
            print(f"{n},{v}")
    else:
        for n, v in enumerate(rendered, start=start):
            print(f"{n}\t{v}")
    return 0


# -------------------------------------------------------------- verify ----


# Parses each ``verify`` parameter flag into the value an identity case holds.
_PARAM_PARSERS = {
    "k": int,
    **dict.fromkeys(("inits", "coeffs", "leading"), parse_rational_list),
    **dict.fromkeys(("a", "b", "c"), as_rational),
}


def _case_from_flags(args: argparse.Namespace, entry: identities.IdentityEntry) -> Optional[dict]:
    flags = {name: getattr(args, name) for name in entry.params}
    if any(flags[name] is None for name in entry.params if name not in entry.defaults):
        return None
    given = {name: _PARAM_PARSERS[name](text) for name, text in flags.items() if text is not None}
    return {name: given[name] if name in given else entry.defaults[name](**given) for name in entry.params}


def _format_case(case: dict) -> str:
    parts = []
    for key, value in case.items():
        if isinstance(value, tuple):
            parts.append(f"{key}={','.join(format_rational(v) for v in value)}")
        elif isinstance(value, Fraction):
            parts.append(f"{key}={format_rational(value)}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise ValueError(f"malformed range {text!r}; expected LO..HI") from exc
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _cmd_verify(args: argparse.Namespace, config: CliConfig) -> int:
    identity = args.identity
    entry = identities.IDENTITIES[identity]
    rng = random.Random(config.seed)
    cases = []
    explicit = _case_from_flags(args, entry)
    if explicit is not None:
        cases.append(("flags", explicit))
    for _ in range(args.trials):
        cases.append(("random", entry.random_case(rng)))
    if not cases:
        raise ValueError(
            f"no cases to check: supply parameters for {identity!r} or use --trials N"
        )

    requested = _parse_range(args.n) if args.n else None
    formulas = entry.variants
    case_rows = []
    totals = {f: {"checks": 0, "failures": 0, "first_counterexample": None} for f in formulas}
    for index, (origin, case) in enumerate(cases, start=1):
        minimum = entry.min_index(**case)
        if requested is None:
            lo, hi = minimum, minimum + 48
        else:
            lo, hi = max(requested[0], minimum), max(requested[1], minimum)
        row = {"case": index, "origin": origin, "params": _format_case(case), "n_lo": lo, "n_hi": hi}
        results = {}
        for formula in formulas:
            checks = failures = 0
            first = None
            failing_n = []
            for n in range(lo, hi + 1):
                witness = entry.witness(n, formula, **case)
                checks += 1
                if not witness.holds:
                    failures += 1
                    failing_n.append(n)
                    if first is None:
                        first = {
                            "n": n,
                            "lhs": format_rational(witness.lhs),
                            "rhs": format_rational(witness.rhs),
                        }
            results[formula] = {
                "checks": checks,
                "failures": failures,
                "failing_n": failing_n,
                "first_counterexample": first,
            }
            totals[formula]["checks"] += checks
            totals[formula]["failures"] += failures
            if totals[formula]["first_counterexample"] is None and first is not None:
                totals[formula]["first_counterexample"] = {"case": index, **first}
        row["results"] = results
        case_rows.append(row)

    verdicts = {
        f: ("holds" if totals[f]["failures"] == 0 else "refuted") for f in formulas
    }
    all_hold = totals[formulas[0]]["failures"] == 0  # exit code follows the printed formula

    if config.output == "json":
        _emit_json(
            {
                "command": "verify",
                "identity": identity,
                "seed": config.seed,
                "cases": case_rows,
                "totals": totals,
                "verdicts": verdicts,
                "all_hold": all_hold,
            }
        )
    elif config.output == "csv":
        print("case,formula,checks,failures,first_counterexample_n")
        for row in case_rows:
            for formula, res in row["results"].items():
                first = res["first_counterexample"]
                print(
                    f"{row['case']},{formula},{res['checks']},{res['failures']},"
                    f"{first['n'] if first else ''}"
                )
    else:
        print(f"verify {identity}: {len(cases)} case(s)")
        for row in case_rows:
            print(f"  case {row['case']} [{row['origin']}]: {row['params']} n={row['n_lo']}..{row['n_hi']}")
            for formula, res in row["results"].items():
                if res["failures"] == 0:
                    print(f"    {formula}: holds {res['checks']}/{res['checks']}")
                else:
                    first = res["first_counterexample"]
                    print(
                        f"    {formula}: FAILS {res['failures']}/{res['checks']}, first at "
                        f"n={first['n']}: lhs={first['lhs']} rhs={first['rhs']}"
                    )
        for formula in formulas:
            total = totals[formula]
            if total["failures"] == 0:
                print(f"verdict[{formula}]: HOLDS ({total['checks']} checks, 0 failures)")
            else:
                first = total["first_counterexample"]
                print(
                    f"verdict[{formula}]: REFUTED ({total['failures']}/{total['checks']} failures, "
                    f"first counterexample: case {first['case']}, n={first['n']}, "
                    f"lhs={first['lhs']}, rhs={first['rhs']})"
                )
    return 0 if all_hold else 1


# ---------------------------------------------------------------- root ----


def _cmd_root(args: argparse.Namespace, config: CliConfig) -> int:
    spec = _spec_from_args(args)
    if isinstance(spec, PeriodicSpec):
        raise ValueError("root analysis needs a constant-coefficient spec; periodic specs have none")
    poly = charpoly_of(spec)
    roots = all_roots(poly, config.precision)
    ordered = wu_zhang_ordered(poly)
    q1 = poly.coeffs[0]
    with mp.workdps(config.precision):
        bracket_ok = ordered and _to_mpf(q1) < roots.dominant < _to_mpf(q1 + 1)
    payload = rootset_to_dict(roots, config.precision)
    payload = {
        "command": "root",
        "polynomial": str(poly),
        "ordered_coefficients": ordered,
        "bracket": [format_rational(q1), format_rational(q1 + 1)] if ordered else None,
        "bracket_ok": bracket_ok if ordered else None,
        **payload,
    }
    if config.output == "json":
        _emit_json(payload)
    elif config.output == "csv":
        print("re,im,modulus")
        print(f"{mp.nstr(roots.dominant, config.precision)},0,{mp.nstr(roots.dominant, config.precision)}")
        for entry in payload["others"]:
            print(f"{entry['re']},{entry['im']},{entry['modulus']}")
    else:
        print(f"polynomial: {payload['polynomial']}")
        print(f"dominant: {payload['dominant']}")
        if ordered:
            lo, hi = payload["bracket"]
            print(f"bracket ({lo}, {hi}): {'inside' if bracket_ok else 'OUTSIDE'}")
        for entry in payload["others"]:
            print(f"other: re={entry['re']} im={entry['im']} modulus={entry['modulus']}")
        print(f"max non-dominant modulus: {payload['moduli_bound']}")
        print(f"residual: {payload['residual']}")
        print(f"non-dominant roots inside unit circle: {roots.inside_unit_circle}")
    return 0


# --------------------------------------------------------------- limit ----


def _cmd_limit(args: argparse.Namespace, config: CliConfig) -> int:
    spec = _spec_from_args(args)
    report = ratio_limit(
        spec, step=args.step, subsequence=args.sub, n_max=args.nmax, precision=config.precision
    )
    if config.output == "json":
        _emit_json(
            {
                "command": "limit",
                "subsequence": args.sub,
                "step": args.step,
                **report_to_dict(report, config.precision),
            }
        )
    elif config.output == "csv":
        sys.stdout.write(report_to_csv(report, config.precision))
    else:
        print(f"samples: {len(report.samples)} (subsequence={args.sub}, step={args.step})")
        print(f"estimate: {mp.nstr(report.estimate, config.precision)}")
        if report.reference is not None:
            print(f"reference: {mp.nstr(report.reference, config.precision)}")
            print(f"gap: {mp.nstr(report.gap, config.precision)}")
        else:
            print("reference: none (no analytic limit for this family/subsequence)")
        print(f"monotone tail: {report.monotone_tail}")
    return 0


# ---------------------------------------------------------------- main ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiblike",
        description="Exact k-step Fibonacci / Horadam / periodic recurrence toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser("gen", help="generate exact terms")
    _add_common_flags(gen)
    _add_spec_flags(gen)
    gen.add_argument("--from", dest="start", type=int, default=0, metavar="N0")
    gen.add_argument("--to", dest="end", type=int, required=True, metavar="N1")
    gen.set_defaults(handler=_cmd_gen)

    verify = subparsers.add_parser(
        "verify",
        help="check a decomposition identity over an index range",
        description=(
            "Check one identity over an index range, on explicit parameters and/or "
            "--trials random cases.  For periodic-k both the printed shift indexing "
            "and the shift-from-zero variant are checked; the exit code follows the "
            "printed formula only."
        ),
    )
    _add_common_flags(verify)
    verify.add_argument("identity", choices=tuple(identities.IDENTITIES))
    verify.add_argument("--k", type=int, help="order (knacci-like / horadam-like)")
    verify.add_argument("--coeffs", metavar="LIST", help="coefficients q1,..,qk (horadam-like)")
    verify.add_argument("--inits", metavar="LIST", help="initial terms")
    verify.add_argument("--a", metavar="Q", help="first leading coefficient")
    verify.add_argument("--b", metavar="Q", help="second leading coefficient")
    verify.add_argument("--c", metavar="Q", help="third leading coefficient (periodic3)")
    verify.add_argument("--leading", metavar="LIST", help="leading coefficients (periodic-k)")
    verify.add_argument(
        "--n", metavar="LO..HI", help="index range; LO is clamped to the identity's minimum"
    )
    verify.add_argument("--trials", type=int, default=0, help="additional random cases")
    verify.set_defaults(handler=_cmd_verify)

    root = subparsers.add_parser("root", help="dominant root and full spectrum")
    _add_common_flags(root)
    _add_spec_flags(root)
    root.set_defaults(handler=_cmd_root)

    limit = subparsers.add_parser("limit", help="successive-ratio convergence report")
    _add_common_flags(limit)
    _add_spec_flags(limit)
    limit.add_argument("--sub", choices=("all", "even", "odd"), default="all")
    limit.add_argument("--step", type=int, default=1)
    limit.add_argument("--nmax", type=int, default=None)
    limit.set_defaults(handler=_cmd_limit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = CliConfig(precision=args.precision, output=args.output, seed=args.seed)
        return args.handler(args, config)
    except (ValueError, TypeError, OSError, RootConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
