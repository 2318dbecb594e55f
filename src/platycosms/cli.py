"""Command-line front end.

Subcommands: spectrum, geodesics, balance, heat-trace, verify, exercise.
Spaces are chosen by preset name (--space/--left/--right), by JSON space
file (--space-file or a path given to --space), or, for spectra only, by
circle circumference (--circle).

Exit codes: 0 success; 1 a verification subcommand found a mismatch;
2 usage or input errors.  Output is deterministic byte-for-byte for a
fixed invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import PlatycosmError, abridged
from .euclid import PRESET_NAMES, _numeral, load_space_file, preset
from .geodesics import balance_table, balance_to_csv, classes_to_csv, twisted_classes, weight
from .linalg import fraction_to_str
from .selberg import exercise_identity_sides, heat_trace_csv, heat_trace_rows
from .spectrum import circle_spectrum, is_isospectral, spectrum_table

DEFAULT_T_GRID = (0.05, 0.1, 0.2, 0.5, 1.0)


def _resolve_space(name: str | None, path: str | None):
    if (name is None) == (path is None):
        raise PlatycosmError("choose a space by preset name or by --space-file")
    if path is not None:
        return load_space_file(path)
    if name in PRESET_NAMES:
        return preset(name)
    if os.path.exists(name):
        return load_space_file(name)
    raise PlatycosmError(
        f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
    )


def _space_label(name: str | None, path: str | None) -> str:
    return name if name is not None else os.path.basename(str(path))


def _emit(text: str):
    sys.stdout.write(text)


def _emit_json(payload) -> None:
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _t_values(args) -> list[float]:
    if args.t is not None and args.t_grid is not None:
        raise PlatycosmError("give either --t or --t-grid, not both")
    if args.t is not None:
        return [args.t]
    if args.t_grid is not None:
        try:
            values = [float(x) for x in args.t_grid.split(",") if x.strip()]
        except ValueError as exc:
            raise PlatycosmError(f"bad --t-grid: {abridged(args.t_grid)!r}") from exc
        if not values:
            raise PlatycosmError("--t-grid is empty")
        return values
    return list(DEFAULT_T_GRID)


def _abridging(parse):
    """`parse` as an argparse type whose usage error is argparse's own
    "invalid <name> value" with the value abridged, so that a huge
    argument leaves one short line."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                f"invalid {parse.__name__} value: {abridged(text)!r}"
            ) from exc
    return convert


def _positive_fraction(text: str) -> Fraction:
    """A positive rational, read by the space files' numeral reader.  A
    numeral past its digit limit is refused before any large integer is
    built, as a budget refusal that `main` reports like any other."""
    value = _numeral(text)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _cmd_spectrum(args) -> int:
    if args.circle is not None:
        if args.space is not None or args.space_file is not None:
            raise PlatycosmError("--circle excludes --space/--space-file")
        table = circle_spectrum(args.circle, args.max_key)
    else:
        space = _resolve_space(args.space, args.space_file)
        table = spectrum_table(space, args.max_key)
    if args.format == "csv":
        _emit(table.to_csv())
    else:
        _emit_json(table.to_json_dict())
    return 0


def _cmd_geodesics(args) -> int:
    space = _resolve_space(args.space, args.space_file)
    classes = twisted_classes(space, args.max_length)
    if args.format == "csv":
        _emit(classes_to_csv(classes))
        return 0
    _emit_json(
        {
            "space": _space_label(args.space, args.space_file),
            "max_length": fraction_to_str(args.max_length),
            "classes": [
                {
                    "length": fraction_to_str(c.length),
                    "twist_over_pi": fraction_to_str(c.twist_over_pi),
                    "imprimitivity": c.imprimitivity,
                    "count": c.count,
                    "weight": fraction_to_str(weight(c)),
                }
                for c in classes
            ],
        }
    )
    return 0


def _balance_row_dict(row) -> dict:
    return {
        "entries": [
            {
                "n": e.count,
                "t": fraction_to_str(e.twist_turns),
                "k": e.imprimitivity,
                "w": fraction_to_str(e.weight),
            }
            for e in row.entries
        ],
        "w_l": fraction_to_str(row.total),
    }


def _cmd_balance(args) -> int:
    left = _resolve_space(args.left, args.left_file)
    right = _resolve_space(args.right, args.right_file)
    pairs = balance_table(left, right, args.max_length)
    balanced = all(p.balanced for p in pairs)
    left_name = _space_label(args.left, args.left_file)
    right_name = _space_label(args.right, args.right_file)
    if args.format == "csv":
        _emit(balance_to_csv(pairs, left_name, right_name))
    else:
        _emit_json(
            {
                "left": left_name,
                "right": right_name,
                "max_length": fraction_to_str(args.max_length),
                "balanced": balanced,
                "rows": [
                    {
                        "l": fraction_to_str(p.length),
                        "left": _balance_row_dict(p.left),
                        "right": _balance_row_dict(p.right),
                        "balanced": p.balanced,
                    }
                    for p in pairs
                ],
            }
        )
    return 0 if balanced else 1


def _cmd_heat_trace(args) -> int:
    space = _resolve_space(args.space, args.space_file)
    t_values = _t_values(args)
    if args.format == "csv":
        _emit(heat_trace_csv(space, t_values, args.eps))
        return 0
    rows = heat_trace_rows(space, t_values, args.eps)
    _emit_json(
        {
            "space": _space_label(args.space, args.space_file),
            "eps": args.eps,
            "rows": [
                {
                    "t": t,
                    "spectral": sp,
                    "geometric": ge,
                    "abs_diff": diff,
                    "bound": bound,
                }
                for t, sp, ge, diff, bound in rows
            ],
        }
    )
    return 0


def _cmd_verify(args) -> int:
    left = _resolve_space(args.left, args.left_file)
    right = _resolve_space(args.right, args.right_file)
    verdict = is_isospectral(left, right, args.max_key)
    if args.format == "csv":
        lines = [
            "verdict,max_key,first_differing_key,left_multiplicity,right_multiplicity"
        ]
        d = verdict.to_json_dict()
        lines.append(
            ",".join(
                "" if d[k] is None else str(d[k])
                for k in (
                    "verdict",
                    "max_key",
                    "first_differing_key",
                    "left_multiplicity",
                    "right_multiplicity",
                )
            )
        )
        _emit("\n".join(lines) + "\n")
    else:
        _emit_json(verdict.to_json_dict())
    return 0 if verdict.equal else 1


def _cmd_exercise(args) -> int:
    t_values = _t_values(args)
    rows = []
    for t in t_values:
        lhs, rhs, bound = exercise_identity_sides(t, args.eps)
        rows.append((t, lhs, rhs, lhs - rhs, bound))
    if args.format == "csv":
        lines = ["t,lhs,rhs,residual,bound"]
        lines.extend(
            f"{t:.17g},{lhs:.17g},{rhs:.17g},{res:.17g},{bound:.17g}"
            for t, lhs, rhs, res, bound in rows
        )
        _emit("\n".join(lines) + "\n")
    else:
        _emit_json(
            {
                "eps": args.eps,
                "rows": [
                    {"t": t, "lhs": lhs, "rhs": rhs, "residual": res, "bound": bound}
                    for t, lhs, rhs, res, bound in rows
                ],
            }
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platycosm",
        description="Spectra, twisted geodesics, and heat traces of "
        "compact flat 3-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_single_space(p):
        p.add_argument("--space", help="preset name or space-file path")
        p.add_argument("--space-file", help="JSON space file")

    def add_pair(p):
        p.add_argument("--left", help="preset name or space-file path")
        p.add_argument("--left-file", help="JSON space file for the left space")
        p.add_argument("--right", help="preset name or space-file path")
        p.add_argument("--right-file", help="JSON space file for the right space")

    p = sub.add_parser("spectrum", help="exact Laplace spectrum table")
    add_single_space(p)
    p.add_argument("--circle", type=_abridging(_positive_fraction), metavar="C",
                   help="spectrum of the circle of circumference C instead")
    p.add_argument("--max-key", type=_abridging(int), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("geodesics", help="twisted closed geodesic classes")
    add_single_space(p)
    p.add_argument("--max-length", type=_abridging(_positive_fraction), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_geodesics)

    p = sub.add_parser("balance", help="side-by-side spectral weights per length")
    add_pair(p)
    p.add_argument("--max-length", type=_abridging(_positive_fraction), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("heat-trace", help="spectral vs geometric heat trace")
    add_single_space(p)
    p.add_argument("--t", type=_abridging(float))
    p.add_argument("--t-grid", help="comma-separated times")
    p.add_argument("--eps", type=_abridging(float), default=1e-10)
    add_format(p)
    p.set_defaults(func=_cmd_heat_trace)

    p = sub.add_parser("verify", help="exact isospectrality check")
    add_pair(p)
    p.add_argument("--max-key", type=_abridging(int), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exercise", help="four-trace circle identity residuals")
    p.add_argument("--t", type=_abridging(float))
    p.add_argument("--t-grid", help="comma-separated times")
    p.add_argument("--eps", type=_abridging(float), default=1e-12)
    add_format(p)
    p.set_defaults(func=_cmd_exercise)

    return parser


# built by the first main() call, not at import; parse_args leaves it unchanged
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        # inside the try: an over-long numeral is refused while parsing
        args = _parser.parse_args(argv)
        return args.func(args)
    except (PlatycosmError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
