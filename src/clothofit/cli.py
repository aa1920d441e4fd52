"""Command line interface: fit, sample, svg, bench, grid-stats.

Exit codes: 0 success, 1 `bench` found a case outside its bounds
(`all_within_bounds NO`), 2 bad arguments or an `--out` path that cannot
be written, 3 degenerate input (coincident endpoints, or a chord length
whose square over- or underflows), 4 excluded angle configuration, 5
non-convergence, 6 any other fit failure (an internal consistency check
on the solution).
"""

import argparse
import json
import math
import sys
import time
from collections import Counter

from .errors import ConvergenceError, DegenerateInputError, ExcludedAngleError, FitError
from .fitter import (
    DEFAULT_GUESS,
    GUESS_VARIANTS,
    HermiteData,
    ReducedProblem,
    build_clothoid,
    solve_A,
)

__all__ = ["main"]

# Reference fit problems exercised by `bench`.  The first six cover
# generic arcs; the two parametric families drive the solver into the
# near-line and near-circle regimes where the series evaluator matters.
BENCH_TESTS = (
    ("test-1", (5.0, 4.0, math.pi / 3.0, 5.0, 6.0, 7.0 * math.pi / 6.0)),
    ("test-2", (3.0, 5.0, 2.14676, 6.0, 5.0, 2.86234)),
    ("test-3", (3.0, 6.0, 3.05433, 6.0, 6.0, 3.14159)),
    ("test-4", (3.0, 6.0, 0.08727, 6.0, 6.0, 3.05433)),
    ("test-5", (5.0, 4.0, 0.34907, 4.0, 5.0, 4.48550)),
    ("test-6", (4.0, 4.0, 0.52360, 5.0, 5.0, 4.66003)),
)


def bench_near_line_case(k):
    return (0.0, 0.0, 0.01 * 2.0 ** -k, 100.0, 0.0, -0.02 * 2.0 ** -k)


def bench_near_circle_case(k):
    return (0.0, -100.0, 0.00011 * 2.0 ** -k,
            -100.0, 0.0, 1.5 * math.pi - 0.0001 * 2.0 ** -k)


BENCH_MAX_ITER = {"arc": 5, "regime": 4}
BENCH_MAX_ERROR = 1e-12

GRID_ANGLE_LIMIT = 0.9999 * math.pi

POSE_FLAGS = ("x0", "y0", "theta0", "x1", "y1", "theta1")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="clothofit",
        description="Fit a single clothoid segment through two poses "
                    "(positions plus tangent angles) and export the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, text in (("fit", cmd_fit, "solve one fit and print a JSON record"),
                            ("sample", cmd_sample, "fit, then tabulate poses along the curve"),
                            ("svg", cmd_svg, "fit, then render the curve as an SVG plot")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        for flag in POSE_FLAGS:
            p.add_argument("--" + flag, type=float, required=True)
        p.add_argument("--guess", choices=GUESS_VARIANTS,
                       default=DEFAULT_GUESS, help="initial guess variant")

    p = sub.choices["sample"]
    p.add_argument("--n", type=int, default=100, help="number of rows (>= 2)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.choices["svg"]
    p.add_argument("--n", type=int, default=100, help="polyline vertices (>= 2)")
    p.add_argument("--width", type=float, default=800.0)
    p.add_argument("--height", type=float, default=600.0)

    p = sub.add_parser("bench", help="run the built-in reference problems")
    p.set_defaults(run=cmd_bench)

    p = sub.add_parser("grid-stats",
                       help="histogram of Newton iteration counts over an angle grid")
    p.set_defaults(run=cmd_grid_stats)
    p.add_argument("--grid-n", type=int, default=64, help="grid points per axis (>= 2)")
    p.add_argument("--guess", choices=GUESS_VARIANTS,
                   default=DEFAULT_GUESS, help="initial guess variant")

    # added last so that it closes every subcommand's --help
    for p in sub.choices.values():
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output file (default: stdout)")
    return parser


def _fit(args):
    data = HermiteData(*[getattr(args, flag) for flag in POSE_FLAGS])
    return build_clothoid(data, guess=args.guess)


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_fit(args):
    result = _fit(args)
    record = {
        "kappa": result.curve.kappa,
        "kappa_prime": result.curve.kappa_prime,
        "L": result.curve.L,
        "A": result.A,
        "iterations": result.iterations,
        "residual_g": result.residual_g,
        "endpoint_error": result.endpoint_error,
    }
    _emit(json.dumps(record) + "\n", args.out)
    return 0


def _sample_rows(args):
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    curve = _fit(args).curve
    step = curve.L / (args.n - 1)
    # the s column matches curve.sample's rows: uniform steps, then L itself
    s = [i * step for i in range(args.n - 1)] + [curve.L]
    return [(si,) + pose for si, pose in zip(s, curve.sample(args.n))]


def cmd_sample(args):
    rows = _sample_rows(args)
    if args.format == "csv":
        lines = ["s,x,y,theta,kappa"]
        lines += [",".join(repr(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        keys = ("s", "x", "y", "theta", "kappa")
        text = json.dumps([dict(zip(keys, row)) for row in rows]) + "\n"
    _emit(text, args.out)
    return 0


def cmd_svg(args):
    if not (0.0 < args.width < math.inf and 0.0 < args.height < math.inf):
        raise ValueError("--width and --height must be positive and finite")
    rows = _sample_rows(args)
    xs = [r[1] for r in rows]
    ys = [r[2] for r in rows]
    xmin, ymin = min(xs), min(ys)
    span_x, span_y = max(xs) - xmin, max(ys) - ymin
    margin = 0.05 * min(args.width, args.height)
    # uniform scale preserves the curve's aspect ratio; a chord of zero
    # extent along one axis is scaled by the other alone
    scale = min([(extent - 2.0 * margin) / span
                 for extent, span in ((args.width, span_x), (args.height, span_y))
                 if span > 0.0], default=1.0)
    off_x = 0.5 * (args.width - span_x * scale)
    off_y = 0.5 * (args.height - span_y * scale)
    pixels = [(off_x + (x - xmin) * scale, args.height - (off_y + (y - ymin) * scale))
              for x, y in zip(xs, ys)]
    points = " ".join("%.6f,%.6f" % px for px in pixels)
    text = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%.6f" height="%.6f" viewBox="0 0 %.6f %.6f">\n'
        '  <polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="%s"/>\n'
        '  <circle cx="%.6f" cy="%.6f" r="3" fill="#2ca02c"/>\n'
        '  <circle cx="%.6f" cy="%.6f" r="3" fill="#d62728"/>\n'
        "</svg>\n"
        % (args.width, args.height, args.width, args.height, points, *pixels[0], *pixels[-1])
    )
    _emit(text, args.out)
    return 0


def _grid_histogram(grid_n, guess):
    lo = -GRID_ANGLE_LIMIT
    span = GRID_ANGLE_LIMIT - lo
    angles = [lo + span * i / (grid_n - 1) for i in range(grid_n)]
    return Counter(solve_A(ReducedProblem(1.0, phi0, phi1), guess)[1]
                   for phi0 in angles for phi1 in angles)


def cmd_grid_stats(args):
    if args.grid_n < 2:
        raise ValueError("--grid-n must be at least 2")
    t0 = time.perf_counter()
    hist = _grid_histogram(args.grid_n, args.guess)
    elapsed = time.perf_counter() - t0
    total = args.grid_n * args.grid_n
    lines = [
        "grid %dx%d, guess %s" % (args.grid_n, args.grid_n, args.guess),
        "iterations  count  percent",
    ]
    for it in sorted(hist):
        lines.append("%10d  %5d  %6.2f%%" % (it, hist[it], 100.0 * hist[it] / total))
    lines.append("max_iterations %d" % max(hist))
    lines.append("elapsed_s %.3f" % elapsed)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_bench(args):
    lines = ["case        iterations  endpoint_error  within_bounds"]
    all_ok = True
    cases = [(name, data, "arc") for name, data in BENCH_TESTS]
    cases += [("test-7-k%d" % k, bench_near_line_case(k), "regime") for k in range(1, 11)]
    cases += [("test-8-k%d" % k, bench_near_circle_case(k), "regime") for k in range(1, 11)]
    for name, data, kind in cases:
        result = build_clothoid(HermiteData(*data))
        ok = (result.iterations <= BENCH_MAX_ITER[kind]
              and result.endpoint_error <= BENCH_MAX_ERROR)
        all_ok = all_ok and ok
        lines.append("%-11s %10d  %14.3e  %s"
                     % (name, result.iterations, result.endpoint_error,
                        "yes" if ok else "NO"))
    lines.append("all_within_bounds %s" % ("yes" if all_ok else "NO"))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


def _attach_negative_values(argv):
    """Join '--name -1e-3' into '--name=-1e-3'.

    Some Python versions' argparse reads a negative number in exponent
    notation as an option flag; the '=' form is a value on all of them.
    """
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        try:
            float(arg)
            joins = (arg.startswith("-") and prev.startswith("--") and len(prev) > 2
                     and "=" not in prev)
        except ValueError:
            joins = False
        if joins:
            out[-1] = prev + "=" + arg
        else:
            out.append(arg)
    return out


# Exit code of each error main reports, first match wins: ConvergenceError
# covers SingularDerivativeError, and FitError any other fit failure.
_EXIT_CODES = (((ValueError, OSError), 2), (DegenerateInputError, 3),
               (ExcludedAngleError, 4), (ConvergenceError, 5), (FitError, 6))


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.run(args)
    except (FitError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
