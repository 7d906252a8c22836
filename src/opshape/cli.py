"""Command line interface.

Subcommands: analyze (full study), reduce (diagnostics only), vw (sign-blind
comparator only), synth (generate landmark CSVs), mc (CI coverage
calibration). Exit codes: 0 success; 2 usage, parse, schema or I/O error
(out-of-range options, such as an `mc --oracle-draws` above MAX_ORACLE_DRAWS,
unreadable or non-UTF-8 input, labels the data lacks, sizes too large for
memory such as `mc --reps 10000000000`); 3 geometric
degeneracy (a degenerate scene without --skip-degenerate, or no scene left
with it); 4 statistical degeneracy (always for a focal mean; for flagged
degenerate tests only under --strict). Errors print one line to
stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .errors import (
    BehindCamera,
    DegenerateFrame,
    DegeneratePoint,
    EmptySample,
    FocalMean,
    GenerationFailed,
    InvalidLandmark,
    InvalidLevel,
    ParseError,
    SchemaError,
)
# canonical_axis has no caller here; perfbench's tracer patches the name
from .geometry import FrameSpec, canonical_axis
from .io import parse_landmarks, write_json, write_landmarks
from .pipeline import (
    VW_BLOCK_KEYS,
    StudyConfig,
    emit_outputs,
    register_scenes,
    report_fields,
    run_analysis,
    run_monte_carlo,
    vw_fields,
    write_loo_table,
)
from .vw import total_variance_ps

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_STATISTICS = 4


def _labels(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _level(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    # above 2**-53, or 1 - value/2 rounds to 1 and the interval is infinite
    if not (0.0 < value < 1.0 and 1.0 - value / 2.0 < 1.0):
        raise argparse.ArgumentTypeError(f"must be in (2**-53, 1), got {text}")
    return value


# the largest integer option: a size this large already fails for lack of
# memory, and larger ones would overflow numpy's sizes and C longs
_MAX_INT = (2**53, "2**53")
# the most `mc --oracle-draws`: the oracle streams its draws in slices, so
# memory never bounds it, and 10^9 draws take about a minute at ~60 ns each
MAX_ORACLE_DRAWS = (10**9, "10**9")


def _at_least(low, convert=int, most=_MAX_INT):
    """argparse type: a finite number of type `convert`, at least `low`; an
    integer at most `most`, a (value, text) pair."""
    noun = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if convert is int and value > most[0]:
            raise argparse.ArgumentTypeError(f"must be at most {most[1]}, got {len(str(value))} digits")
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be >= {low} and finite, got {value}")
        return value

    return parse


def _add_frame_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--frame",
        type=_labels,
        default=(1, 2, 4, 3),
        help="ordered frame labels, comma-separated (default 1,2,4,3; last is the unit point)",
    )
    p.add_argument(
        "--remaining",
        type=_labels,
        default=(5,),
        help="labels registered on the sphere, comma-separated (default 5)",
    )


def _add_stat_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_level, default=0.05, help="CI/test level (default 0.05)")
    p.add_argument(
        "--alpha-ref", type=_level, default=0.05, help="reference level for the greedy reduction"
    )
    p.add_argument(
        "--df", type=_at_least(1), default=None, help="chi-square dof (default (d-1)*q)"
    )
    p.add_argument(
        "--max-removals",
        type=_at_least(0),
        default=None,
        help="greedy removal cap (default n // 4)",
    )
    p.add_argument(
        "--skip-degenerate",
        action="store_true",
        help="drop geometrically degenerate scenes instead of aborting",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 4 when the dispersion test is flagged degenerate",
    )


@functools.cache  # one parser per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opshape",
        description="Planarity analysis of labelled landmark scenes via oriented frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, does in (
        ("analyze", "full study: test, diagnostics, reduction, outputs"),
        ("reduce", "influence diagnostics and greedy reduction only"),
    ):
        p = sub.add_parser(name, help=does)
        p.add_argument("input", type=Path, help="landmark CSV (scene,landmark,x,y)")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        _add_frame_args(p)
        _add_stat_args(p)

    p = sub.add_parser("vw", help="sign-blind comparator dispersion only")
    p.add_argument("input", type=Path)
    p.add_argument("--out", type=Path, required=True, help="output JSON file")
    _add_frame_args(p)
    p.add_argument(
        "--skip-degenerate",
        action="store_true",
        help="drop geometrically degenerate scenes instead of aborting",
    )

    p = sub.add_parser("synth", help="generate synthetic landmark scenes")
    p.add_argument("--out", type=Path, required=True, help="output CSV file")
    p.add_argument("--k", type=_at_least(5), default=5, help="landmarks per scene (default 5)")
    p.add_argument(
        "--cameras", type=_at_least(1), default=20, help="number of views (default 20)"
    )
    p.add_argument(
        "--delta",
        type=_at_least(0, float),
        default=0.0,
        help="out-of-plane offset magnitude (default 0)",
    )
    p.add_argument(
        "--noise",
        type=_at_least(0, float),
        default=0.0,
        help="image-plane Gaussian noise sd (default 0)",
    )
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument(
        "--frame",
        type=_labels,
        default=(1, 2, 4, 3),
        help="frame labels kept exactly planar under --delta",
    )

    p = sub.add_parser("mc", help="Monte Carlo coverage of the dispersion CI")
    p.add_argument("--out", type=Path, required=True, help="output JSON file")
    p.add_argument(
        "--sigma", type=_at_least(0, float), default=0.1, help="tangent noise sd (default 0.1)"
    )
    p.add_argument("--n", type=_at_least(2), default=200, help="sample size per replication")
    p.add_argument("--reps", type=_at_least(1), default=1000, help="number of replications")
    p.add_argument("--alpha", type=_level, default=0.05, help="CI level")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument(
        "--oracle-draws",
        type=_at_least(1, most=MAX_ORACLE_DRAWS),
        default=1_000_000,
        help=f"draws for the population-dispersion oracle, at most {MAX_ORACLE_DRAWS[1]}",
    )
    return parser


def _print_summary(label: str, s) -> None:
    print(
        f"{label}: n={s.n} tS={s.total_variance:.6g} se={s.se:.6g} "
        f"ci=[{s.ci[0]:.6g}, {s.ci[1]:.6g}] T={s.t_stat:.6g} "
        f"p_normal={s.p_normal:.6g} p_chisq={s.p_chisq:.6g} "
        f"reject={'yes' if s.reject_ci else 'no'}"
        + (" [degenerate]" if s.degenerate else "")
    )


def _print_reduction(report) -> None:
    removed = ", ".join(report.trace.removed_scene_ids) or "none"
    print(f"reduction: removed [{removed}] ({report.trace.stopped_reason})")
    _print_summary("reduced", report.reduced)


def _study_config(args) -> StudyConfig:
    return StudyConfig(
        input_path=args.input,
        frame_labels=args.frame,
        remaining_labels=args.remaining,
        alpha=args.alpha,
        alpha_ref=args.alpha_ref,
        df=args.df,
        max_removals=args.max_removals,
        skip_degenerate=args.skip_degenerate,
    )


def _strict_exit(args, report) -> int:
    """EXIT_STATISTICS under --strict when the full or the reduced test is degenerate."""
    reduced = report.reduced
    if args.strict and (report.full.degenerate or (reduced is not None and reduced.degenerate)):
        print("strict: degenerate dispersion test", file=sys.stderr)
        return EXIT_STATISTICS
    return EXIT_OK


def _cmd_analyze(args) -> int:
    report = run_analysis(_study_config(args))
    paths = emit_outputs(report, args.out)
    _print_summary("full", report.full)
    if report.trace is not None:
        _print_reduction(report)
    print(f"wrote {paths['report']}")
    return _strict_exit(args, report)


def _cmd_reduce(args) -> int:
    report = run_analysis(_study_config(args))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fields = report_fields(report)
    kept = ("provenance", "config", "leave_one_out", "reduction", "reduced")
    write_json(outdir / "reduction.json", {key: fields[key] for key in kept})
    write_loo_table(report.loo, outdir / "loo_table.csv")
    if report.trace is not None:
        _print_reduction(report)
    else:
        print("reduction: skipped (fewer than 3 scenes)")
    print(f"wrote {outdir / 'reduction.json'}")
    return _strict_exit(args, report)


def _cmd_vw(args) -> int:
    """Comparator blocks of the registered units; no digest, no canonical axes.

    The vw output has no provenance, so the input is parsed without a
    sha256. Each block's units go to total_variance_ps as they are, a
    strided view of the sample: the projector x x' of -x is the projector
    of x, bit for bit, since a sign flip rounds no product, so the
    canonical signs analyze's axes carry would change no output byte.
    """
    scenes = parse_landmarks(args.input)
    spec = FrameSpec(args.frame, args.remaining)
    sample, skipped, _ = register_scenes(scenes, spec, args.skip_degenerate)
    blocks = []
    for f in range(sample.q):
        v = total_variance_ps(sample.units[:, f])
        blocks.append({"block": f, **vw_fields(v, VW_BLOCK_KEYS)})
        print(f"block {f}: tS_axial={v.total_variance:.6g} lambda1={v.top_eigenvalue:.6g}")
    payload = {"skipped_scenes": skipped, "blocks": blocks}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_json(args.out, payload)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    from .synth import synthesize_views

    views = synthesize_views(
        k=args.k,
        cameras=args.cameras,
        seed=args.seed,
        delta=args.delta,
        noise=args.noise,
        frame_labels=args.frame,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_landmarks(args.out, views)
    print(f"wrote {len(views)} scenes x {args.k} landmarks to {args.out}")
    return EXIT_OK


def _cmd_mc(args) -> int:
    result = run_monte_carlo(
        sigma=args.sigma,
        n=args.n,
        reps=args.reps,
        alpha=args.alpha,
        seed=args.seed,
        oracle_draws=args.oracle_draws,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_json(args.out, result)
    print(
        f"coverage {result['coverage']:.4f} ({result['hits']}/{result['reps']}) "
        f"oracle tS {result['oracle_total_variance']:.6g}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


_HANDLERS = {
    "analyze": _cmd_analyze,
    "reduce": _cmd_reduce,
    "vw": _cmd_vw,
    "synth": _cmd_synth,
    "mc": _cmd_mc,
}


# exit code of each error main reports
_EXIT_CODES = (
    (
        (ParseError, SchemaError, InvalidLandmark, InvalidLevel, OSError, MemoryError),
        EXIT_PARSE,
    ),
    (
        (DegenerateFrame, DegeneratePoint, EmptySample, BehindCamera, GenerationFailed),
        EXIT_GEOMETRY,
    ),
    ((FocalMean,), EXIT_STATISTICS),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except tuple(cls for classes, _ in _EXIT_CODES for cls in classes) as exc:
        message = exc
        if isinstance(exc, MemoryError):
            message = f"not enough memory for the requested sizes ({str(exc) or 'no details'})"
        print(f"error: {message}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
