"""Command-line interface: solve, gen, emit, and bench subcommands.

Exit codes follow one contract everywhere: 0 success (and YES answers),
1 NO answers, 2 usage errors, 3 input errors (unreadable or malformed
instances, unknown argument names), 4 resource caps and timeouts, 5 internal
errors (an unexpected exception, never reported as an answer).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .bench import read_csv, run_bench, summarize, write_csv
from .core import ApxError, parse_apx, serialize_apx
from .encodings import EncodingId, emit_encoding, emit_instance, emit_job
from .generators import KINDS, NEIGHBORHOODS, GenSpec, generate
from .semantics import (
    DEFAULT_SEARCH_CAP,
    SearchCapError,
    Semantics,
    credulous,
    enumerate_extensions,
    skeptical,
    verify,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _load_af(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_apx(handle.read())


def _write_text(text: str, output: str | None) -> None:
    """Write to the given path (then print the path) or to stdout."""
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(output)
    else:
        sys.stdout.write(text)


def _split_csv_flag(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


# ------------------------------------------------------------------ solve


def cmd_solve(args: argparse.Namespace) -> int:
    if args.max_args < 0:
        return _usage("--max-args must be 0 (no cap) or positive")
    max_args = None if args.max_args == 0 else args.max_args
    try:
        af = _load_af(args.input)
    except OSError as exc:
        return _input_error(f"cannot read {args.input}: {exc}")
    except (ApxError, UnicodeDecodeError) as exc:
        return _input_error(f"{args.input}: {exc}")

    semantics = Semantics(args.semantics)
    try:
        if args.task == "EE":
            extensions = enumerate_extensions(af, semantics, max_args=max_args)
            names = extensions.names()
            if args.format == "count":
                print(len(names))
            elif args.format == "json":
                print(json.dumps([list(ext) for ext in names]))
            else:
                for ext in names:
                    print(",".join(ext))
            return EXIT_OK

        if args.task in ("CA", "SA"):
            if args.arg is None:
                return _usage(f"task {args.task} needs --arg")
            decide = credulous if args.task == "CA" else skeptical
            try:
                answer = decide(af, semantics, args.arg, max_args=max_args)
            except ValueError as exc:
                return _input_error(str(exc))
        else:  # VER
            if args.set is None:
                return _usage("task VER needs --set")
            try:
                subset = af.argset(_split_csv_flag(args.set))
            except ValueError as exc:
                return _input_error(str(exc))
            answer = verify(af, semantics, subset)
    except SearchCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP

    print("YES" if answer else "NO")
    return EXIT_OK if answer else EXIT_NO


# -------------------------------------------------------------------- gen


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        spec = GenSpec(
            kind=args.kind,
            n=args.n,
            m=args.m,
            p=args.p,
            neighborhood=args.neighborhood,
            seed=args.seed,
            self_attacks=args.self_attacks,
        )
    except ValueError as exc:
        return _usage(str(exc))
    _write_text(serialize_apx(generate(spec)), args.output)
    return EXIT_OK


# ------------------------------------------------------------------- emit


def cmd_emit(args: argparse.Namespace) -> int:
    if args.program_only:
        _write_text(emit_encoding(args.encoding), args.output)
        return EXIT_OK
    if args.input is None:
        return _usage("emit needs --input unless --program-only is given")
    try:
        af = _load_af(args.input)
    except OSError as exc:
        return _input_error(f"cannot read {args.input}: {exc}")
    except (ApxError, UnicodeDecodeError) as exc:
        return _input_error(f"{args.input}: {exc}")
    if args.instance_only:
        _write_text(emit_instance(af), args.output)
    else:
        _write_text(emit_job(af, args.encoding).full_text(), args.output)
    return EXIT_OK


# ------------------------------------------------------------------ bench


def cmd_bench_run(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in _split_csv_flag(args.sizes)]
        ps = [float(p) for p in _split_csv_flag(args.p)]
    except ValueError as exc:
        return _usage(str(exc))
    kinds = _split_csv_flag(args.kinds)
    semantics = _split_csv_flag(args.semantics)
    engines = _split_csv_flag(args.engines)
    try:
        records = run_bench(
            kinds=kinds,
            sizes=sizes,
            ps=ps,
            semantics=semantics,
            engines=engines,
            trials=args.trials,
            timeout=args.timeout,
            neighborhood=args.neighborhood,
            base_seed=args.base_seed,
            jobs=args.jobs,
        )
    except ValueError as exc:
        return _usage(str(exc))
    write_csv(records, args.output)
    print(args.output)
    return EXIT_OK


def cmd_bench_summarize(args: argparse.Namespace) -> int:
    try:
        records = read_csv(args.input)
    except OSError as exc:
        return _input_error(f"cannot read {args.input}: {exc}")
    except ValueError as exc:
        return _input_error(f"{args.input}: {exc}")
    rows = summarize(records)
    header = ("kind", "semantics", "engine", "size", "runs", "ok",
              "timeouts", "errors", "mean_time_ms")
    print("\t".join(header))
    for row in rows:
        print("\t".join([
            row["kind"], row["semantics"], row["engine"], str(row["size"]),
            str(row["runs"]), str(row["ok"]), str(row["timeouts"]),
            str(row["errors"]), f"{row['mean_time_ms']:.3f}",
        ]))
    return EXIT_OK


# ----------------------------------------------------------------- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The afkit parser, built once per process: parse_args keeps no state in
    it, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="afkit",
        description="Abstract argumentation toolkit: solve, generate, emit, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="enumerate or decide extensions")
    solve.add_argument("--input", required=True, help="APX instance file")
    solve.add_argument("--semantics", required=True,
                       choices=[s.value for s in Semantics])
    solve.add_argument("--task", required=True, choices=["EE", "CA", "SA", "VER"])
    solve.add_argument("--arg", help="argument name for CA/SA")
    solve.add_argument("--set", help="comma-separated argument names for VER")
    solve.add_argument("--format", choices=["lines", "json", "count"],
                       default="lines", help="EE output format")
    solve.add_argument("--max-args", type=int, default=DEFAULT_SEARCH_CAP, metavar="N",
                       help="enumeration cap (0 lifts the cap)")
    solve.set_defaults(func=cmd_solve)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--kind", required=True, choices=list(KINDS))
    gen.add_argument("--n", required=True, type=int,
                     help="argument count (arbitrary) or rows (grid)")
    gen.add_argument("--m", type=int, help="columns (grid only)")
    gen.add_argument("--p", type=float, default=0.25)
    gen.add_argument("--neighborhood", choices=list(NEIGHBORHOODS),
                     default="orthogonal")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--self-attacks", action="store_true")
    gen.add_argument("--output", default="-", help="file path or - for stdout")
    gen.set_defaults(func=cmd_gen)

    emit = sub.add_parser("emit", help="emit ASP programs and instances")
    emit.add_argument("--encoding", required=True,
                      choices=[e.value for e in EncodingId])
    emit.add_argument("--input", help="APX instance file")
    only = emit.add_mutually_exclusive_group()
    only.add_argument("--instance-only", action="store_true")
    only.add_argument("--program-only", action="store_true")
    emit.add_argument("--output", default="-", help="file path or - for stdout")
    emit.set_defaults(func=cmd_emit)

    bench = sub.add_parser("bench", help="timed runs over generated instances")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    run = bench_sub.add_parser("run", help="run a benchmark plan, write CSV")
    run.add_argument("--kinds", default="arbitrary")
    run.add_argument("--sizes", required=True, help="comma-separated sizes")
    run.add_argument("--p", default="0.25", help="comma-separated probabilities")
    run.add_argument("--semantics", required=True)
    run.add_argument("--engines", default="native")
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--timeout", type=float, default=60.0,
                     help="per-run limit in seconds")
    run.add_argument("--neighborhood", choices=list(NEIGHBORHOODS),
                     default="orthogonal")
    run.add_argument("--base-seed", type=int, default=0)
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--output", default="bench.csv")
    run.set_defaults(func=cmd_bench_run)

    summ = bench_sub.add_parser("summarize", help="per-size means from a CSV")
    summ.add_argument("--input", required=True)
    summ.set_defaults(func=cmd_bench_summarize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except Exception as exc:  # a defect must not read as a NO answer
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
