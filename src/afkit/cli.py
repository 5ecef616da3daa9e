"""Command-line interface: solve, gen, emit, and bench subcommands.

Exit codes follow one contract everywhere: 0 success (and YES answers),
1 NO answers, 2 usage errors (including a bad solver configuration for an
external bench engine), 3 input errors (unreadable or malformed instances,
unknown argument names, unwritable output paths), 4 resource caps and
timeouts, 5 internal errors (an unexpected exception, never reported as an
answer).  A command raises CommandError with its code and message, and main
maps that, SearchCapError and every other exception to an exit code in one
place.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .bench import read_csv, run_bench, summarize, write_csv
from .core import ApxError, parse_apx, serialize_apx
from .encodings import EncodingId, emit_encoding, emit_job
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
from .solver import SolverConfigError

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


class CommandError(Exception):
    """A failure the user can act on, with the exit code it maps to."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_af(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_apx(handle.read())
    except OSError as exc:
        raise CommandError(EXIT_INPUT, f"cannot read {path}: {exc}") from None
    except (ApxError, UnicodeDecodeError) as exc:
        raise CommandError(EXIT_INPUT, f"{path}: {exc}") from None


def _write_text(text: str, output: str | None) -> None:
    """Write to the given path (then print the path) or to stdout."""
    if output and output != "-":
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CommandError(EXIT_INPUT, f"cannot write {output}: {exc}") from None
        print(output)
    else:
        sys.stdout.write(text)


def _split_csv_flag(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


# ------------------------------------------------------------------ solve


def cmd_solve(args: argparse.Namespace) -> int:
    if args.max_args < 0:
        raise CommandError(EXIT_USAGE, "--max-args must be 0 (no cap) or positive")
    max_args = None if args.max_args == 0 else args.max_args
    af = _load_af(args.input)
    semantics = Semantics(args.semantics)

    if args.task == "EE":
        exts = enumerate_extensions(af, semantics, max_args=max_args)
        if args.format == "count":
            print(len(exts))
        elif args.format == "json":
            print(json.dumps([list(ext) for ext in exts.names()]))
        else:
            for ext in exts.names():
                print(",".join(ext))
        return EXIT_OK

    # only the name lookups sit under the input-error guard: a ValueError
    # from a decision call is a defect, not the input's fault
    if args.task == "VER":
        if args.set is None:
            raise CommandError(EXIT_USAGE, "task VER needs --set")
        try:
            subset = af.argset(_split_csv_flag(args.set))
        except ValueError as exc:
            raise CommandError(EXIT_INPUT, str(exc)) from None
        answer = verify(af, semantics, subset)
    else:
        if args.arg is None:
            raise CommandError(EXIT_USAGE, f"task {args.task} needs --arg")
        try:
            arg = af.arg_id(args.arg)
        except ValueError as exc:
            raise CommandError(EXIT_INPUT, str(exc)) from None
        decide = credulous if args.task == "CA" else skeptical
        answer = decide(af, semantics, arg, max_args=max_args)
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
        raise CommandError(EXIT_USAGE, str(exc)) from None
    _write_text(serialize_apx(generate(spec)), args.output)
    return EXIT_OK


# ------------------------------------------------------------------- emit


def cmd_emit(args: argparse.Namespace) -> int:
    if args.program_only:
        _write_text(emit_encoding(args.encoding), args.output)
        return EXIT_OK
    if args.input is None:
        raise CommandError(EXIT_USAGE, "emit needs --input unless --program-only is given")
    af = _load_af(args.input)
    if args.instance_only:
        _write_text(serialize_apx(af), args.output)
    else:
        _write_text(emit_job(af, args.encoding).full_text(), args.output)
    return EXIT_OK


# ------------------------------------------------------------------ bench


def cmd_bench_run(args: argparse.Namespace) -> int:
    try:
        records = run_bench(
            kinds=_split_csv_flag(args.kinds),
            sizes=[int(s) for s in _split_csv_flag(args.sizes)],
            ps=[float(p) for p in _split_csv_flag(args.p)],
            semantics=_split_csv_flag(args.semantics),
            engines=_split_csv_flag(args.engines),
            trials=args.trials,
            timeout=args.timeout,
            neighborhood=args.neighborhood,
            base_seed=args.base_seed,
        )
    except (ValueError, SolverConfigError) as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from None
    try:
        write_csv(records, args.output)
    except OSError as exc:
        raise CommandError(EXIT_INPUT, f"cannot write {args.output}: {exc}") from None
    print(args.output)
    return EXIT_OK


def cmd_bench_summarize(args: argparse.Namespace) -> int:
    try:
        records = read_csv(args.input)
    except OSError as exc:
        raise CommandError(EXIT_INPUT, f"cannot read {args.input}: {exc}") from None
    except ValueError as exc:
        raise CommandError(EXIT_INPUT, f"{args.input}: {exc}") from None
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
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SearchCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:  # a defect must not read as a NO answer
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
