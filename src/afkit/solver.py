"""Bridge to an external ASP solver (gringo/clasp style command line).

The solver is configured, never bundled: either construct a SolverConfig
directly or set two environment variables —

  AFKIT_SOLVER_CMD     command line; a literal {input} token is replaced by
                       the path of a temp file holding the program, otherwise
                       the program is piped to stdin
  AFKIT_SOLVER_METASP  true (1/true/yes/on, any case) if the command
                       interprets the optimize(1,1,incl) / #minimize[pred]
                       subset-minimization convention; false when unset, empty
                       or 0/false/no/off; any other value is an error, even
                       when no command is set

A SolverConfig parses its command with shlex when it is built, so a blank or
unparsable command raises SolverConfigError there.  require_solver is the one
precondition check before a job runs: it refuses a missing configuration, and
an optimization encoding on a solver not declared metasp-capable.

Output parsing follows the clasp convention: each model is the line after an
"Answer: N" line, and in/1 atoms name the extension members.  Exit codes 0,
10, 20 and 30 all count as clean solver exits (clasp encodes SAT/UNSAT/
interrupted-with-models in them); anything else is a run failure.
"""
from __future__ import annotations

import os
import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass

from .core import parse_apx
from .encodings import AspJob, EncodingId, is_optimization_encoding
from .semantics import ExtensionSet

_OK_EXIT_CODES = frozenset({0, 10, 20, 30})
_IN_ATOM_RE = re.compile(r"\bin\(([a-z][a-z0-9_]*)\)")

ENV_COMMAND = "AFKIT_SOLVER_CMD"
ENV_METASP = "AFKIT_SOLVER_METASP"

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("", "0", "false", "no", "off")


class SolverError(Exception):
    """Base class for everything that can go wrong with the bridge."""


class SolverConfigError(SolverError):
    """No or unusable solver configuration."""


class SolverRunError(SolverError):
    """The solver process failed (bad exit code, timeout); a missing binary
    raises SolverConfigError."""


class SolverTimeoutError(SolverRunError):
    """The solver process exceeded the requested time limit."""


class SolverOutputError(SolverError):
    """The solver ran but its output was not in the expected shape."""


@dataclass(frozen=True)
class SolverConfig:
    """A solver command line and whether it understands the metasp
    convention.  Raises SolverConfigError for a command that is blank or
    that shlex cannot parse."""

    command: str
    metasp_capable: bool = False

    def __post_init__(self) -> None:
        try:
            tokens = shlex.split(self.command)
        except ValueError as exc:
            raise SolverConfigError(f"cannot parse solver command: {exc}") from None
        if not tokens:
            raise SolverConfigError("solver command is empty")

    @staticmethod
    def from_env(environ: dict[str, str] | None = None) -> "SolverConfig | None":
        """Build a config from the environment; None when no command is set.

        Raises SolverConfigError for a metasp flag that is not a boolean word,
        or a command that is blank or cannot be parsed.
        """
        env = os.environ if environ is None else environ
        metasp = env.get(ENV_METASP, "").lower()
        if metasp not in _TRUE_WORDS + _FALSE_WORDS:
            raise SolverConfigError(
                f"{ENV_METASP}={env[ENV_METASP]!r} is not 1/true/yes/on or empty/0/false/no/off"
            )
        command = env.get(ENV_COMMAND)
        if not command:
            return None
        return SolverConfig(command=command, metasp_capable=metasp in _TRUE_WORDS)


def require_solver(
    config: SolverConfig | None, encoding: EncodingId | str
) -> SolverConfig:
    """The config a job of this encoding runs with: the one given, or the
    environment's when None.  Raises SolverConfigError when there is none, or
    when the encoding is an optimization encoding and the config is not
    declared metasp-capable."""
    if config is None:
        config = SolverConfig.from_env()
    if config is None:
        raise SolverConfigError(f"no solver configured; set {ENV_COMMAND}")
    if is_optimization_encoding(encoding) and not config.metasp_capable:
        raise SolverConfigError(
            f"encoding {EncodingId(encoding).value} needs a metasp-capable solver "
            f"(set {ENV_METASP}=1 if the configured command understands "
            "optimize(1,1,incl))"
        )
    return config


def parse_answer_sets(output: str) -> list[frozenset[str]]:
    """Extract the in/1 atoms of every answer set from solver stdout.

    Returns one frozenset of argument names per reported model; [] when the
    solver reported UNSATISFIABLE.  Raises SolverOutputError when the text
    carries neither models nor a recognizable status line.
    """
    lines = output.splitlines()
    models: list[frozenset[str]] = []
    saw_status = False
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("Answer:"):
            if i + 1 >= len(lines):
                raise SolverOutputError("answer marker without a model line")
            model_line = lines[i + 1]
            models.append(frozenset(_IN_ATOM_RE.findall(model_line)))
        elif stripped in ("SATISFIABLE", "UNSATISFIABLE", "OPTIMUM FOUND", "UNKNOWN"):
            saw_status = True
    if models:
        return models
    if saw_status:
        return []
    raise SolverOutputError("no answer sets and no status line in solver output")


def run_program(
    program: str,
    config: SolverConfig,
    timeout: float | None = None,
) -> list[frozenset[str]]:
    """Run one ASP program through the configured command and parse models."""
    tokens = shlex.split(config.command)  # parses: the config checked it
    uses_file = any("{input}" in token for token in tokens)
    tmp_path = None
    try:
        if uses_file:
            fd, tmp_path = tempfile.mkstemp(suffix=".lp", text=True)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(program)
            argv = [token.replace("{input}", tmp_path) for token in tokens]
            stdin_text = None
        else:
            argv = tokens
            stdin_text = program
        try:
            proc = subprocess.run(
                argv,
                input=stdin_text,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except FileNotFoundError as exc:
            raise SolverConfigError(f"solver binary not found: {exc}")
        except subprocess.TimeoutExpired:
            raise SolverTimeoutError(f"solver timed out after {timeout} s")
    finally:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass

    if proc.returncode not in _OK_EXIT_CODES:
        detail = proc.stderr.strip() or proc.stdout.strip()
        raise SolverRunError(
            f"solver exited with code {proc.returncode}: {detail[:500]}"
        )
    return parse_answer_sets(proc.stdout)


def run_job(
    job: AspJob,
    config: SolverConfig | None = None,
    timeout: float | None = None,
) -> ExtensionSet:
    """Solve one emitted job and return its extensions in canonical order."""
    config = require_solver(config, job.encoding)
    af = parse_apx(job.instance)
    models = run_program(job.full_text(), config, timeout=timeout)
    seen = set()
    masks = []
    for model in models:
        try:
            mask = af.argset(model).mask
        except ValueError as exc:
            raise SolverOutputError(f"solver answered with {exc}")
        if mask not in seen:
            seen.add(mask)
            masks.append(mask)
    return ExtensionSet(af, masks)
