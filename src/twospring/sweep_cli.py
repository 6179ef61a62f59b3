"""Command-line frontend for the two-spring design toolkit: it parses the
flags, checks them and writes; the library does the work.

Subcommands: ``solve`` and ``classify`` for single weight pairs (JSON
records), ``sweep`` for phase-diagram grids and ``boundaries`` for region
dividing lines (CSV), and ``verify`` for randomized closed-form-vs-oracle
campaigns (JSON summary, nonzero exit on any disagreement).  The sweep
window (:class:`~twospring.regions.SweepSpec`) and the dividing curves
(``regions.BOUNDARY_CURVES``) come from :mod:`twospring.regions`, the rows
of a sweep from :func:`~twospring.phase.sweep_rows` and the campaign from
:func:`~twospring.verify.verify_campaign`.

:func:`main` keeps one parser per process and parses a valid call once,
with the parser of the command it names.  A call that names no command or
leaves arguments over is parsed again by the whole parser, so help, error
messages and exit codes are those of one parse of the whole command line.

Numbers are formatted with the shortest representation that round-trips, and
infinities print as the literal ``inf``, so identical invocations produce
byte-identical output.

``sweep`` and ``boundaries`` stream their lines in chunks of at most
``CHUNK_LINES``, each formatted and written before the next is computed, so
their memory does not grow with the size of the request.  A chunk is one
string, its lines joined by newlines; the writer adds the last newline.
``boundaries`` computes its samples as Python floats and formats them with
``repr``.
One function, :func:`_write`, opens ``--out`` or writes to stdout; each
command hands it its chunks, lazily, once its own checks have passed.  It
opens the file, or takes stdout, before it asks for the first chunk:
checks, then the open, then the work.  So a path ``os.open()`` refuses, or
a closed stdout, fails before ``verify``'s one chunk runs its campaign.
``--out`` is written through its file descriptor (see :func:`_write`).
``solve`` and ``classify`` answer one weight pair on the scalar path:
``solve_reduced``'s strength bound and ``winner``'s band C take one
comparison each, and the closed-form kernel ``solver._reduced`` answers
the rest.  That kernel stays the reference the array kernel is tested
against, and is much faster than an array call on one pair (the README
gives the measured ratio).

A usage error past the parser is a ``ValueError`` that reaches
:func:`main`, which writes its message on one ``error:`` line and returns
status 2: those of ``Weights``, ``SweepSpec`` and ``oracle.GridSpec``, this
module's checks of ``boundaries --na`` and ``verify --samples/--seed/--tol``,
and ``os.open()``'s for an ``--out`` path it cannot take.  An ``OSError``
is status 3 with one ``i/o error:`` line: a path ``os.open()`` cannot open, a
failed write, a reader that closed the pipe, or a closed stdout, for help
as for a command's output.  A closed or failing stderr loses that line but
not the status.

This module imports no numpy.  ``sweep`` loads it with
:mod:`twospring.phase`, and ``verify`` with :mod:`twospring.oracle` and
:mod:`twospring.verify` once its flags have passed the checks that need
only the standard library; ``solve``, ``classify`` and ``boundaries``
never load it, so they start without numpy's import time.  ``verify``
draws its pairs in pure Python, so it does not load ``numpy.random``
either.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator

from .model import Topology, Weights
from .regions import BOUNDARY_CURVES, SweepSpec, winner
from .solver import expand, solve_reduced

__all__ = [
    "MAX_BOUNDARY_POINTS",
    "MAX_VERIFY_SAMPLES",
    "CHUNK_LINES",
    "build_parser",
    "main",
    "EXIT_OK",
    "EXIT_DISAGREEMENT",
    "EXIT_USAGE",
    "EXIT_IO",
]

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_USAGE = 2
EXIT_IO = 3

SWEEP_HEADER = "a,b,region,winner,cost_parallel,cost_serial"
BOUNDARY_HEADER = "curve,a,b"

_TOPOLOGIES = {"parallel": Topology.PARALLEL, "serial": Topology.SERIAL}

# most samples per polyline that ``boundaries --na`` accepts
MAX_BOUNDARY_POINTS = 1_000_000
# most lines ``sweep`` and ``boundaries`` compute and format at a time; their
# working memory is bounded by this, whatever the size of the request.  At
# this size a chunk's largest buffers (its text and the list it is joined
# from, about 0.2 MB each) are reused from chunk to chunk and request to
# request in a long-running process, where larger chunks were mapped and
# unmapped again each time (see the README)
CHUNK_LINES = 4_096
# most weight pairs that ``verify --samples`` accepts
MAX_VERIFY_SAMPLES = 1_000_000
# how ``--out`` is opened: for writing, created or truncated, and on Windows
# in binary mode, so the bytes written are the bytes stdout gets
_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    return value


def _write_fd(fd: int, data: bytes) -> None:
    """Write all of ``data`` to the descriptor ``fd``, however many writes
    it takes: ``os.write`` may write only part of it."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write each chunk of lines to the file ``out``, or to stdout if it is
    ``None``, as soon as the chunk is formatted.  A chunk is one string of
    lines joined by newlines, without the last newline.  Every command's
    output takes this path.  The file is opened, or stdout taken, before
    the first chunk is asked for, so a chunk that does a command's work
    runs only once its output has somewhere to go; a closed stdout
    (``sys.stdout`` is ``None``) raises ``OSError``.

    The file is opened with ``os.open`` (``_OUT_FLAGS``, mode ``0o666``
    less the umask, as ``open()`` creates it) and written through its
    descriptor, without a buffer: each chunk is encoded as UTF-8 and
    written whole by :func:`_write_fd`.  That skips ``open()``'s buffered
    text layers, which cost more than the write itself for a small output.

    Each chunk's last newline is a write of its own.  With unbuffered
    stdout, a pipe write that a closing reader cuts short is not reported,
    but the write after it fails; so no part of a chunk is lost unreported.
    When the reader of stdout goes away, the ``BrokenPipeError`` propagates
    (:func:`main` reports it and exits 3), after what is still buffered is
    sent to the null device: else the interpreter's flush at exit fails on
    the same pipe again and prints a second error.
    """

    def write_all(fh) -> None:
        for chunk in chunks:
            fh.write(chunk)
            fh.write("\n")

    if out is not None:
        fd = os.open(out, _OUT_FLAGS, 0o666)
        try:
            for chunk in chunks:
                _write_fd(fd, chunk.encode())
                _write_fd(fd, b"\n")
        finally:
            os.close(fd)
        return
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    try:
        write_all(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _sweep_chunks(spec: SweepSpec) -> Iterator[str]:
    """CSV lines of a sweep in chunks: the header, then its rows, at most
    ``CHUNK_LINES`` to a chunk (see :func:`~twospring.phase.sweep_rows`).

    Written through :func:`_write`, these are exactly what ``twospring
    sweep`` writes.
    """
    from .phase import sweep_rows  # numpy loads here, only when a sweep runs

    yield SWEEP_HEADER
    yield from sweep_rows(spec, CHUNK_LINES)


def _boundary_chunks(resolution: int) -> Iterator[str]:
    """CSV lines of the region boundaries in chunks: the header, then each
    polyline, at most ``CHUNK_LINES`` lines to a chunk.

    The polylines are the curves of ``regions.BOUNDARY_CURVES``, in its
    order, each with ``resolution`` samples, at most
    ``MAX_BOUNDARY_POINTS``.

    Sample ``i`` of a polyline is ``i * step + start``, with ``step = (stop
    - start) / (resolution - 1)``, and the last one is ``stop``: the
    operations of ``np.linspace(start, stop, resolution)``, so the samples
    equal it bit for bit.  ``resolution`` is checked here, before any line
    is formatted: out of range, it raises ``ValueError``.
    """
    if not 2 <= resolution <= MAX_BOUNDARY_POINTS:
        raise ValueError(f"resolution must be between 2 and {MAX_BOUNDARY_POINTS}")
    last = resolution - 1
    polylines = (
        "\n".join(
            [
                f"{name},{a!r},{curve(a)!r}"
                for i in range(lo, min(lo + CHUNK_LINES, resolution))
                for a in [i * step + start if i < last else stop]
            ]
        )
        for name, start, stop, curve in BOUNDARY_CURVES
        for step in [(stop - start) / last]
        for lo in range(0, resolution, CHUNK_LINES)
    )
    return itertools.chain((BOUNDARY_HEADER,), polylines)


def cmd_solve(args: argparse.Namespace) -> int:
    w = Weights(args.a, args.b)
    k = _TOPOLOGIES[args.topology]
    sol = solve_reduced(w, k)
    record = {
        "a": w.a,
        "b": w.b,
        "topology": args.topology,
        "feasible": sol.feasible,
        "x_star": sol.x_star,
        "c1_star": None,
        "c2_star": None,
        "total_cost": sol.total_cost,
        "active_constraint": sol.active_constraint.value if sol.active_constraint else None,
    }
    if sol.feasible:
        design = expand(sol, k)
        record["c1_star"] = design.c1_star
        record["c2_star"] = design.c2_star
    _write((json.dumps(_jsonable(record)),), args.out)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    w = Weights(args.a, args.b)
    report = winner(w)
    record = {
        "a": w.a,
        "b": w.b,
        "region": report.label.value,
        "winner": report.winner.value,
        "cost_parallel": report.cost_parallel,
        "cost_serial": report.cost_serial,
    }
    _write((json.dumps(_jsonable(record)),), args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(args.a_min, args.a_max, args.b_min, args.b_max, args.na, args.nb)
    _write(_sweep_chunks(spec), args.out)
    return EXIT_OK


def cmd_boundaries(args: argparse.Namespace) -> int:
    _write(_boundary_chunks(args.na), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if not 1 <= args.samples <= MAX_VERIFY_SAMPLES:
        raise ValueError(f"--samples must be between 1 and {MAX_VERIFY_SAMPLES}")
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    if not (args.tol > 0.0 and math.isfinite(args.tol)):
        raise ValueError("--tol must be positive and finite")
    # numpy loads here, after the checks that need only the standard library
    from . import oracle, verify

    grid = oracle.GridSpec(args.c_max, args.step)
    summary = {"samples": args.samples, "seed": args.seed, "c_max": args.c_max, "step": args.step, "tol": args.tol}

    def summary_chunk() -> Iterator[str]:
        # the campaign runs when _write asks for this chunk, once --out is open
        summary.update(verify.verify_campaign(args.samples, args.seed, grid, args.tol))
        yield json.dumps(_jsonable(summary))

    _write(summary_chunk(), args.out)
    return EXIT_OK if not summary["failures"] else EXIT_DISAGREEMENT


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser``, and so each command's parser, whose help takes
    :func:`_write`: argparse's own drops a failed write to stdout, and
    writes to stderr when stdout is closed."""

    def print_help(self, file=None):
        if file is None:
            # format_help ends in exactly one newline, which _write adds back
            _write((self.format_help()[:-1],), None)
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the ``twospring`` command line; :func:`main` builds one per process.

    Its ``commands`` attribute maps each command name to the parser of its
    arguments: the ``choices`` of the sub-command action.
    """
    parser = _Parser(
        prog="twospring",
        description="Cost-optimal two-spring network design: solve, classify, sweep, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    solve = sub.add_parser("solve", help="closed-form minimal-cost design for one weight pair")
    solve.add_argument("--a", type=float, required=True, help="weight on force capacity")
    solve.add_argument("--b", type=float, required=True, help="weight on resistance")
    solve.add_argument("--topology", choices=sorted(_TOPOLOGIES), required=True)
    solve.add_argument("--out", default=None, help="output path (default: stdout)")
    solve.set_defaults(handler=cmd_solve)

    classify = sub.add_parser("classify", help="region label and winning topology for one weight pair")
    classify.add_argument("--a", type=float, required=True)
    classify.add_argument("--b", type=float, required=True)
    classify.add_argument("--out", default=None)
    classify.set_defaults(handler=cmd_classify)

    sweep = sub.add_parser("sweep", help="phase-diagram CSV over a rectangle of weight pairs")
    sweep.add_argument("--a-min", type=float, default=0.0)
    sweep.add_argument("--a-max", type=float, default=1.2)
    sweep.add_argument("--b-min", type=float, default=0.0)
    sweep.add_argument("--b-max", type=float, default=1.2)
    sweep.add_argument("--na", type=int, default=121, help="samples along a (inclusive)")
    sweep.add_argument("--nb", type=int, default=121, help="samples along b (inclusive)")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(handler=cmd_sweep)

    boundaries = sub.add_parser("boundaries", help="region boundary polylines as CSV")
    boundaries.add_argument(
        "--na", type=int, default=101, help=f"samples per polyline (2 to {MAX_BOUNDARY_POINTS})"
    )
    boundaries.add_argument("--out", default=None)
    boundaries.set_defaults(handler=cmd_boundaries)

    verify = sub.add_parser("verify", help="randomized closed-form vs grid-oracle campaign")
    verify.add_argument(
        "--samples", type=int, default=200, help=f"weight pairs (1 to {MAX_VERIFY_SAMPLES})"
    )
    verify.add_argument("--seed", type=int, default=42, help="nonnegative seed of the weight pairs")
    verify.add_argument("--c-max", type=float, default=6.0)
    verify.add_argument("--step", type=float, default=0.005)
    verify.add_argument("--tol", type=float, default=0.01, help="positive, finite cost tolerance")
    verify.add_argument("--out", default=None)
    verify.set_defaults(handler=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and kept for the process."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of ``argv`` for its command's handler.

    A valid call is parsed once, by its command's own parser, which is what
    the whole parser would run on ``argv[1:]``.  When ``argv[0]`` names no
    command or arguments are left over, which are help and error paths,
    ``_parser().parse_args(argv)`` runs instead, so that help, messages and
    exit codes stay the whole parser's.
    """
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.handler(args)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except ValueError as exc:
        status, message = EXIT_USAGE, f"error: {exc}\n"
    except OSError as exc:
        status, message = EXIT_IO, f"i/o error: {exc}\n"
    # as argparse writes its own messages: a closed or failing stderr loses
    # the line, not the status
    try:
        sys.stderr.write(message)
    except (AttributeError, OSError):
        pass
    return status


if __name__ == "__main__":
    raise SystemExit(main())
