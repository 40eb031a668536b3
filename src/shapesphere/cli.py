"""Command line interface: project, reconstruct, atlas, lift, generate, verify.

Reports are JSON on stdout (or --out); curve and trajectory payloads are
CSV.  Diagnostics go to stderr.  Exit codes: 0 success, 1 verification
failures, 2 parse errors, 3 invariant or domain violations, 4 uncertified
result under --strict.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import json
import os
import re
import sys

import numpy as np

from .planar import ShapeCurve, reconstruct_q1, reconstruct_Z1, shape_curve, zero_J_lift
from .shape_core import PlanarConfiguration, atlas, derive_masses
from .spatial import reconstruct_spatial
from .trajectory import ParseError, Trajectory, generate, parse
from .trajectory import _csv_blocks, _read_csv_table, _serialized_blocks
from .verify import run_suite

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_UNCERTIFIED = 4


def _parse_masses(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError("--masses expects m1,m2,m3 (comma separated, no spaces)")
    try:
        return derive_masses(*(float(p) for p in parts))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expects a non-negative integer, got {text!r}")
    return int(text)


# Bytes per piece of input text: a CSV reader holds about 1 MiB of the
# file's text at a time, not all of it.
_READ_BYTES = 1 << 20


def _pieces(path: str):
    """The UTF-8 text of path, or of stdin for '-', as an iterator of
    pieces of about _READ_BYTES bytes.  A path is opened at once, so that
    OSError comes before any parsing."""
    if path == "-":
        return _decoded(path, contextlib.nullcontext(sys.stdin.buffer))
    return _decoded(path, open(path, "rb"))


def _decoded(path: str, source):
    """The text of the binary stream that the context manager source gives,
    in pieces; a byte that is not UTF-8 raises ParseError naming its
    position in the whole input."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0  # bytes of the input before the current chunk
    with source as handle:
        while True:
            chunk = handle.read(_READ_BYTES)
            pending = len(decoder.getstate()[0])  # bytes held over from the last chunk
            try:
                text = decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                start, end = offset - pending + exc.start, offset - pending + exc.end
                where = (
                    f"byte 0x{exc.object[exc.start]:02x} in position {start}"
                    if end == start + 1
                    else f"bytes in position {start}-{end - 1}"
                )
                raise ParseError(
                    f"{path} is not UTF-8 text: "
                    f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"
                ) from exc
            if not chunk:
                return
            offset += len(chunk)
            yield text


def _read(path: str) -> str:
    """The whole UTF-8 text of path, or of stdin for '-'."""
    return "".join(_pieces(path))


def _write(path: str, payload):
    """Write a string, or an iterable of string blocks, to path or stdout."""
    blocks = [payload] if isinstance(payload, str) else payload
    if path == "-" or path is None:
        try:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe early, as `| head` does, and has
            # what it wanted.  Point stdout at devnull so that the flush at
            # exit raises nothing either.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(blocks)


def _guess_format(path: str, override: str | None) -> str:
    if override:
        return override
    if path.endswith(".json"):
        return "json"
    return "csv"


def _load_trajectory(args) -> Trajectory:
    masses = _parse_masses(args.masses) if args.masses else None
    fmt = _guess_format(args.input, args.format)
    source = _pieces(args.input) if fmt == "csv" else _read(args.input)
    return parse(source, fmt, masses)


_CURVE_COLUMNS = ["t", "w1", "w2", "w3", "xi_unwound"]


def _curve_blocks(curve: ShapeCurve):
    return _csv_blocks(
        _CURVE_COLUMNS, curve.times[:, None], curve.points, curve.unwound_xi[:, None]
    )


def _curve_header(header):
    if header != _CURVE_COLUMNS:
        raise ParseError("curve CSV must have header t,w1,w2,w3,xi_unwound")


def _parse_curve_csv(pieces) -> ShapeCurve:
    _, data = _read_csv_table(pieces, _curve_header)
    if data.shape[0] == 0:
        raise ParseError("curve CSV contains no data rows")
    try:
        return ShapeCurve(data[:, 0], data[:, 1:4], data[:, 4])
    except ValueError as exc:
        raise ParseError(f"invalid shape curve: {exc}") from exc


def _report_json(report_dict: dict) -> str:
    return json.dumps(report_dict, indent=2, sort_keys=True) + "\n"


def cmd_project(args) -> int:
    traj = _load_trajectory(args)
    curve = shape_curve(traj)
    _write(args.out, _curve_blocks(curve))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    traj = _load_trajectory(args)
    if args.target == "q1":
        report = reconstruct_q1(traj, include_oracle=args.with_oracle)
    elif args.target == "Z1":
        report = reconstruct_Z1(traj, include_oracle=args.with_oracle)
    else:
        try:
            e = [float(p) for p in args.e.split(",")] if args.e is not None else None
        except ValueError as exc:
            raise ParseError(f"--e expects comma separated numbers: {exc}") from exc
        report = reconstruct_spatial(
            traj, e=e, antipodal_branch=args.branch, include_oracle=args.with_oracle
        )
    _write(args.out, _report_json(report.to_dict()))
    if args.degrees:
        print(
            f"total = {np.degrees(report.total):.9f} deg "
            f"(mod 360: {np.degrees(report.total_mod_2pi):.9f})",
            file=sys.stderr,
        )
    if args.strict and report.certified is False:
        print("uncertified: the motion dwells in the bad set", file=sys.stderr)
        return EXIT_UNCERTIFIED
    return EXIT_OK


def cmd_atlas(args) -> int:
    masses = _parse_masses(args.masses)
    _write(args.out, _report_json(atlas(masses).to_json_dict()))
    return EXIT_OK


def cmd_lift(args) -> int:
    curve = _parse_curve_csv(_pieces(args.input))
    # a malformed file exits 2; the ValueErrors of derive_masses and
    # PlanarConfiguration are domain violations and exit 3
    try:
        doc = json.loads(_read(args.initial))
        positions = [np.asarray(v, dtype=float) for v in doc["q"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"initial configuration file: {exc}") from exc
    try:
        masses = derive_masses(*doc["masses"])
        config = PlanarConfiguration(*positions)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"initial configuration file: {exc}") from exc
    lifted = zero_J_lift(curve, config, masses)
    _write(args.out, _serialized_blocks(lifted, args.format))
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ParseError(f"--params: {exc}") from exc
    if not isinstance(params, dict):
        raise ParseError("--params must be a JSON object")
    traj = generate(args.kind, **params)
    _write(args.out, _serialized_blocks(traj, args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        text = os.environ.get("SHAPESPHERE_SEED", "0")
        if not text.isdecimal():
            raise ParseError(f"SHAPESPHERE_SEED must be an integer >= 0, got {text!r}")
        seed = int(text)
    report = run_suite(args.suite, n=args.n, seed=seed, timing=args.timing)
    _write(args.out, _report_json(report))
    failures = report["summary"]["failures"]
    if failures:
        print(f"{failures} case(s) failed", file=sys.stderr)
        return EXIT_FAILURES
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapesphere",
        description="Shape-sphere projection and rotation reconstruction "
        "for three-body motions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("project", help="project a trajectory to its shape curve CSV")
    p.add_argument("input", help="trajectory file (CSV or JSON), '-' for stdin")
    p.add_argument("--masses", help="m1,m2,m3 (required for CSV input)")
    p.add_argument("--format", choices=("csv", "json"), help="input format override")
    add_common(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("reconstruct", help="reconstruct a rotation angle")
    p.add_argument("input")
    p.add_argument("--masses")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--target", choices=("q1", "Z1", "spatial"), default="q1")
    p.add_argument("--e", help="reference axis x,y,z for the spatial target")
    p.add_argument("--branch", type=int, choices=(1, -1), default=1,
                   help="longitude continuation branch at antipodal crossings")
    p.add_argument("--with-oracle", action="store_true",
                   help="also unwind the target angle directly")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when the result is uncertified")
    p.add_argument("--degrees", action="store_true",
                   help="echo the totals in degrees on stderr")
    add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("atlas", help="marked points of the shape sphere as JSON")
    p.add_argument("--masses", required=True)
    add_common(p)
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("lift", help="zero-momentum lift of a shape curve")
    p.add_argument("input", help="shape-curve CSV (t,w1,w2,w3,xi_unwound)")
    p.add_argument("--initial", required=True,
                   help="JSON file {\"masses\": [...], \"q\": [[..],[..],[..]]}")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output trajectory format")
    add_common(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("generate", help="emit one of the named test motions")
    p.add_argument("--kind", required=True)
    p.add_argument("--params", help="generator parameters as a JSON object")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", choices=("planar", "spatial", "all"), default="all")
    p.add_argument("--n", type=_positive_int, default=10000, help="samples per motion")
    p.add_argument("--seed", type=_non_negative_int, default=None,
                   help="suite seed (falls back to SHAPESPHERE_SEED, then 0)")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock runtime_ms per case "
                   "(breaks byte-for-byte reproducibility)")
    add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def _attach_axis_values(argv: list) -> list:
    """Join `--e -0.2,0.1,1` into `--e=-0.2,0.1,1`.

    argparse takes a value that starts with '-' and is not a plain number
    for an option, so a negative first component would be rejected.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--e" and re.match(r"-[\d.]", arg):
            out[-1] = f"--e={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_axis_values(argv))
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        # OSError: an input or --out path that is missing, a directory or
        # otherwise cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
