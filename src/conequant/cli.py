"""Command-line surface: data ingestion, region and depth computation,
verification, and exact JSON region documents.

Commands: uniquantile, region, tukey, depth, verify.  ``verify`` checks a
region exactly on both sides by its definition, in every dimension: each of
its halfspaces lies at its quantile and each of its vertices has depth
>= ceil(N p).  Exit codes: 0 ok, 1 input or output error, 2 hypothesis
violation (integral N*p or an invalid cone), 3 verification failure, 4
internal invariant failure (a bug in conequant).  Documents serialize every
scalar as an exact rational string; identical inputs produce byte-identical
documents.

``main()`` may be called repeatedly in one process, as the benchmark and the
tests do: it builds its argument parser once, on the first call, and every
call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from math import lcm
from pathlib import Path

from ._linalg import angle_key
from .core import (
    DataCloud,
    QuantileLevel,
    _ratio,
    format_rational,
    parse_int_row,
    parse_rational,
    validate_cone,
)
from .errors import ConequantError, DimensionMismatch, IntegralNp, InternalInvariantError
from .lp import OPTIMAL, build_lp_dual, simplex_solve
from .oracle import check_region
from .quantile import QuantileRegion, quantile_region, tukey_depth, tukey_region
from .univariate import minimize_pinball_loss, quantile_direct

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


class CliInputError(Exception):
    """Bad file, bad syntax, inconsistent dimensions: exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        if self.prog.endswith(" depth") and message.endswith("point"):
            # argparse reads a point such as -1,0 as an option
            message += "; put -- before a point that starts with '-': depth FILE -- -1,0"
        raise CliInputError(message)


@contextmanager
def _printable():
    """Format exact results as text: an integer with more digits than
    Python's integer string conversion allows is an input error.  Only
    formatting runs inside, so the ValueError is that limit's."""
    try:
        yield
    except ValueError as exc:
        raise CliInputError(
            f"a number in the result has more than {sys.get_int_max_str_digits()} digits, "
            "Python's integer string conversion limit; set PYTHONINTMAXSTRDIGITS=0 to lift it"
        ) from exc


def _read_text(path: str) -> str:
    """The file's text as UTF-8, after a byte order mark if there is one; an
    unreadable or undecodable file is an input error."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc


def load_points(path: str) -> DataCloud:
    """CSV cloud: one point per row, rational or decimal entries, lines
    starting with '#' are comments.  The cloud is read straight into integer
    rows over the least common denominator of its entries."""
    text = _read_text(path)
    rows = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(parse_int_row(line.split(",")))
        except ValueError as exc:
            raise CliInputError(f"{path}:{ln}: {exc}") from exc
    if not rows:
        raise CliInputError(f"{path}: no data rows")
    width = len(rows[0][0])
    if any(len(r) != width for r, _ in rows):
        raise CliInputError(f"{path}: rows have inconsistent column counts")
    den = lcm(*{d for _, d in rows})
    return DataCloud.from_int_form(
        [r if d == den else tuple(a * (den // d) for a in r) for r, d in rows], den
    )


def load_cone(path: str) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...] | None]:
    """Cone file: one generator row per line, optional 'interior:' line."""
    text = _read_text(path)
    gens = []
    interior = None
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("interior:"):
                if interior is not None:
                    raise ValueError("a second interior: line")
                interior = tuple(
                    parse_rational(tok) for tok in line[len("interior:"):].split(",")
                )
            else:
                gens.append(tuple(parse_rational(tok) for tok in line.split(",")))
        except ValueError as exc:
            raise CliInputError(f"{path}:{ln}: {exc}") from exc
    if not gens:
        raise CliInputError(f"{path}: no generator rows")
    width = len(gens[0])
    if any(len(g) != width for g in gens) or (interior is not None and len(interior) != width):
        raise CliInputError(f"{path}: inconsistent row widths")
    return tuple(gens), interior


def _parse_level(p_text: str, n: int, nudge: bool) -> tuple[QuantileLevel, Fraction | None]:
    try:
        p = parse_rational(p_text)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    if not 0 < p < 1:
        raise CliInputError(f"p must lie strictly between 0 and 1, got {p_text}")
    level = QuantileLevel(p, n)
    if level.is_valid:
        return level, None
    if not nudge:
        level.require_valid()  # raises IntegralNp
    adjusted = p - Fraction(1, 2 * n * p.denominator)
    return QuantileLevel(adjusted, n), p


def region_document(
    result: QuantileRegion,
    cloud: DataCloud,
    cone_echo,
    requested_p: Fraction | None,
) -> dict:
    level = result.level
    region = result.region
    vertices, rays = region._sorted_gens
    stats = result.stats
    with _printable():
        doc_input = {
            "points": cloud.n,
            "dim": cloud.dim,
            "p": format_rational(level.p),
            "ceil_np": level.ceil_np,
            "cone": cone_echo,
        }
        if requested_p is not None:
            doc_input["p_requested"] = format_rational(requested_p)
            doc_input["nudged"] = True
        return {
            "input": doc_input,
            "provenance": result.provenance,
            "empty": region.is_empty,
            "halfspaces": [
                {"w": [_ratio(v, s) for v in w], "t": _ratio(t, s)}
                for *w, t, s in result.entry_records
            ],
            "vertices": [[_ratio(a, z0) for a in head] for *head, z0 in vertices],
            "rays": [[str(a) for a in head] for *head, _ in rays],
            "stats": {
                "benson_rounds": stats.rounds if stats else None,
                "cuts_added": stats.cuts_added if stats else None,
                "scalarizations": stats.scalarizations if stats else None,
            },
        }


def document_bytes(doc: dict) -> str:
    """The document as ``json.dumps(doc, indent=2)`` writes it, plus a final
    newline.  The JSON is written directly, with the C string quoting that
    ``json`` itself uses, since ``json.dumps`` falls back to its pure-Python
    encoder whenever it indents.  Values are dicts with string keys, lists,
    strings, ints, bools and None; any other type raises TypeError."""
    out: list[str] = []
    _write_json(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, emit) -> None:
    """Emit ``value`` as indent-2 JSON, nested at the indent in ``newline``."""
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write_json(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"document keys must be str, not {type(key).__name__}")
            emit(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    else:
        raise TypeError(f"{type(value).__name__} is not a document value")


def _write(text: str, path: str | None = None) -> None:
    """Write text to the file at path, or to stdout when there is none; a
    failed write is an output error.  Stdout is flushed at once, so it fails
    here and not at exit.  The process's own stdout is then pointed at the
    null device, as the ``signal`` module's note on SIGPIPE advises, so its
    buffered text cannot fail a second time at exit."""
    try:
        if path:
            Path(path).write_text(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not path and sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliInputError(f"cannot write {path or 'to stdout'}: {exc}") from exc


def _emit(result: QuantileRegion, cloud: DataCloud, cone_echo, requested, args) -> int:
    """Write the region's document, and its plot when one is asked for."""
    _write(document_bytes(region_document(result, cloud, cone_echo, requested)), args.out)
    if args.plot:
        write_plot(result, args.plot)
    return EXIT_OK


def write_plot(result: QuantileRegion, path: str) -> bool:
    """Ordered vertex cycle as decimal lines, for 2-D nonempty bounded
    regions whose vertex coordinates are within the float range only;
    returns whether a file was written.  When none is, a note on stderr says
    why."""
    region = result.region
    if region.dim != 2:
        skipped = f"the region is {region.dim}-dimensional, not 2-D"
    elif region.is_empty:
        skipped = "the region is empty"
    elif not region.is_bounded:
        skipped = "the region is unbounded"
    else:
        skipped = None
        verts = list(region.vertices)
        if len(verts) > 2:
            center = tuple(
                sum((v[j] for v in verts), Fraction(0)) / len(verts) for j in range(2)
            )
            verts.sort(key=lambda v: angle_key((v[0] - center[0], v[1] - center[1])))
        try:
            lines = [f"{float(v[0])!r},{float(v[1])!r}" for v in verts]
        except OverflowError:
            skipped = "a vertex coordinate is beyond the float range"
    if skipped:
        print(f"note: plot {path} not written: {skipped}", file=sys.stderr)
        return False
    _write("\n".join(lines) + "\n", path)
    return True


def cmd_uniquantile(args) -> int:
    cloud = load_points(args.file)
    if cloud.dim != 1:
        raise CliInputError("uniquantile needs a single-column input")
    level, _ = _parse_level(args.p, cloud.n, nudge=False)
    q = quantile_direct(cloud, level)
    t_star, loss = minimize_pinball_loss(cloud, level)
    if t_star != q:
        raise InternalInvariantError(
            "the pinball loss minimizer is not the direct quantile"
        )
    with _printable():
        q_text, loss_text = format_rational(q), format_rational(loss)
    suffix = ""
    if args.check:
        outcome = simplex_solve(build_lp_dual(cloud, level, (Fraction(1),)))
        if outcome.status != OPTIMAL or outcome.x[0] != q or outcome.value != loss:
            print("LP cross-check disagreed with the direct quantile", file=sys.stderr)
            return EXIT_VERIFY
        suffix = " (LP verified)"
    _write(f"q={q_text}{suffix}\nmin_loss={loss_text}\n")
    return EXIT_OK


def _cloud_cone(cloud: DataCloud, path: str):
    """The cone file's generators, interior point and validated cone."""
    gens, interior = load_cone(path)
    if len(gens[0]) != cloud.dim:
        raise CliInputError(
            f"cone dimension {len(gens[0])} does not match data dimension {cloud.dim}"
        )
    return gens, interior, validate_cone(gens)


def cmd_region(args) -> int:
    cloud = load_points(args.file)
    gens, interior, cone = _cloud_cone(cloud, args.cone)
    level, requested = _parse_level(args.p, cloud.n, args.nudge)
    result = quantile_region(cloud, level, cone, interior)
    with _printable():
        echo = {
            "generators": [[format_rational(x) for x in g] for g in gens],
            "interior": [format_rational(x) for x in interior] if interior else None,
        }
    return _emit(result, cloud, echo, requested, args)


def cmd_tukey(args) -> int:
    cloud = load_points(args.file)
    level, requested = _parse_level(args.p, cloud.n, args.nudge)
    return _emit(tukey_region(cloud, level), cloud, "tukey", requested, args)


def cmd_depth(args) -> int:
    cloud = load_points(args.file)
    try:
        point = tuple(parse_rational(tok) for tok in args.point.split(","))
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    _write(f"{tukey_depth(cloud, point)}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    cloud = load_points(args.file)
    cone = interior = None
    if args.cone:
        _, interior, cone = _cloud_cone(cloud, args.cone)
    level, _ = _parse_level(args.p, cloud.n, nudge=False)
    if cone is None:
        result = tukey_region(cloud, level)
    else:
        result = quantile_region(cloud, level, cone, interior)
    # its counts are exact integer work: only a refutation's text can fail
    with _printable():
        check = check_region(cloud, cone, result)
    if check.refutation:
        print(f"exact depth check: {check.refutation}", file=sys.stderr)
        return EXIT_VERIFY
    depth = "tukey_depth" if cone is None else "cone depth"
    _write(
        f"exact depth check: {check.vertices} vertices at {depth} >= {level.ceil_np}, "
        f"{check.halfspaces} halfspaces at their quantiles\n"
    )
    return EXIT_OK


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conequant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the arguments several subcommands take, each declared once
    shared = {
        "file": {"help": "CSV point cloud, one point per row"},
        "--p": {"required": True, "help": "quantile level as a rational"},
        "--cone": {"help": "cone file: one generator row per line, optional interior: line"},
        "--out": {"help": "write the JSON document here instead of stdout"},
        "--plot": {"help": "write a 2-D vertex cycle as decimals"},
        "--nudge": {
            "action": "store_true",
            "help": "shift an integral N*p level down by 1/(2*N*den(p))",
        },
    }

    def command(name, func, summary, *names, required=()):
        p = sub.add_parser(name, help=summary)
        for n in names:
            p.add_argument(n, **shared[n], **({"required": True} if n in required else {}))
        p.set_defaults(func=func)
        return p

    p_uni = command(
        "uniquantile", cmd_uniquantile, "univariate quantile and loss minimum", "file", "--p"
    )
    p_uni.add_argument("--check", action="store_true", help="cross-check by exact simplex")
    command(
        "region",
        cmd_region,
        "cone quantile region document",
        *("file", "--p", "--cone", "--out", "--plot", "--nudge"),
        required=("--cone",),
    )
    command(
        "tukey",
        cmd_tukey,
        "Tukey depth region document",
        *("file", "--p", "--out", "--plot", "--nudge"),
    )
    p_depth = command("depth", cmd_depth, "Tukey depth of a point", "file")
    p_depth.add_argument(
        "point",
        help="comma-separated coordinates in the data syntax; "
        "put -- before a point that starts with '-'",
    )
    command(
        "verify", cmd_verify, "check a region exactly, by its definition", "file", "--p", "--cone"
    )

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except IntegralNp as exc:
        # only the commands that have --nudge suggest it
        hint = " (pass --nudge to adjust the level)" if hasattr(args, "nudge") else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ConequantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, DimensionMismatch) else EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
