"""Command-line interface: counting, classification, verification, reports.

Exit status: 0 on success, 1 when a verification check or a self-check
of count fails, 2 for usage errors such as malformed bounds,
non-squarefree classify inputs or an output that cannot be written (a
bad path, a full device, or a pipe whose reader has gone).  Each command
builds its report once, as a JSON payload, text lines and, for count and
compare, a CSV table; _write renders the chosen format to stdout or to
--out, which get the same bytes.

Only the commands that compute with arrays import numpy and the modules
built on it (_kernels, enumeration, asymptotics), each when it runs:
the parser, its usage errors and classify run without them.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import sys
import time
from contextlib import AbstractContextManager, nullcontext
from decimal import Decimal, InvalidOperation
from typing import TYPE_CHECKING, Callable, TextIO

from .arith import DEFAULT_PRIME_LIMIT, build_sieve
from .fields import InvalidFieldError, from_generators
from .hnp import FAILS, HOLDS, oracle_row

if TYPE_CHECKING:
    import numpy as np

    from .enumeration import CountReport

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

EQUIVALENCE_SWEEP_BOUND = 2000  # |m * a1 * b1| bound of the kernel-vs-oracle sweep
VERIFY_AUDIT_BOUND = 10**8  # disc bound of the audit that verify runs
CLASSIFY_INPUT_BOUND = 10**12  # |v| bound of classify inputs (trial division)
# digits a bound literal may have: every bound is checked against 2^63 or
# sized by memory, and int() of a longer literal can take minutes
BOUND_DIGITS = 60
CLASS_COLUMNS = tuple("sign2,sign3,even_slot,res1,res2,res3,count,failing".split(","))
COMPARE_COLUMNS = tuple(
    "X,S,S_main,S_ratio,Stilde,Stilde_main,Stilde_ratio,fail_fraction".split(",")
)


def parse_bound(text: str) -> int:
    """Exact integer from a decimal or scientific literal such as 1e10."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a numeric bound: {text!r}")
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"bound must be finite: {text!r}")
    if value and value.adjusted() >= BOUND_DIGITS:
        raise argparse.ArgumentTypeError(f"bound has more than {BOUND_DIGITS} digits: {text!r}")
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"bound must be an integer: {text!r}")
    return int(value)


def bound_at_least(least: int) -> Callable[[str], int]:
    """The argparse type of a bound: parse_bound, refusing values below least."""

    def parse(text: str) -> int:
        value = parse_bound(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"bound must be at least {least}: {text!r}")
        return value

    return parse


def _float15(x: float) -> str:
    return format(x, ".15g")


def _error(message: str, code: int = EXIT_USAGE) -> int:
    """Write message to stderr as an error line, and return code.

    A stderr whose reader has gone is ignored, as argparse does, so that
    the exit status stays code and not that of an uncaught error.
    """
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass
    return code


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b name one file, also before either exists."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _open_output(option: str, path: str | None) -> AbstractContextManager[TextIO | None]:
    """The file an output option names, opened for writing (None if unset).

    Commands open their outputs once their options are checked and before
    any counting, so that an unwritable path fails at once.
    """
    if not path:
        return nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {option} {path}: {exc.strerror}") from exc


def _write(
    fmt: str,
    payload: dict,
    text: list[str],
    table: tuple[tuple[str, ...], list[list]] | None = None,
    out: TextIO | None = None,
) -> None:
    """Write one report to out, or to stdout, in the format fmt.

    json: payload after schema_version.  csv: the (header, rows) table,
    each int cell as str and each float cell to 15 significant digits,
    lines ended by CRLF.  text: the lines, each ended by a newline.
    """
    stream = out or sys.stdout
    if fmt == "json":
        report = {"schema_version": SCHEMA_VERSION, **payload}
        chunks = json.JSONEncoder(indent=2).iterencode(report)
        # joined a few thousand at a time: the whole text at once was the
        # peak memory of a count, and a write per chunk is a system call
        # each where stdout is unbuffered
        while batch := "".join(itertools.islice(chunks, 4096)):
            stream.write(batch)
        stream.write("\n")
    elif fmt == "csv":
        header, rows = table
        cells = [[_float15(v) if isinstance(v, float) else str(v) for v in row] for row in rows]
        stream.writelines(",".join(line) + "\r\n" for line in [header, *cells])
    else:
        stream.writelines(line + "\n" for line in text)


def _class_rows(report: CountReport) -> list[list[int]]:
    """(sign2, sign3, even_slot, r1, r2, r3, count, failing) of each class
    that holds a tuple: by slot, then sign pair (+ before -), then residues.
    """
    import numpy as np

    from . import _kernels

    labels = _kernels.class_labels()
    sign2, sign3, even_slot, r1, r2, r3 = labels.T
    order = np.lexsort((r3, r2, r1, -sign3, -sign2, even_slot))
    ids = order[report.class_total[order] > 0]
    return np.column_stack(
        (labels[ids], report.class_total[ids], report.class_fail[ids])
    ).tolist()


# one NDJSON line per verdict, indexed by [witness != 0]: the bytes
# json.dumps gives for the dict of a field's ints and its verdict, a
# string that needs no escaping
_RECORD_LINES = tuple(
    '{"m": %d, "a1": %d, "b1": %d, "disc": %d, "c": %d, "verdict": "' + verdict + '"}\n'
    for verdict in (FAILS, HOLDS)
)


def _ndjson_lines(columns: np.ndarray) -> str:
    """The --records lines of the field columns of enumeration's sink.

    The line templates of the rows' verdicts are joined into one format
    string, which a single % fills from the flat tuple of the rows'
    (m, a1, b1, disc, c) as Python ints.
    """
    template = "".join([_RECORD_LINES[holds] for holds in (columns[:, 11] != 0).tolist()])
    return template % tuple(columns[:, (0, 1, 2, 10, 9)].ravel().tolist())


def cmd_count(args: argparse.Namespace) -> int:
    from . import enumeration

    # checked before the outputs are opened, so that a bad bound cannot
    # leave an existing records or --out file truncated
    if args.max_disc >= enumeration.MAX_DISC_EXCLUSIVE:
        return _error(f"--max-disc must be below 2^63, got {args.max_disc}")
    if not 0 <= args.audit_bound <= args.max_disc:
        return _error("--audit-bound must lie between 0 and --max-disc")
    if args.records and args.out and _same_file(args.records, args.out):
        return _error("--records and --out name the same file")
    with (
        _open_output("--records", args.records) as records_file,
        _open_output("--out", args.out) as out_file,
    ):
        started = time.perf_counter()
        fields, bad = _audit(args.audit_bound) if args.audit_bound else (0, 0)
        if bad:
            message = f"the scalar oracles disagree on {bad} of the {fields} fields"
            return _error(f"{message} with disc <= {args.audit_bound}", EXIT_VERIFY_FAILED)

        def record_sink(columns):
            records_file.write(_ndjson_lines(columns))

        report = enumeration.enumerate_fields(
            args.max_disc, sink=record_sink if records_file else None
        )
        elapsed = time.perf_counter() - started
        if records_file:
            records_file.flush()  # a records write that fails leaves no report

        rows = _class_rows(report)
        payload = {
            "X": report.X,
            "S": report.S,
            "S_tilde": report.S_tilde,
            "ordered_total": report.ordered_total,
            "fail_fraction": report.fail_fraction,
            "wall_time_s": elapsed,
            "parts": report.parts,
            "stats": report.stats,
            "classes": [
                dict(sign2=s2, sign3=s3, even_slot=slot, residues=res, count=n, failing=f)
                for s2, s3, slot, *res, n, f in rows
            ],
        }
        text = [
            f"X = {report.X}",
            f"S (all fields)      = {report.S}",
            f"S~ (HNP failures)   = {report.S_tilde}",
            f"ordered tuples      = {report.ordered_total}",
            f"fail fraction       = {_float15(report.fail_fraction)}",
            f"classes represented = {len(rows)}",
            f"wall time           = {elapsed:.3f} s",
        ]
        _write(args.format, payload, text, (CLASS_COLUMNS, rows), out_file)
        return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    values = args.gens or args.triple
    if any(abs(v) > CLASSIFY_INPUT_BOUND for v in values):
        return _error(f"classify inputs must satisfy |v| <= 10^12, got {values}")
    try:
        if args.gens:
            m, a1, b1 = from_generators(args.gens[0], args.gens[1])
        else:
            m, a1, b1 = args.triple
        k1, k2, k3, d1, d2, d3, c, disc, witness = oracle_row(m, a1, b1)
    except InvalidFieldError as exc:
        return _error(str(exc))
    verdict = HOLDS if witness else FAILS
    payload = {
        "m": m,
        "a1": a1,
        "b1": b1,
        "kernels": [k1, k2, k3],
        "fundamental_discs": [d1, d2, d3],
        "disc": disc,
        "c": c,
        "verdict": verdict,
        "witness": witness or None,
    }
    text = [
        f"triple        (m, a1, b1) = ({m}, {a1}, {b1})",
        f"kernels       {(k1, k2, k3)}",
        f"fundamental   {(d1, d2, d3)}",
        f"disc          {disc}   (c = {c})",
        f"splitting     {verdict}",
    ]
    if witness:
        text.append(f"witness       {witness}")
    _write(args.format, payload, text)
    return EXIT_OK


def _audit(bound: int) -> tuple[int, int]:
    """(fields, mismatches) of the scalar oracle hnp.oracle_row against
    columns 3-11 of enumerate_fields(bound), on a sieve to isqrt(bound),
    which covers |m a1 b1| = sqrt(disc) / c.  This is both the audit of
    count --audit-bound and check 5 of verify.

    enumeration.fork_parts runs the parts in two processes when two CPUs
    are usable; part p of parts checks the sink's chunks p, p + parts,
    ... (EMIT_CHUNK fields each), so the parts check every field once.  A
    field that the oracle rejects counts as one mismatch.
    """
    from . import enumeration

    chunks: list[np.ndarray] = []
    enumeration.enumerate_fields(bound, sink=chunks.append)
    sieve = build_sieve(math.isqrt(bound))

    def work(part: int, parts: int) -> tuple[int, int]:
        seen = bad = 0
        for chunk in chunks[part::parts]:
            # one list per column of one chunk: lists of all fields, or one
            # list per field, would raise the peak memory
            block = chunk.T.tolist()
            seen += len(block[0])
            for m, a1, b1, values in zip(*block[:3], zip(*block[3:])):
                try:
                    bad += oracle_row(m, a1, b1, sieve) != values
                except InvalidFieldError:
                    bad += 1
        return seen, bad

    seen, bad = zip(*enumeration.fork_parts(work))
    return sum(seen), sum(bad)


def _verify_checks() -> list[tuple[str, str, str, bool, float]]:
    """(name, expected, actual, passed, duration_s) of each check, in order.

    A check's duration is the time since the previous check was added.
    """
    import numpy as np

    from . import asymptotics, enumeration

    checks: list[tuple[str, str, str, bool, float]] = []
    last = time.perf_counter()

    def add(name: str, expected: str, actual: str, passed: bool) -> None:
        nonlocal last
        now = time.perf_counter()
        checks.append((name, expected, actual, passed, now - last))
        last = now

    value = asymptotics.total_class_weight()
    add("class weight sum (all classes)", "23", str(value), value == 23)

    value = asymptotics.failing_class_weight()
    add("class weight sum (failure classes)", "112", str(value), value == 112)

    blocks = asymptotics.signed_failing_class_weights()
    signed = sum(blocks)
    add("signed class weight sum", "0", str(signed), signed == 0)
    add(
        "signed class weight sum per sign pair",
        "0, 0, 0, 0",
        ", ".join(str(b) for b in blocks),
        all(b == 0 for b in blocks),
    )

    try:
        fields, bad = _audit(VERIFY_AUDIT_BOUND)
        actual, passed = f"{bad} mismatches", bad == 0
    except (RuntimeError, AssertionError) as exc:
        # a self-check of the count failed while the audit collected its fields
        fields, actual, passed = 0, str(exc), False
    add(
        f"scalar oracles on the stream, {fields} fields to disc {VERIFY_AUDIT_BOUND:.0e}",
        "0 mismatches",
        actual,
        passed,
    )

    sieve = build_sieve(EQUIVALENCE_SWEEP_BOUND)

    def sweep(part: int, parts: int) -> tuple[int, int]:
        """(rows, disagreements) of the kernel's verdicts, column 5 of the
        part's tuple records, against hnp.oracle_row.

        The rows are six blocks of the part's kernel records, block 0 the
        records themselves (enumeration.unfold_records).  The oracle is
        asked once per record, and its verdict is compared with the
        kernel's on the record's six rows.  A row disagrees when it names
        no field, when its sorted kernels differ from its record's (it
        names another field), or when the oracle rejects its record.
        """
        rows = enumeration.tuple_records(EQUIVALENCE_SWEEP_BOUND, part, parts)
        m, a1, b1 = rows[:, 0], rows[:, 1], rows[:, 2]
        kernels = np.array([m * a1, m * b1, a1 * b1]).reshape(3, 6, -1)
        kernels.sort(axis=0)  # in place: a sorted copy would raise verify's peak memory
        bad = enumeration.invalid_rows(m, a1, b1).reshape(6, -1)
        bad |= np.any(kernels != kernels[:, :1], axis=0)
        verdicts = []  # the oracle's fails of each record, -1 where it raised
        for record in rows[: len(rows) // 6, :3].tolist():
            try:
                verdicts.append(oracle_row(*record, sieve)[8] == 0)
            except InvalidFieldError:
                verdicts.append(-1)
        bad |= np.array(verdicts, dtype=np.int64) != rows[:, 5].reshape(6, -1)
        return len(rows), int(np.count_nonzero(bad))

    seen, bad = zip(*enumeration.fork_parts(sweep))
    total, mismatches = sum(seen), sum(bad)
    add(
        f"classifier equivalence, {total} triples to |m a1 b1| = {EQUIVALENCE_SWEEP_BOUND}",
        "0 disagreements",
        f"{mismatches} disagreements",
        mismatches == 0,
    )
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    checks = _verify_checks()
    ok = all(passed for _, _, _, passed, _ in checks)
    payload = {
        "passed": ok,
        "checks": [
            {"name": name, "expected": exp, "actual": act, "passed": passed, "duration_s": duration}
            for name, exp, act, passed, duration in checks
        ],
    }
    text = [
        f"{'PASS' if passed else 'FAIL'}  {name}: expected {exp}, got {act}"
        for name, exp, act, passed, _ in checks
    ]
    _write(args.format, payload, text)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_constants(args: argparse.Namespace) -> int:
    from . import asymptotics

    total = asymptotics.euler_product_total(args.prime_limit)
    failing = asymptotics.euler_product_failing(args.prime_limit)
    cross = asymptotics.main_term_constant_crosscheck(args.prime_limit)
    payload = {
        "prime_limit": args.prime_limit,
        "euler_product_total": {"value": total.value, "tail_bound": total.tail_bound},
        "euler_product_failing": {"value": failing.value, "tail_bound": failing.tail_bound},
        "crosscheck": {
            "agrees": cross.agrees,
            "direct": cross.direct,
            "assembled": cross.assembled,
            "residual": cross.residual,
            "combined_tail": cross.combined_tail,
        },
    }
    text = [
        f"prime limit                   {args.prime_limit}",
        f"Euler product (all fields)    {_float15(total.value)} +- {total.tail_bound:.2e}",
        f"Euler product (failures)      {_float15(failing.value)} +- {failing.tail_bound:.2e}",
        f"failing main-term coefficient {_float15(cross.direct)}",
        f"assembled closed form         {_float15(cross.assembled)}",
        f"relative residual             {cross.residual:.2e}",
        f"agreement within tails        {cross.agrees}",
    ]
    _write(args.format, payload, text)
    return EXIT_OK if cross.agrees else EXIT_VERIFY_FAILED


def cmd_compare(args: argparse.Namespace) -> int:
    from . import asymptotics, enumeration

    checkpoints = args.checkpoints
    if any(a >= b for a, b in zip(checkpoints, checkpoints[1:])):
        return _error("checkpoints must be strictly ascending")
    if checkpoints and checkpoints[-1] >= enumeration.MAX_DISC_EXCLUSIVE:
        return _error(f"checkpoints must be below 2^63, got {checkpoints[-1]}")
    with _open_output("--out", args.out) as out_file:
        c_total = asymptotics.euler_product_total(args.prime_limit).value
        c_failing = asymptotics.euler_product_failing(args.prime_limit).value
        rows = []
        for x in checkpoints:
            report = enumeration.enumerate_fields(x)
            s_main = asymptotics.main_term_total(x, c_total)
            st_main = asymptotics.main_term_failing(x, c_failing)
            s_ratio = report.S / s_main if s_main else 0.0
            st_ratio = report.S_tilde / st_main if st_main else 0.0
            rows.append(
                [x, report.S, s_main, s_ratio, report.S_tilde, st_main, st_ratio,
                 report.fail_fraction]
            )
        text = [
            f"{'X':>14} {'S':>10} {'S_ratio':>9} {'Stilde':>8} {'St_ratio':>9} {'fail_frac':>10}"
        ]
        text += [
            f"{x:>14} {s:>10} {s_ratio:>9.4f} {st:>8} {st_ratio:>9.4f} {fail:>10.6f}"
            for x, s, _, s_ratio, st, _, st_ratio, fail in rows
        ]
        payload = {"rows": [dict(zip(COMPARE_COLUMNS, row)) for row in rows]}
        _write(args.format, payload, text, (COMPARE_COLUMNS, rows), out_file)
        return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biquad-hnp",
        description=(
            "Count biquadratic extensions of Q by discriminant and decide "
            "Hasse norm principle failures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="enumerate fields with disc <= X")
    p_count.add_argument("--max-disc", type=bound_at_least(1), required=True)
    p_count.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_count.add_argument("--out", default=None)
    p_count.add_argument("--audit-bound", type=parse_bound, default=0)
    p_count.add_argument(
        "--records",
        default=None,
        metavar="PATH",
        help="write one NDJSON record per field (keys m, a1, b1, disc, c, verdict)",
    )
    p_count.set_defaults(func=cmd_count)

    p_cls = sub.add_parser("classify", help="classify a single field")
    group = p_cls.add_mutually_exclusive_group(required=True)
    group.add_argument("--gens", type=int, nargs=2, metavar=("A", "B"))
    group.add_argument("--triple", type=int, nargs=3, metavar=("M", "A1", "B1"))
    p_cls.add_argument("--format", choices=("text", "json"), default="text")
    p_cls.set_defaults(func=cmd_classify)

    p_verify = sub.add_parser("verify", help="run the exact verification suite")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_const = sub.add_parser("constants", help="evaluate the Euler-product constants")
    p_const.add_argument("--prime-limit", type=bound_at_least(2), default=DEFAULT_PRIME_LIMIT)
    p_const.add_argument("--format", choices=("text", "json"), default="text")
    p_const.set_defaults(func=cmd_constants)

    p_cmp = sub.add_parser("compare", help="counts vs main terms at checkpoints")
    p_cmp.add_argument(
        "--checkpoints",
        type=lambda s: [bound_at_least(1)(x) for x in s.split(",") if x],
        required=True,
        help="comma-separated strictly ascending bounds, e.g. 1e6,1e8,1e10",
    )
    p_cmp.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--prime-limit", type=bound_at_least(2), default=DEFAULT_PRIME_LIMIT)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def _size_bounds(args: argparse.Namespace) -> str:
    """The options that size a command's sieves, as given."""
    parts = []
    for dest in ("max_disc", "checkpoints", "prime_limit"):
        value = getattr(args, dest, None)
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if value is not None:
            parts.append(f"--{dest.replace('_', '-')} {value}")
    return ", ".join(parts) or args.command


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # inside the try, so that a reader gone before the last buffered
        # output is reported here and not at interpreter exit
        sys.stdout.flush()
        return code
    except OSError as exc:
        # an output whose reader has gone, or a full device.  The
        # interpreter flushes stdout again at exit; point it at devnull so
        # that an unwritten buffer is dropped in silence
        try:
            stdout_fd = sys.stdout.fileno()
        except io.UnsupportedOperation:
            pass  # a stdout with no descriptor, such as a test's buffer
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout_fd)
            os.close(devnull)
        return _error(f"cannot write an output: {exc.strerror or exc}")
    except ValueError as exc:
        return _error(str(exc))
    except (RuntimeError, AssertionError) as exc:
        # a self-check of the count failed: its records, dedup or merge
        return _error(f"self-check failed: {exc}", EXIT_VERIFY_FAILED)
    except MemoryError:
        # a bound below 2^63 can still ask for sieves larger than memory
        return _error(f"not enough memory for {_size_bounds(args)}")


if __name__ == "__main__":
    sys.exit(main())
