"""Command-line interface: counting, classification, verification, reports.

Exit status: 0 on success, 1 when a verification check fails, 2 for
usage errors such as malformed bounds, non-squarefree classify inputs or
an output that cannot be written (a bad path, a full device, or a pipe
whose reader has gone).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from contextlib import AbstractContextManager, nullcontext
from decimal import Decimal, InvalidOperation
from typing import Iterator, TextIO

import numpy as np

from . import _kernels, asymptotics, enumeration
from .arith import build_sieve
from .fields import FieldTriple, InvalidFieldError, from_generators, subfield_data
from .hnp import FAILS, HOLDS, classify_by_splitting

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

EQUIVALENCE_SWEEP_BOUND = 2000  # |m * a1 * b1| bound of the kernel-vs-oracle sweep
DISC_IDENTITY_BOUND = 10**8  # disc bound of the discriminant identity sweep
CLASSIFY_INPUT_BOUND = 10**12  # |v| bound of classify inputs (trial division)
# digits a bound literal may have: every bound is checked against 2^63 or
# sized by memory, and int() of a longer literal can take minutes
BOUND_DIGITS = 60


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


def positive_bound(text: str) -> int:
    value = parse_bound(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"bound must be positive: {text!r}")
    return value


def _float15(x: float) -> str:
    return format(x, ".15g")


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


def _emit(text: str, out: TextIO | None) -> None:
    if out:
        out.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _class_rows(report: enumeration.CountReport) -> list[list[int]]:
    """(sign2, sign3, even_slot, r1, r2, r3, count, failing) of each class
    that holds a tuple: by slot, then sign pair (+ before -), then residues.
    """
    labels = _kernels.class_labels()
    sign2, sign3, even_slot, r1, r2, r3 = labels.T
    order = np.lexsort((r3, r2, r1, -sign3, -sign2, even_slot))
    ids = order[report.class_total[order] > 0]
    return np.column_stack(
        (labels[ids], report.class_total[ids], report.class_fail[ids])
    ).tolist()


def cmd_count(args: argparse.Namespace) -> int:
    # checked before the outputs are opened, so that a bad bound cannot
    # leave an existing records or --out file truncated
    if args.max_disc >= enumeration.MAX_DISC_EXCLUSIVE:
        print(f"error: --max-disc must be below 2^63, got {args.max_disc}", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= args.audit_bound <= args.max_disc:
        print("error: --audit-bound must lie between 0 and --max-disc", file=sys.stderr)
        return EXIT_USAGE
    with (
        _open_output("--records", args.records) as records_file,
        _open_output("--out", args.out) as out_file,
    ):
        if records_file and out_file and os.path.samefile(args.records, args.out):
            print("error: --records and --out name the same file", file=sys.stderr)
            return EXIT_USAGE

        def record_sink(columns):
            # the bytes json.dumps gives for this dict of ints and a verdict
            # string that needs no escaping, built without the encoder
            records_file.writelines(
                f'{{"m": {m}, "a1": {a1}, "b1": {b1}, '
                f'"disc": {disc}, "c": {c}, "verdict": "{HOLDS if w else FAILS}"}}\n'
                for m, a1, b1, c, disc, w in columns[:, (0, 1, 2, 9, 10, 11)].tolist()
            )

        started = time.perf_counter()
        report = enumeration.enumerate_fields(
            args.max_disc,
            sink=record_sink if records_file else None,
            audit_bound=args.audit_bound,
        )
        elapsed = time.perf_counter() - started
        if records_file:
            records_file.flush()  # a records write that fails leaves no report

        if args.format == "json":
            payload = {
                "schema_version": SCHEMA_VERSION,
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
                    for s2, s3, slot, *res, n, f in _class_rows(report)
                ],
            }
            _emit(json.dumps(payload, indent=2), out_file)
        elif args.format == "csv":
            lines = ["sign2,sign3,even_slot,res1,res2,res3,count,failing"]
            lines += [",".join(map(str, row)) for row in _class_rows(report)]
            _emit("\r\n".join(lines) + "\r\n", out_file)
        else:
            lines = [
                f"X = {report.X}",
                f"S (all fields)      = {report.S}",
                f"S~ (HNP failures)   = {report.S_tilde}",
                f"ordered tuples      = {report.ordered_total}",
                f"fail fraction       = {_float15(report.fail_fraction)}",
                f"classes represented = {np.count_nonzero(report.class_total)}",
                f"wall time           = {elapsed:.3f} s",
            ]
            _emit("\n".join(lines) + "\n", out_file)
        return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    values = args.gens or args.triple
    if any(abs(v) > CLASSIFY_INPUT_BOUND for v in values):
        print(
            f"error: classify inputs must satisfy |v| <= 10^12, got {values}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        if args.gens:
            triple = from_generators(args.gens[0], args.gens[1])
        else:
            m, a1, b1 = args.triple
            triple = FieldTriple(m, a1, b1)
            triple.validate()
    except InvalidFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    data = subfield_data(triple)
    status = classify_by_splitting(triple)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "m": triple.m,
            "a1": triple.a1,
            "b1": triple.b1,
            "kernels": list(data.kernels),
            "fundamental_discs": list(data.fundamental_discs),
            "disc": data.field_disc,
            "c": data.c,
            "verdict": status.verdict,
            "witness": status.witness,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"triple        (m, a1, b1) = ({triple.m}, {triple.a1}, {triple.b1})")
        print(f"kernels       {data.kernels}")
        print(f"fundamental   {data.fundamental_discs}")
        print(f"disc          {data.field_disc}   (c = {data.c})")
        print(f"splitting     {status.verdict}")
        if status.witness is not None:
            print(f"witness       {status.witness}")
    return EXIT_OK


def _row_blocks(
    records: np.ndarray, columns: tuple[int, ...], part: int, parts: int
) -> Iterator[list[list[int]]]:
    """Column lists of blocks part, part + parts, ... of EMIT_CHUNK rows.

    The blocks of parts 0 .. parts - 1 cover every row once.  One list
    per column and block: lists of the whole array would raise the peak
    memory.
    """
    step = enumeration.EMIT_CHUNK
    for lo in range(part * step, len(records), parts * step):
        yield records[lo : lo + step, columns].T.tolist()


def _disc_identity_violations() -> tuple[int, int]:
    """(tuples, violations) of the discriminant identity and the kernel
    parity law over all tuples with disc <= DISC_IDENTITY_BOUND, checked
    from the raw enumeration records.

    subfield_data raises on either law; a tuple it or FieldTriple rejects
    counts as one violation.  The records are built once; then
    enumeration.split_sum checks alternate blocks of rows in two
    processes when two CPUs are usable.  A function of its own, so that
    the records are freed on return.
    """
    records = enumeration.field_records(DISC_IDENTITY_BOUND)

    def work(part: int, parts: int) -> tuple[int, int]:
        seen = bad = 0
        for block in _row_blocks(records, (0, 1, 2, 3), part, parts):
            seen += len(block[0])
            for m, a1, b1, disc in zip(*block):
                try:
                    if subfield_data(FieldTriple(m, a1, b1)).field_disc != disc:
                        bad += 1
                except InvalidFieldError:
                    bad += 1
        return seen, bad

    return enumeration.split_sum(work)


def _kernel_verdict_mismatches() -> tuple[int, int]:
    """(tuples, disagreements) of the kernel's verdict against the scalar
    splitting oracle on every ordered tuple with |m a1 b1| <=
    EQUIVALENCE_SWEEP_BOUND.  A tuple the oracle rejects as no field
    counts as one disagreement.

    The kernel's chunks are joined into one array (64,140 rows, 3 MB);
    then enumeration.split_sum checks alternate blocks of rows in two
    processes when two CPUs are usable.
    """
    sieve = build_sieve(EQUIVALENCE_SWEEP_BOUND)
    records = np.concatenate(
        [*enumeration.tuple_records(EQUIVALENCE_SWEEP_BOUND)] or [np.empty((0, 6), np.int64)]
    )

    def work(part: int, parts: int) -> tuple[int, int]:
        seen = mismatches = 0
        for block in _row_blocks(records, (0, 1, 2, 5), part, parts):
            seen += len(block[0])
            for m, a1, b1, fails in zip(*block):
                try:
                    if classify_by_splitting(FieldTriple(m, a1, b1), sieve).fails != bool(fails):
                        mismatches += 1
                except InvalidFieldError:
                    mismatches += 1
        return seen, mismatches

    return enumeration.split_sum(work)


def _verify_checks() -> list[tuple[str, str, str, bool, float]]:
    """(name, expected, actual, passed, duration_s) of each check, in order.

    A check's duration is the time since the previous check was added.
    """
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

    signed = asymptotics.signed_failing_class_weight()
    add("signed class weight sum", "0", str(signed), signed == 0)
    blocks = [
        asymptotics.signed_failing_class_weight(sign_pairs=(pair,))
        for pair in asymptotics.SIGN_PAIRS
    ]
    add(
        "signed class weight sum per sign pair",
        "0, 0, 0, 0",
        ", ".join(str(b) for b in blocks),
        all(b == 0 for b in blocks),
    )

    total, bad = _disc_identity_violations()
    add(
        f"discriminant identity, {total} tuples to disc {DISC_IDENTITY_BOUND:.0e}",
        "0 violations",
        f"{bad} violations",
        bad == 0,
    )

    total, mismatches = _kernel_verdict_mismatches()
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
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "passed": ok,
            "checks": [
                {
                    "name": name,
                    "expected": exp,
                    "actual": act,
                    "passed": passed,
                    "duration_s": duration,
                }
                for name, exp, act, passed, duration in checks
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, expected, actual, passed, _ in checks:
            tag = "PASS" if passed else "FAIL"
            print(f"{tag}  {name}: expected {expected}, got {actual}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_constants(args: argparse.Namespace) -> int:
    total = asymptotics.euler_product_total(args.prime_limit)
    failing = asymptotics.euler_product_failing(args.prime_limit)
    cross = asymptotics.main_term_constant_crosscheck(args.prime_limit)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "prime_limit": args.prime_limit,
            "euler_product_total": {
                "value": total.value,
                "tail_bound": total.tail_bound,
            },
            "euler_product_failing": {
                "value": failing.value,
                "tail_bound": failing.tail_bound,
            },
            "crosscheck": {
                "agrees": cross.agrees,
                "direct": cross.direct,
                "assembled": cross.assembled,
                "residual": cross.residual,
                "combined_tail": cross.combined_tail,
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"prime limit                   {args.prime_limit}")
        print(f"Euler product (all fields)    {_float15(total.value)} +- {total.tail_bound:.2e}")
        print(f"Euler product (failures)      {_float15(failing.value)} +- {failing.tail_bound:.2e}")
        print(f"failing main-term coefficient {_float15(cross.direct)}")
        print(f"assembled closed form         {_float15(cross.assembled)}")
        print(f"relative residual             {cross.residual:.2e}")
        print(f"agreement within tails        {cross.agrees}")
    return EXIT_OK if cross.agrees else EXIT_VERIFY_FAILED


def cmd_compare(args: argparse.Namespace) -> int:
    checkpoints = args.checkpoints
    if sorted(checkpoints) != checkpoints:
        print("error: checkpoints must be ascending", file=sys.stderr)
        return EXIT_USAGE
    if checkpoints and checkpoints[-1] >= enumeration.MAX_DISC_EXCLUSIVE:
        print(f"error: checkpoints must be below 2^63, got {checkpoints[-1]}", file=sys.stderr)
        return EXIT_USAGE
    with _open_output("--out", args.out) as out_file:
        c_total = asymptotics.euler_product_total(args.prime_limit).value
        c_failing = asymptotics.euler_product_failing(args.prime_limit).value
        rows = []
        for x in checkpoints:
            report = enumeration.enumerate_fields(x)
            s_main = asymptotics.main_term_total(x, c_total)
            st_main = asymptotics.main_term_failing(x, c_failing)
            rows.append(
                {
                    "X": x,
                    "S": report.S,
                    "S_main": s_main,
                    "S_ratio": report.S / s_main if s_main else 0.0,
                    "Stilde": report.S_tilde,
                    "Stilde_main": st_main,
                    "Stilde_ratio": report.S_tilde / st_main if st_main else 0.0,
                    "fail_fraction": report.fail_fraction,
                }
            )
        if args.format == "json":
            payload = {"schema_version": SCHEMA_VERSION, "rows": rows}
            _emit(json.dumps(payload, indent=2), out_file)
        elif args.format == "text":
            header = f"{'X':>14} {'S':>10} {'S_ratio':>9} {'Stilde':>8} {'St_ratio':>9} {'fail_frac':>10}"
            lines = [header]
            for r in rows:
                lines.append(
                    f"{r['X']:>14} {r['S']:>10} {r['S_ratio']:>9.4f} "
                    f"{r['Stilde']:>8} {r['Stilde_ratio']:>9.4f} {r['fail_fraction']:>10.6f}"
                )
            _emit("\n".join(lines) + "\n", out_file)
        else:
            lines = ["X,S,S_main,S_ratio,Stilde,Stilde_main,Stilde_ratio,fail_fraction"]
            for r in rows:
                lines.append(
                    ",".join(
                        [
                            str(r["X"]),
                            str(r["S"]),
                            _float15(r["S_main"]),
                            _float15(r["S_ratio"]),
                            str(r["Stilde"]),
                            _float15(r["Stilde_main"]),
                            _float15(r["Stilde_ratio"]),
                            _float15(r["fail_fraction"]),
                        ]
                    )
                )
            _emit("\r\n".join(lines) + "\r\n", out_file)
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
    p_count.add_argument("--max-disc", type=positive_bound, required=True)
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
    p_const.add_argument(
        "--prime-limit", type=positive_bound, default=asymptotics.DEFAULT_PRIME_LIMIT
    )
    p_const.add_argument("--format", choices=("text", "json"), default="text")
    p_const.set_defaults(func=cmd_constants)

    p_cmp = sub.add_parser("compare", help="counts vs main terms at checkpoints")
    p_cmp.add_argument(
        "--checkpoints",
        type=lambda s: [positive_bound(x) for x in s.split(",") if x],
        required=True,
        help="comma-separated ascending bounds, e.g. 1e6,1e8,1e10",
    )
    p_cmp.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument(
        "--prime-limit", type=positive_bound, default=asymptotics.DEFAULT_PRIME_LIMIT
    )
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
        print(f"error: cannot write an output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, InvalidFieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # a bound below 2^63 can still ask for sieves larger than memory
        print(f"error: not enough memory for {_size_bounds(args)}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
