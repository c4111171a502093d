"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria and
tolerances are fixed here, not calibrated: exact identities carry zero
tolerance, the constant cross-check requires 8 significant digits at
prime limit 10^7, and the asymptotic-trend criteria pin their bands and
checkpoints.

Criterion 8 holds S(X) to its three-term expansion

    S(X) = sqrt(X) (A log^2 X + B log X + C) + O(X^(1/2 - delta)),
    A = (23/960) C_total = 0.0027524,  B = 0.0513796,  C = -0.214858

(``asymptotics.expansion_total``).  The main term is only its first term.
The paper's formula and Baily's count of quartic fields both hold up to
terms of relative size 1/log X, and here that relative size is about
(B/A) / log X = 18.67 / log X: S/main is 1.93, 1.79 and 1.66 at the
checkpoints, and the expansion puts its entry into [0.7, 1.3] near
X = 1e25, beyond any enumeration.  So the band [0.7, 1.3] at X = 10^10 is
asserted on S/expansion (0.9998 there), and the monotone-improvement clause
on S/main shows that the main term is the leading term.  The band is
wide: it rejects the main term alone (1.66 at 10^10) and an expansion
that keeps only half of its B term (1.3); the tight agreement
(S/expansion within 0.1% at 10^10) is checked in ``test_asymptotics``.  The count itself is cross-validated against two
independent oracles at criteria 6 and 10.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from _kernel_records import field_records, kernel_rows
from _reference_enumeration import count_by_generator_pairs, iter_valid_triples
from _reference_fields import canonical_key
from biquad_hnp import asymptotics, enumeration
from biquad_hnp.arith import build_sieve
from biquad_hnp.fields import field_values
from biquad_hnp.hnp import oracle_row

CHECKPOINTS = (10**6, 10**8, 10**10)

# one line per criterion; printed live under -s and echoed in the pytest
# terminal summary by conftest.pytest_terminal_summary
REPORT_LINES: list[str] = []


@contextmanager
def _criterion(number: int, title: str):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        state = "FAIL" if failed else "PASS"
        elapsed = time.perf_counter() - start
        line = f"criterion {number:2d} {state}  {title}  ({elapsed:.2f}s)"
        REPORT_LINES.append(line)
        print(f"[acceptance] {line}")


@pytest.fixture(scope="module")
def reports():
    return {x: enumeration.enumerate_fields(x) for x in CHECKPOINTS}


@pytest.fixture(scope="module")
def euler_constants():
    return (
        asymptotics.euler_product_total(10**7).value,
        asymptotics.euler_product_failing(10**7).value,
    )


def test_criterion_1_exact_constant_23():
    with _criterion(1, "exact class-weight constant 23"):
        assert asymptotics.total_class_weight() == 23


def test_criterion_2_exact_constant_112():
    with _criterion(2, "exact failing-class constant 112"):
        assert asymptotics.failing_class_weight() == 112


def test_criterion_3_exact_cancellation():
    with _criterion(3, "signed class weights cancel to 0"):
        weights = asymptotics.signed_failing_class_weights()
        assert len(weights) == len(asymptotics.SIGN_PAIRS)
        assert all(w == 0 for w in weights) and sum(weights) == 0


def test_criterion_4_classifier_equivalence():
    with _criterion(4, "kernel verdict = splitting oracle to |m a1 b1| <= 2000"):
        bound = 2000
        sieve = build_sieve(bound)
        verdicts = {}
        for m, a1, b1, _, _, fails in enumeration.tuple_records(bound).tolist():
            assert (m, a1, b1) not in verdicts
            verdicts[(m, a1, b1)] = bool(fails)
        triples = list(iter_valid_triples(bound))
        assert set(verdicts) == set(triples)
        checked = 0
        for t in triples:
            checked += 1
            assert (oracle_row(*t, sieve)[8] == 0) == verdicts[t], t
        assert checked == 64140  # tens of thousands of cases, all sign patterns


def test_criterion_5_discriminant_identity():
    with _criterion(5, "discriminant identity and parity law to disc 1e8"):
        records = field_records(10**8)
        v1, v2, v3 = records[:, 0], records[:, 1], records[:, 2]
        k = np.stack((v1 * v2, v1 * v3, v2 * v3), axis=1)
        d = np.where(k % 4 == 1, k, 4 * k)
        lhs = np.abs(d[:, 0] * d[:, 1] * d[:, 2])
        rhs = (records[:, 4] * np.abs(v1 * v2 * v3)) ** 2
        assert np.array_equal(lhs, rhs)
        assert np.array_equal(lhs, records[:, 3])
        ones = (k % 4 == 1).sum(axis=1)
        assert set(np.unique(ones)) <= {0, 1, 3}
        # independent object-layer route, exhaustive over |m a1 b1| <= 10^4
        # (field_values recomputes c and asserts the identity internally)
        checked = 0
        for t in iter_valid_triples(10**4):
            k1, k2, k3 = field_values(*t)[:3]
            assert (k1 % 4 == 1) + (k2 % 4 == 1) + (k3 % 4 == 1) in (0, 1, 3)
            checked += 1
        assert checked == 428580


def test_criterion_6_dedup_consistency():
    with _criterion(6, "ordered count = 6 x canonical dedup at 1e4, 1e6, 1e8"):
        for x in (10**4, 10**6, 10**8):
            rows, _keys = enumeration.unique_field_rows(kernel_rows(x))
            assert 6 * len(rows) == enumeration.enumerate_fields(x).ordered_total


def test_criterion_7_constant_identity():
    with _criterion(7, "main-term constant forms agree to 8 digits at 1e7"):
        check = asymptotics.main_term_constant_crosscheck(10**7)
        assert check.agrees  # within combined rigorous tails
        assert check.residual <= 1e-8


def test_criterion_8_total_count_trend(reports, euler_constants):
    with _criterion(8, "S(X)/expansion ratio band, S(X)/main monotone improvement"):
        c_total, _ = euler_constants
        ratios = {
            x: reports[x].S / asymptotics.main_term_total(x, c_total)
            for x in CHECKPOINTS
        }
        deviations = [abs(ratios[x] - 1.0) for x in CHECKPOINTS]
        assert deviations == sorted(deviations, reverse=True), ratios
        full = {x: reports[x].S / asymptotics.expansion_total(x) for x in CHECKPOINTS}
        assert 0.7 <= full[10**10] <= 1.3, full


def test_criterion_9_failing_count_trend(reports, euler_constants):
    with _criterion(9, "S~(X)/main ratio band, monotone, fail fraction decreasing"):
        _, c_failing = euler_constants
        ratios = {
            x: reports[x].S_tilde / asymptotics.main_term_failing(x, c_failing)
            for x in CHECKPOINTS
        }
        deviations = [abs(ratios[x] - 1.0) for x in CHECKPOINTS]
        assert deviations == sorted(deviations, reverse=True), ratios
        assert 0.5 <= ratios[10**10] <= 1.5, ratios
        fractions = [reports[x].fail_fraction for x in CHECKPOINTS]
        assert fractions[0] > fractions[1] > fractions[2], fractions


def test_criterion_10_small_x_ground_truth():
    with _criterion(10, "S(143) = 0, S(144) = 1, first field is Q(i, sqrt(3))"):
        assert count_by_generator_pairs(143) == (0, 0)
        assert count_by_generator_pairs(144) == (1, 0)
        assert enumeration.enumerate_fields(143).S == 0
        delivered = []
        report = enumeration.enumerate_fields(
            144, sink=lambda columns: delivered.extend(columns.tolist())
        )
        assert report.S == 1 and report.S_tilde == 0
        m, a1, b1, _, _, _, d1, d2, d3, _, disc, witness = delivered[0]
        assert sorted((d1, d2, d3)) == [-4, -3, 12]
        assert disc == 144
        assert canonical_key((m, a1, b1)) == (-4, -3, 12)
        assert witness != 0  # the principle holds
