"""Independent numeric cross-check of the exact engine."""

import math

import pytest

from wresbd.boundary import CASES, evaluate_case
from wresbd.oracle import (OracleAssignment, _sphere_numeric, oracle_case,
                           sphere_moment_numeric)
from wresbd.ring import GRat, Scalar, sphere_integrate, sphere_moment

OMEGA4 = 8.0 * math.pi ** 2 / 3.0


def _close(a, b, tol=1e-9):
    scale = max(abs(a), abs(b), 1e-10)
    return abs(a - b) <= tol * scale


def test_numeric_sphere_moments_match_exact_table():
    exps_list = [(0, 0, 0, 0, 0), (2, 0, 0, 0, 0), (0, 0, 4, 0, 0),
                 (2, 2, 0, 0, 0), (2, 2, 2, 0, 0), (6, 0, 0, 0, 0),
                 (4, 2, 0, 0, 0), (2, 2, 2, 2, 0), (1, 0, 0, 0, 0),
                 (3, 1, 2, 0, 0), (0, 0, 0, 0, 2)]
    for exps in exps_list:
        exact = float(sphere_moment(exps)) * OMEGA4
        numeric = sphere_moment_numeric(exps)
        assert _close(exact, numeric, 1e-12), exps


def test_numeric_sphere_integral_matches_exact():
    xi = [Scalar.sym("XI%d" % j) for j in range(1, 6)]
    h1, dimf, t = Scalar.sym("H1"), Scalar.sym("DIMF"), Scalar.sym("T:Phi:2")
    scalars = [
        Scalar.sym("XI5", 4) * Scalar.rational(3, 7),
        xi[0] * xi[0] * h1 + xi[1] * xi[2] * dimf + Scalar.sym("XI5", 4) * t,
        (xi[0] + xi[4] * Scalar.from_grat(GRat(1, 2)))
        * (xi[0] - xi[4]) * h1 * h1
        + xi[2] * xi[2] * xi[2] * xi[3] * t,
        (xi[3] * xi[3] * Scalar.sym("XI5", 2) + Scalar.sym("XI5", 4)) * dimf
        * Scalar.sym("SH", 3) + xi[1] * Scalar.sym("PI"),
    ]
    for seed in (1, 2):
        env = OracleAssignment(seed).env
        for s in scalars:
            exact = complex(sphere_integrate(s).evaluate(env))
            assert _close(_sphere_numeric(s, env), exact, 1e-12), s


def test_assignment_is_reproducible_and_consistent():
    a = OracleAssignment(42)
    b = OracleAssignment(42)
    assert a.env == b.env
    # the curvature value is tied to the metric derivative
    assert _close(a.env["K"], -2.5 * a.env["H1"], 1e-14)
    assert a.env["SH"] == 1.0
    assert _close(a.env["OMEGA4"], OMEGA4, 1e-14)
    # trace symbols agree with literal matrix traces
    for (key, val) in a.env.items():
        if key.startswith("T:"):
            _, fam, j = key.split(":")
            assert _close(val, a.endo_trace(((fam, int(j)),)), 1e-12)


def test_distinct_seeds_differ():
    assert OracleAssignment(1).env["H1"] != OracleAssignment(2).env["H1"]


@pytest.mark.parametrize("fam", ["dirac", "signature"])
@pytest.mark.parametrize("seed", [3, 11])
def test_engine_matches_oracle_per_block(fam, seed):
    assignment = OracleAssignment(seed)
    for case in CASES:
        exact = evaluate_case(fam, case)
        blocks, total = oracle_case(fam, case, assignment)
        for name, val in exact.blocks.items():
            got = complex(val.evaluate(assignment.env))
            scale = max(abs(got), abs(blocks[name]), 1.0)
            assert abs(got - blocks[name]) <= 1e-8 * scale, (case.case_id,
                                                             name)
        exact_total = complex(exact.value.evaluate(assignment.env))
        assert abs(exact_total - total) <= 1e-8 * max(abs(total), 1.0)
