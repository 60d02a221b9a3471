"""Table 3 — evaluating p1 at degree 152 in deca double precision on five GPUs.

The absolute device times come from the calibrated analytic model (no CUDA
device is needed); pytest-benchmark measures the model pricing the schedule of
a scaled-down p1 (a subset of monomials, lower degree, double-double
precision) and the host ``staged`` evaluation of the same polynomial.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import format_table, table3_model
from repro.analysis.paperdata import TABLE3_P1_DECA_D152
from repro.circuits.testpolys import make_polynomial_from_structure, p1_structure
from repro.core import PolynomialEvaluator
from repro.gpusim import TimingModel
from repro.series import random_md_series

from conftest import emit


def test_table3_report(benchmark):
    model = benchmark(table3_model)
    rows = {}
    for device, paper_row in TABLE3_P1_DECA_D152.items():
        rows[device] = {
            "paper wall": paper_row["wall clock"],
            "model wall": model[device]["wall clock"],
            "paper cnv": paper_row["convolution"],
            "model cnv": model[device]["convolution"],
            "ratio": model[device]["wall clock"] / paper_row["wall clock"],
        }
    emit("table3_p1_deca_d152", format_table(rows, "Table 3 — p1, d=152, deca double (paper vs model)"))
    for row in rows.values():
        assert 0.7 < row["ratio"] < 1.3


@pytest.fixture(scope="module")
def mini_p1():
    rng = random.Random(3)
    n, supports = p1_structure()
    subset = supports[::91]  # 20 monomials
    polynomial = make_polynomial_from_structure(n, subset, degree=15, kind="md", precision=2, rng=rng)
    z = [random_md_series(15, 2, rng) for _ in range(n)]
    return polynomial, z


def test_timing_model_prices_mini_p1(benchmark, mini_p1):
    polynomial, _ = mini_p1
    schedule = PolynomialEvaluator(polynomial).schedule
    report = benchmark(TimingModel(device="P100", precision=2).predict, schedule)
    assert report.n_launches == schedule.total_launches
    assert report.wall_clock_ms > 0


def test_host_staged_evaluation_mini_p1(benchmark, mini_p1):
    polynomial, z = mini_p1
    evaluator = PolynomialEvaluator(polynomial, mode="staged")
    result = benchmark(evaluator.evaluate, z)
    assert len(result.gradient) == 16
