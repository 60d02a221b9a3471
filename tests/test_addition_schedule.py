"""Tests for the addition tree, the schedule statistics and the corollaries."""

from __future__ import annotations

from fractions import Fraction

from repro.circuits import Monomial, Polynomial
from repro.core import build_schedule, schedule_for_polynomial
from repro.core.addition_tree import stage_additions
from repro.core import PolynomialEvaluator
from repro.core.layout import DataLayout
from repro.core.staging import stage_convolutions
from repro.series import PowerSeries, random_fraction_series


class TestAdditionTree:
    def test_pairing_tree_sizes_for_simple_counts(self):
        # 5 monomials on 3 variables, each monomial uses all variables.
        supports = [tuple(range(3))] * 5
        layout = DataLayout(3, supports, degree=1)
        convolutions = stage_convolutions(layout)
        additions = stage_additions(layout, convolutions.products)
        # value group: 5 values + a0 = 6 items -> 3, 1, 1 additions per level
        # derivative groups: 5 items each -> 2, 1, 1
        assert additions.layer_sizes() == [3 + 3 * 2, 1 + 3 * 1, 1 + 3 * 1]
        assert additions.job_count == 5 + 3 * 4

    def test_total_addition_count_matches_polynomial_formula(self, rng):
        from repro.circuits.testpolys import random_polynomial

        p = random_polynomial(7, 12, 3, degree=1, kind="fraction", rng=rng)
        schedule = schedule_for_polynomial(p)
        assert schedule.addition_job_count == p.addition_job_count()

    def test_targets_are_always_writable(self, rng):
        from repro.circuits.testpolys import random_polynomial

        p = random_polynomial(6, 10, 2, degree=1, kind="fraction", rng=rng)
        schedule = schedule_for_polynomial(p)
        layout = schedule.layout
        for job in schedule.additions.jobs:
            assert layout.is_writable(job.target)

    def test_gradient_and_value_slots_recorded(self):
        supports = [(0, 1), (1, 2)]
        layout = DataLayout(3, supports, degree=1)
        convolutions = stage_convolutions(layout)
        additions = stage_additions(layout, convolutions.products)
        assert layout.is_writable(additions.value_slot)
        assert set(additions.gradient_slots) == {0, 1, 2}

    def test_single_variable_monomials_sharing_a_variable(self, rng):
        """Several nk=1 monomials on the same variable: seed copies keep inputs intact."""
        degree = 2
        a = [random_fraction_series(degree, rng) for _ in range(3)]
        constant = PowerSeries.constant(Fraction(1), degree)
        p = Polynomial(1, constant, [Monomial.make(c, [0]) for c in a])
        z = [random_fraction_series(degree, rng)]
        schedule = schedule_for_polynomial(p)
        for job in schedule.additions.jobs:
            assert schedule.layout.is_writable(job.target)
        reference = PolynomialEvaluator(p, mode="reference").evaluate(z)
        staged = PolynomialEvaluator(p, mode="staged").evaluate(z)
        assert reference.max_difference(staged) == 0.0
        # derivative d/dx1 = a1 + a2 + a3 exactly
        assert staged.gradient[0] == a[0] + a[1] + a[2]


class TestScheduleStatistics:
    def test_corollary_3_2_single_monomial(self):
        for nk in (3, 4, 6):
            schedule = build_schedule(nk, [tuple(range(nk))], degree=1)
            assert schedule.convolution_steps() == nk

    def test_corollary_4_1_bound_holds(self, rng):
        from repro.circuits.testpolys import random_polynomial

        for _ in range(5):
            p = random_polynomial(8, 10, 3, degree=1, kind="fraction", rng=rng)
            schedule = schedule_for_polynomial(p)
            assert schedule.theoretical_steps() <= schedule.corollary_4_1_bound() + 2

    def test_summary_contents(self, rng):
        schedule = build_schedule(4, [(0, 1, 2, 3), (0, 1)], degree=3)
        summary = schedule.summary()
        assert summary["degree"] == 3
        assert summary["monomials"] == 2
        assert summary["convolution_jobs"] == 12
        assert summary["scale_jobs"] == 0
        assert len(summary["convolution_launches"]) == schedule.convolution_steps()

    def test_total_launches(self):
        schedule = build_schedule(4, [(0, 1, 2, 3)], degree=2)
        assert schedule.total_launches == len(schedule.convolution_launches) + len(
            schedule.addition_launches
        )

    def test_scale_jobs_created_for_exponents(self, rng):
        degree = 2
        coefficient = random_fraction_series(degree, rng)
        constant = PowerSeries.constant(Fraction(0), degree)
        p = Polynomial(2, constant, [Monomial.make(coefficient, {0: 3, 1: 1})])
        schedule = schedule_for_polynomial(p)
        assert len(schedule.scale_jobs) == 1
        assert schedule.scale_jobs[0].factor == 3
        assert schedule.scale_jobs[0].variable == 0
        assert schedule.total_launches == len(schedule.convolution_launches) + 1 + len(
            schedule.addition_launches
        )

    def test_gradient_slot_for_unused_variable_is_none(self):
        schedule = build_schedule(3, [(0, 1)], degree=1)
        assert schedule.gradient_slot(2) is None
        assert schedule.gradient_slot(0) is not None
