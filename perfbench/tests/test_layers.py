"""Wrapper install and restore over every by-name binding in repro."""

import numpy as np
import pytest

from perfbench import layers
from perfbench.tracer import Tracer


def _bindings(name):
    """Every (owner, key) in the repro namespaces bound to ``name``'s original."""
    import repro.md.vecops as vecops

    original = getattr(vecops, name)
    return [
        (owner, key)
        for owner, namespace in layers._namespaces()
        for key, value in namespace.items()
        if value is original
    ]


def test_install_wraps_every_binding_and_restore_undoes_it():
    import repro.core.tensor as tensor
    import repro.homotopy.batch_linsolve as solve
    import repro.homotopy.scheduler as scheduler
    import repro.md.vecops as vecops
    import repro.service.fleet as service_fleet
    from repro.core.context import EvalContext

    original_mul = vecops.md_mul_rows
    original_solve = solve.solve_packed
    original_update = EvalContext.__dict__["update_inputs"]
    before = _bindings("md_mul_rows")
    assert len(before) >= 3  # vecops itself, core.tensor, homotopy.batch_linsolve, ...

    tracer = Tracer()
    installation = layers.install(tracer)
    try:
        assert installation.unwrapped() == []
        assert tensor.md_mul_rows is not original_mul
        assert tensor.md_mul_rows is vecops.md_mul_rows
        assert scheduler.solve_packed is service_fleet.solve_packed is solve.solve_packed
        assert solve.solve_packed is not original_solve
        assert EvalContext.__dict__["update_inputs"] is not original_update
        a = [np.full((2, 3), 1.5), np.zeros((2, 3))]
        out = tensor.md_mul_rows(a, a, 2)
        assert out[0][0, 0] == 2.25
    finally:
        installation.restore()
    assert vecops.md_mul_rows is original_mul
    assert tensor.md_mul_rows is original_mul
    assert scheduler.solve_packed is original_solve
    assert EvalContext.__dict__["update_inputs"] is original_update
    assert _bindings("md_mul_rows") == before
    assert installation.leftover_wrappers() == []
    assert tracer.calls["md.md_mul_rows"] == 1
    assert tracer.layer_entries["md"] == 1
    # md_mul_rows renormalises through vec_renormalize: a nested md call.
    assert tracer.calls["md.vec_renormalize"] >= 1
    assert tracer.layer_counts["md"]["elements"] == 6


def test_scan_reports_a_rebound_original():
    import repro.core.tensor as tensor
    import repro.md.vecops as vecops

    original = vecops.md_add_rows
    installation = layers.install(Tracer())
    try:
        tensor.md_add_rows = original  # a late by-name import of the original
        assert installation.unwrapped() == ["repro.core.tensor.md_add_rows"]
    finally:
        installation.restore()
    assert tensor.md_add_rows is original


def test_install_fails_and_restores_when_a_binding_is_missed(monkeypatch):
    import repro.core.tensor as tensor
    import repro.md.vecops as vecops

    original = vecops.md_add_rows
    real = layers._namespaces
    scans = []

    def first_scan_skips_tensor():
        scans.append(1)
        for owner, namespace in real():
            if len(scans) == 1 and owner is tensor:
                continue
            yield owner, namespace

    monkeypatch.setattr(layers, "_namespaces", first_scan_skips_tensor)
    with pytest.raises(RuntimeError, match="repro.core.tensor.md_add_rows"):
        layers.install(Tracer())
    assert vecops.md_add_rows is original
    assert tensor.md_add_rows is original
