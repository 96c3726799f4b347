"""Self-tests of the benchmark: a smoke pass of every workload on the
smallest bases (C2, Klein, A4) that runs every check, and planted wrong
answers that each check must reject.

    python3 -m pytest perfbench
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import models  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def smoke_ops(workload, lib, seed=0):
    items = workloads.make_items(workload, seed, smoke=True)
    for item in items:
        item.presentation = lib.pr.parse_presentation(item.text)
    return items, workloads.make_ops(workload, items, lib, seed, smoke=True)


def observe(ops, lib):
    tracer, state = spans.Tracer(True), {}
    return [(op, op.run(lib, tracer, state)) for op in ops], tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_runs_every_check(workload, lib):
    items, ops = smoke_ops(workload, lib)
    assert [p for item in items for p in workloads.parse_problems(item)] == []
    results, tracer = observe(ops, lib)
    for op, obs in results:
        assert op.check(obs, lib) == [], op.name
    assert tracer.counts["todd_coxeter.enumerate_calls"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_measure_counts_whole_rounds_and_failures(workload, lib):
    _, ops = smoke_ops(workload, lib)

    def broken(lib, tracer, state):
        raise ValueError("planted failure")

    ops.append(workloads.Op("broken", broken, lambda obs, lib: []))
    result = run.measure(ops, lib, spans.Tracer(False), 0.0, lambda msg: None)
    assert len(result["rounds"]) == 1
    assert result["attempted"] == len(ops)
    assert result["failed"] == 1
    assert result["problems"] == []


def test_same_seed_same_inputs_and_counts(lib):
    first = [(i.text, i.names) for i in workloads.make_items("kernel-ladder", 7)]
    again = [(i.text, i.names) for i in workloads.make_items("kernel-ladder", 7)]
    other = [(i.text, i.names) for i in workloads.make_items("kernel-ladder", 8)]
    assert first == again != other
    counts = []
    for seed in (7, 8):
        _, ops = smoke_ops("kernel-ladder", lib, seed)
        counts.append(observe(ops, lib)[1].counts)
    assert counts[0] == counts[1]


def test_parse_check_rejects_a_different_presentation(lib):
    items, _ = smoke_ops("kernel-ladder", lib)
    items[1].presentation = items[2].presentation
    assert workloads.parse_problems(items[1])


def test_model_rejects_images_that_break_a_relator():
    base = models.BASES["A4"]
    with pytest.raises(models.ModelError):
        models.build_model(replace(base, images=(base.images[1], base.images[0])))


def test_models_give_reference_orders():
    got = {}
    for name in ("S4", "A5", "SL(2,5)", "Q8"):
        model = models.build_model(models.BASES[name])
        got[name] = (model.order, model.derived_order)
    assert got == {"S4": (24, 12), "A5": (60, 60), "SL(2,5)": (120, 120), "Q8": (8, 2)}


def _by_name(results, prefix):
    return next((op, obs) for op, obs in results if op.name.startswith(prefix))


def _rejects(op, obs, lib, phrase):
    problems = op.check(obs, lib)
    assert any(phrase in p for p in problems), problems


def test_ladder_checks_reject_planted_answers(lib):
    results, _ = observe(smoke_ops("kernel-ladder", lib)[1], lib)
    op, obs = _by_name(results, "rung A4")
    assert obs.w_order == 2
    _rejects(op, replace(obs, w_order=4), lib, "|X| != |W| |im rho|")
    _rejects(op, replace(obs, index=obs.index + 1), lib, "index * |G| != |X|")
    _rejects(op, replace(obs, base_order=24), lib, "|G| differs")
    _rejects(op, replace(obs, rho_image_order=obs.rho_image_order * 2), lib, "|im rho|")
    _rejects(op, replace(obs, perfect=(True, True)), lib, "perfectness")
    a, b = ((0, 1),), ((1, 1),)
    _rejects(op, replace(obs, w_letters=[a, b]), lib, "not in ker rho")
    _rejects(op, replace(obs, w_letters=[a, b]), lib, "W is not abelian")
    _rejects(op, replace(obs, w_letters=[(), ()]), lib, "act alike")


def test_ladder_perfect_checks_reject_planted_answers(lib):
    results, _ = observe(smoke_ops("kernel-ladder", lib)[1], lib)
    _, obs = _by_name(results, "rung A4")
    item = next(i for i in workloads.make_items("kernel-ladder", 0, smoke=True) if i.base.name == "A4")
    # Pretend A4 were perfect with a trivial multiplier, so that the checks
    # of perfect bases run on its W of order 2.
    item.model = models.Model(replace(item.base, schur_multiplier=1), item.model.order, item.model.order)
    assert "A4: |W| does not divide |M(G)|^3" in workloads.ladder_check(item, obs)
    non_central = replace(obs, w_letters=[(), ((0, 1),)])
    assert "A4: W is not central" in workloads.ladder_check(item, non_central)


def test_realized_checks_reject_planted_answers(lib):
    results, _ = observe(smoke_ops("realized-doubles", lib)[1], lib)
    op, obs = _by_name(results, "base A4")
    _rejects(op, replace(obs, l_order=obs.l_order + 1), lib, "|L| |G| != |X|")
    _rejects(op, replace(obs, d_order=obs.d_order + 1), lib, "|D| |G|^2 != |X|")
    _rejects(op, replace(obs, t_order=obs.t_order - 1), lib, "|G^3|")
    _rejects(op, replace(obs, w_elements=(0,)), lib, "|X| != |W| |G|^2 |G'|")
    _rejects(op, replace(obs, w_elements=(0,)), lib, "coset-table route")
    generator = obs.x.gen_perms[0][0]
    _rejects(op, replace(obs, w_elements=obs.w_elements + (generator,)), lib, "W is not central")
    _rejects(op, replace(obs, derived_order=obs.derived_order * 2), lib, "|X/X'|")
    _rejects(op, replace(obs, classes=obs.classes[1:]), lib, "partition")
    _rejects(op, replace(obs, center_elements=(0,)), lib, "singleton classes")
    _rejects(op, replace(obs, torsion_orders=(1, 3)), lib, "orders differ")


def test_audit_checks_reject_planted_answers(lib):
    results, _ = observe(smoke_ops("idempotent-audit", lib)[1], lib)
    op, obs = _by_name(results, "conjugated")
    _rejects(op, replace(obs, kappa=obs.kappa + 1), lib, "kappa")
    _rejects(op, replace(obs, epsilon=obs.epsilon - 1), lib, "epsilon")
    op, obs = _by_name(results, "torsion X(A4)")
    _rejects(op, replace(obs, kappa=Fraction(1, 7)), lib, "kappa")
    _rejects(op, replace(obs, pushed_kappa=obs.pushed_kappa * 2), lib, "pushed to G^3")
    op, obs = _by_name(results, "context X(Klein)")
    _rejects(op, replace(obs, g_order=8), lib, "differs from the model")
    for prefix in ("pairs finite", "pairs F2", "pairs BS"):
        op, obs = _by_name(results, prefix)
        kxy, kyx, exy, ex, ey = obs.values[0]
        _rejects(op, replace(obs, values=[(kxy + 1, kyx, exy, ex, ey)] + obs.values[1:]), lib, "pair")
        _rejects(op, replace(obs, values=[(kxy, kyx, exy, ex + 1, ey)] + obs.values[1:]), lib, "pair")
