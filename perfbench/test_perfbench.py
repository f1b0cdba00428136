"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from symcon.characters import to_schur  # noqa: E402
from symcon.repmodels import MODULE_IDS, module_char, module_char_plethystic  # noqa: E402
from symcon.verify import CATALOG  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_smoke_trace_reports_every_per_layer_metric():
    res = _result(_bench("--workload", "expand-20", "--seed", "3", "--seconds", "1",
                         "--trace", "1", "--smoke"))
    assert res["correct"] and res["failed"] == 0
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == tracing.per_layer_metrics()
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert values["characters.table_builds"] == 1
    assert values["characters.to_schur_calls"] == 6
    assert values["symfunc.plethystic_sum_calls"] == 0
    assert values["fraction.mul_calls"] > 0
    assert os.path.exists(os.path.join(ROOT, "perfbench", "out", "spans-expand-20-smoke.json.gz"))


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()


def test_sampler_times_the_kernel_and_leaves_it_out_of_the_work():
    with hostspeed.Sampler() as host:
        t = time.perf_counter()
        while time.perf_counter() - t < 0.6:
            pass
    assert len(host.samples) >= 4  # before, at least two inside, after
    assert host.paused_s > 0
    assert abs(host.work_s + host.paused_s - 0.6) < 0.05
    assert hostspeed.scale([hostspeed.REFERENCE_KERNEL_S] * 3) == 1


def test_catalog_groups_match_the_catalog():
    groups = list(dict.fromkeys(e.group for e in CATALOG))
    assert groups == list(tracing.CATALOG_GROUPS)


def test_without_sources_the_benchmark_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _schur_mults(mid, n):
    se = to_schur(module_char(mid, n), n)
    return dict(se.mults), se.verdict


@pytest.mark.parametrize("mid", ["psi", "eps", "psi-a", "psi-abar", "eps-a", "eps-abar"])
def test_expansion_checks_pass_on_symcon_output(mid):
    mults, verdict = _schur_mults(mid, 7)
    assert oracle.check_expansion(mid, 7, mults, verdict) == []


@pytest.mark.parametrize("mid", ["psi", "eps-a"])
def test_perturbed_multiplicity_fails_parseval_or_dimension(mid):
    mults, verdict = _schur_mults(mid, 7)
    nu = (4, 2, 1)
    mults[nu] = mults.get(nu, Fraction(0)) + 1
    problems = oracle.check_expansion(mid, 7, mults, verdict)
    assert any("Parseval" in p or "dimension" in p for p in problems), problems


def test_missing_shape_fails_positivity():
    mults, verdict = _schur_mults("psi", 6)
    mults[(3, 3)] = Fraction(0)
    assert any("Schur-positive" in p for p in oracle.check_expansion("psi", 6, mults, verdict))


@pytest.mark.parametrize("mid", MODULE_IDS)
def test_route_check_passes_on_symcon_output(mid):
    closed, pleth = module_char(mid, 7), module_char_plethystic(mid, 7)
    assert worker.check_route(f"routes.{mid}", [closed.terms, pleth.terms], True, 7, 6) == []


def test_perturbed_route_result_fails_the_route_check():
    closed, pleth = module_char("psi-a", 7), module_char_plethystic("psi-a", 7)
    perturbed = dict(pleth.terms)
    perturbed[(3, 3, 1)] += Fraction(1, 2)
    problems = worker.check_route("routes.psi-a", [closed.terms, perturbed], True, 7, 6)
    assert any("closed vs plethystic" in p for p in problems), problems


def test_thm59_check_catches_a_wrong_family():
    k, m = 4, 6
    divides = oracle.family_terms(lambda lam: oracle.divides_k(lam, k), m)
    fam59 = oracle.family_terms(lambda lam: oracle.thm59_member(lam, k), m)
    good = [divides, divides, divides, fam59, fam59]
    assert worker.check_route(f"thm5.9:k{k}", good, True, 7, m) == []
    bad = dict(fam59)
    bad[(1,) * m] = Fraction(2)
    assert worker.check_route(f"thm5.9:k{k}", good[:3] + [bad, fam59], True, 7, m)


def test_hook_dimensions_sum_to_n_factorial():
    from math import factorial

    for n in range(1, 9):
        assert sum(oracle.hook_dimension(nu) ** 2 for nu in oracle.partitions(n)) == factorial(n)


def test_tracer_total_counts_outermost_spans_and_self_subtracts_children():
    t = tracing.Tracer()
    ticks = iter(range(100))
    t.clock = lambda: float(next(ticks))

    def leaf():
        return None

    def nested(depth):
        if depth:
            traced_nested(depth - 1)
        traced_leaf()

    traced_leaf = t.wrap("leaf", leaf)
    traced_nested = t.wrap("nested", nested)
    traced_nested(1)
    agg = t.summary()
    # ticks: nested(1) 0..7 > [nested(0) 1..4 > leaf 2..3], leaf 5..6
    assert list(t.parent) == [-1, 0, 1, 0]
    assert agg["calls"] == {"nested": 2, "leaf": 2}
    assert agg["total"] == {"nested": 7.0, "leaf": 2.0}
    assert agg["self"] == {"nested": 5.0, "leaf": 2.0}
