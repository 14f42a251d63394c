"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest perfbench/selftest.py

Each workload's first instance is solved untraced twice and traced once; the
answer bytes must agree, and the traced counts must show that the workloads
separate the layers as the benchmark claims.
"""

import json
import shutil
import subprocess
import sys

import pytest

import prepare

prepare.use_checkout_sources()

import capsec.solver  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# counts that must read 0 on a workload (the layer it bypasses)
ZERO_COUNTS = {
    "vpolytope_census": ("sections.linprog",),
    "analytic_census": ("sections.qhull", "sections.linprog"),
}
NONZERO_COUNTS = {
    "vpolytope_census": ("sections.qhull", "sections.cap_volume", "sections.section", "functional.evaluate"),
    "analytic_census": ("sections.hyperplane_chart", "sections.cap_volume", "bodies.support", "functional.evaluate"),
}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def solved(request):
    workload = workloads.WORKLOADS[request.param]
    (inst,) = workload.instances(seed=1, count=1)
    answer = workload.run(inst)
    assert workload.gate(inst, answer) == (True, [])
    return workload, inst, workload.encode(inst, answer)


def test_two_runs_give_identical_answers(solved):
    workload, inst, blob = solved
    assert workload.encode(inst, workload.run(inst)) == blob


def test_traced_answers_equal_untraced_and_layers_separate(solved):
    workload, inst, blob = solved
    tracer = Tracer()
    with tracer.active():
        traced = workload.encode(inst, workload.run(inst))
    assert traced == blob
    for layer in ZERO_COUNTS[workload.name]:
        assert tracer.calls[layer] == 0, layer
    for layer in NONZERO_COUNTS[workload.name]:
        assert tracer.calls[layer] > 0, layer
    assert tracer.section_methods["monte-carlo"] == 0


def test_every_capsec_reference_is_wrapped_while_tracing():
    originals = (capsec.solver.evaluate, capsec.solver.cap_volume, capsec.solver.hyperplane_chart)
    tracer = Tracer()
    with tracer.active():
        assert tracer.unwrapped_references() == []
        assert all(getattr(capsec.solver, f.__name__) is not f for f in originals)
        assert not tracer.absent
    assert all(getattr(capsec.solver, f.__name__) is f for f in originals)


def test_missing_stage_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(capsec.solver, "_classify")
    tracer = Tracer()
    with tracer.active():
        assert tracer.absent == ["capsec.solver._classify"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(prepare.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(prepare.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic_census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
