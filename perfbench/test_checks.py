"""Each correctness check of the benchmark must fail on a planted fault.

    PYTHONPATH=src python -m pytest perfbench -q

The faults are planted from here (wrappers, an edited store entry, a
patched experiment), never in ``src/``.  Each test also runs its check
on the unplanted output, which must pass.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import onepass  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spans import Patcher  # noqa: E402

MDS_PAIRS = workloads.family_inputs("grid-k2", 0)[0][2]


def _sweep(store_dir, family=None):
    from repro.experiments.sweep_store import SweepStore
    family = family or onepass.make_family("mds", 2)
    return onepass.run_sweeps([("mds", family, MDS_PAIRS)], 1,
                              SweepStore(str(store_dir)))


def test_flipped_decision_is_caught(tmp_path):
    inputs = [("mds", 2, MDS_PAIRS)]
    __, __, problems = checks.sweep_results(inputs, _sweep(tmp_path / "a"),
                                            "grid-k2", "cold")
    assert problems == []

    family = onepass.make_family("mds", 2)
    target = MDS_PAIRS[7]
    build, predicate = family.build, family.predicate
    last = {}

    def build_(x, y):
        last["pair"] = (tuple(x), tuple(y))
        return build(x, y)

    def predicate_(graph):
        decision = predicate(graph)
        return (not decision) if last["pair"] == target else decision

    # instance attributes: the family declines its batch kernel, so
    # every pair goes through the wrapped per-pair path
    family.build, family.predicate = build_, predicate_
    attempted, failed, problems = checks.sweep_results(
        inputs, _sweep(tmp_path / "b", family), "grid-k2", "cold")
    assert (attempted, failed) == (256, 0)
    assert len(problems) == 1 and "decided 1 pair(s) against NOT DISJ" in problems[0]


def test_altered_store_entry_is_caught(tmp_path):
    inputs = [("mds", 2, MDS_PAIRS)]
    cold = _sweep(tmp_path)
    resume = _sweep(tmp_path)
    assert checks.sweep_results(inputs, resume, "grid-k2", "resume")[2] == []
    assert checks.same_decisions(cold, resume) == []

    entries = sorted(p for p in tmp_path.rglob("*.json") if p.name != "meta.json")
    assert len(entries) == 256
    payload = json.loads(entries[0].read_text())
    payload["decision"] = not payload["decision"]
    entries[0].write_text(json.dumps(payload))
    resume = _sweep(tmp_path)
    assert any("against NOT DISJ" in p
               for p in checks.sweep_results(inputs, resume, "grid-k2", "resume")[2])
    assert checks.same_decisions(cold, resume)


def test_failing_paper_row_is_caught():
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    with open(os.path.join(HERE, "reference_table.md"), encoding="utf-8") as fh:
        reference = fh.read()
    assert checks.paper_table(reference, reference) == []

    eid = "E-T1.1-simulation"
    original = EXPERIMENTS[eid]
    EXPERIMENTS[eid] = lambda quick=True: dataclasses.replace(original(quick=quick),
                                                               passed=False)
    try:
        row = run_experiment(eid).as_row()
    finally:
        EXPERIMENTS[eid] = original
    table = "\n".join(row if line.startswith(f"| {eid} |") else line
                      for line in reference.splitlines())
    problems = checks.paper_table(table, reference)
    assert any("not PASS" in p and eid in p for p in problems)
    assert any("differs from the reference" in p for p in problems)


@pytest.mark.parametrize("planted", [0, 1])
def test_cut_bits_off_by_one_is_caught(planted):
    from repro.cc import alice_bob
    from repro.experiments.runner import run_experiment

    plant = Patcher()
    simulate = alice_bob.simulate_two_party

    @functools.wraps(simulate)
    def off_by_one(*args, **kwargs):
        result = simulate(*args, **kwargs)
        return dataclasses.replace(result, cut_bits=result.cut_bits + planted)

    plant.function(alice_bob, "simulate_two_party", off_by_one)
    tracer = tracing.PassTracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        run_experiment("E-T1.1-simulation")
        t_end = time.perf_counter()
        layers, own_cut_bits = tracer.summary(
            {"pass_s": t_end - t0, "t_end_perf": t_end, "import_s": 0.0})
    finally:
        tracer.uninstall()
        plant.restore()
    assert layers["cc.cut_bits"] > 0
    problems = checks.cut_bits(layers["cc.cut_bits"], own_cut_bits)
    assert bool(problems) == bool(planted)


def test_e_f4_graph_measures_are_rechecked():
    # a path a-b-c: n'=3, maximum degree 2, diameter 2
    dump = {"instances": [{"vertices": ["a", "b", "c"],
                           "edges": [["a", "b"], ["b", "c"]]}]}
    row = ("| E-F4-T3.1-bounded-degree-maxis | claim | base_k=2, n_prime=3 "
           "| chain_checks=2; max_degree=2; diameter={} | PASS |")
    assert checks.e_f4_instances(dump, row.format(2)) == []
    assert any("diameter 2" in p for p in checks.e_f4_instances(dump, row.format(3)))


def test_two_party_answer_check():
    x, y = (1, 0, 1, 0), (0, 0, 1, 1)
    assert checks.two_party_answers({"two_party": [[x, y, False]]}) == []
    assert checks.two_party_answers({"two_party": [[x, y, True]]})
