"""Every correctness gate must be able to fail: each is fed a real,
passing output and then corrupted copies of it."""

import dataclasses
import json

import pytest

import gates
import networks
from repro.core.pipeline import Pipeline
from repro.core.verify import verify_exhaustive_parallel
from repro.service.control import ControlPlane


@pytest.fixture(scope="module")
def ring():
    return networks.load("ring-C8-1-2-k2")


@pytest.fixture(scope="module")
def proof(ring):
    return verify_exhaustive_parallel(ring)


def test_certificate_gate_passes_a_real_proof(ring, proof):
    assert gates.certificate_errors(proof, ring, ring.k) == []


@pytest.mark.parametrize("corruption", [
    {"tolerated": -1},
    {"checked": -1},
    {"counterexample": ("c0", "c1")},
    {"undecided": (("c0",),)},
    {"k": -1},
])
def test_certificate_gate_fails_a_corrupted_certificate(ring, proof, corruption):
    changes = {
        key: (getattr(proof, key) + val if isinstance(val, int) else val)
        for key, val in corruption.items()
    }
    bad = dataclasses.replace(proof, **changes)
    assert gates.certificate_errors(bad, ring, ring.k)


def test_control_gate_passes_a_real_counterexample():
    net = networks.load("ring-C8-1-2-k3")
    k = networks.record("ring-C8-1-2-k3")["control"]["k"]
    cert = verify_exhaustive_parallel(net, k=k)
    assert gates.control_errors(cert, net, k) == []


def test_control_gate_fails_without_a_counterexample(ring, proof):
    assert gates.control_errors(proof, ring, ring.k + 1)


def test_control_gate_fails_a_counterexample_that_has_a_pipeline(ring, proof):
    tolerated = dataclasses.replace(proof, counterexample=("c0",))
    assert gates.control_errors(tolerated, ring, ring.k + 1)


@pytest.fixture()
def answered(ring):
    plane = ControlPlane()
    plane.register("ring", ring)
    plane.submit_fault("ring", "c3").result(timeout=30)
    plane.wait()
    yield plane.query_pipeline("ring"), frozenset({"c3"})
    plane.close()


def test_answer_gate_passes_a_real_answer(ring, answered):
    answer, intended = answered
    assert gates.AnswerGate(ring).errors(answer, intended) == []


def _invalid_pipelines(answer):
    nodes = list(answer.pipeline.nodes)
    swapped = nodes[:1] + [nodes[2], nodes[1]] + nodes[3:]
    yield dataclasses.replace(answer, pipeline=Pipeline(swapped))
    yield dataclasses.replace(answer, pipeline=Pipeline(nodes[:2] + nodes[3:]))


def test_answer_gate_fails_an_invalid_pipeline(ring, answered):
    answer, intended = answered
    for bad in _invalid_pipelines(answer):
        assert gates.AnswerGate(ring).errors(bad, intended)


def test_answer_gate_rechecks_a_new_snapshot_after_a_valid_one(ring, answered):
    # the generator's path: one gate per network sees a passing answer,
    # the very same snapshot again (not re-checked), then new ones
    answer, intended = answered
    gate = gates.AnswerGate(ring)
    assert gate.errors(answer, intended) == []
    assert gate.errors(answer, intended) == []
    for bad in _invalid_pipelines(answer):
        assert gate.errors(bad, intended)
    assert gate.errors(answer, intended) == []


def test_answer_gate_fails_wrong_metadata(ring, answered):
    answer, intended = answered
    gate = gates.AnswerGate(ring)
    assert gate.errors(answer, intended) == []
    stale = dataclasses.replace(answer, faults_outstanding=frozenset({"c5"}))
    assert gate.errors(stale, intended)
    omitting = dataclasses.replace(answer, omitted=frozenset({"c4"}))
    assert gate.errors(omitting, intended)
    # the model admitted a second fault the answer does not own up to
    assert gate.errors(answer, intended | {"c6"})


def test_final_state_gate(ring, answered):
    answer, intended = answered
    args = ("ring", ring, answer.pipeline, answer.faults)
    assert gates.final_state_errors(*args, intended) == []
    assert gates.final_state_errors(*args, frozenset())
    bad = Pipeline(answer.pipeline.nodes[:-2] + answer.pipeline.nodes[-1:])
    assert gates.final_state_errors("ring", ring, bad, answer.faults, intended)


def test_a_corrupted_input_file_is_refused(tmp_path):
    rec = networks.record("G-9-2")
    rec["edges"] = rec["edges"][1:]
    (tmp_path / "G-9-2.json").write_text(json.dumps(rec))
    with pytest.raises(ValueError, match="sha256"):
        networks.load("G-9-2", tmp_path)

