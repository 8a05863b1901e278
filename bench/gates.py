"""Correctness gates: each returns the reasons an output is wrong
(an empty list means it passed), so a run can count failures instead
of stopping at the first one."""

from __future__ import annotations

from math import comb


def certificate_errors(cert, network, k: int) -> list[str]:
    """A proof certificate must cover every fault set of size <= k."""
    expected = sum(comb(len(network.graph), j) for j in range(k + 1))
    errors = []
    if cert.k != k:
        errors.append(f"certificate is for k={cert.k}, not k={k}")
    if cert.counterexample is not None:
        errors.append(f"counterexample {sorted(cert.counterexample)}")
    if cert.undecided:
        errors.append(f"{len(cert.undecided)} fault sets undecided")
    if not cert.checked == cert.tolerated == expected:
        errors.append(
            f"checked {cert.checked}, tolerated {cert.tolerated}, "
            f"expected {expected}"
        )
    return errors


def control_errors(cert, network, k: int) -> list[str]:
    """At k+1 the engine must report a counterexample of at most k+1
    nodes, and an independent exact solve must find no pipeline
    without them."""
    from repro.core.hamilton import SpanningPathInstance, Status, solve

    if cert.counterexample is None:
        return [f"no counterexample reported at k={k}"]
    faults = cert.counterexample
    if len(set(faults)) > k or not set(faults) <= set(network.graph.nodes):
        return [f"counterexample {sorted(faults)} is not a fault set of size <= {k}"]
    report = solve(SpanningPathInstance(network.surviving(faults)))
    if report.status is not Status.NONE:
        return [
            f"counterexample {sorted(faults)} is not confirmed: the exact "
            f"solver says {report.status.value}"
        ]
    return []


class AnswerGate:
    """Gates the served answers of one network.

    An answer must be a pipeline of the fault set it reports, and its
    staleness metadata must match the admitted-event model (*intended*:
    the fault set once every admitted event applies).  ``is_pipeline``
    runs once per distinct ``(pipeline, faults)`` snapshot: a query that
    returns the very objects of the last snapshot that passed is not
    re-checked, so the gate keeps up with the read rate.  Metadata is
    checked on every answer.
    """

    def __init__(self, network) -> None:
        self.network = network
        self.processors = network.processors
        self._passed = (None, None)

    def errors(self, answer, intended: frozenset) -> list[str]:
        errors = []
        if (answer.pipeline is not self._passed[0]
                or answer.faults is not self._passed[1]):
            errors = pipeline_errors(self.network, answer)
            if not errors:
                self._passed = (answer.pipeline, answer.faults)
        return errors + metadata_errors(self.processors, answer, intended)


def pipeline_errors(network, answer) -> list[str]:
    from repro.core.pipeline import is_pipeline

    if is_pipeline(network, answer.pipeline.nodes, answer.faults):
        return []
    return [f"{answer.network}: answer is not a pipeline of its faults"]


def metadata_errors(processors, answer, intended: frozenset) -> list[str]:
    errors = []
    outstanding = intended - answer.faults
    omitted = processors - intended - set(answer.pipeline.nodes)
    if answer.faults_outstanding != outstanding:
        errors.append(
            f"{answer.network}: faults_outstanding "
            f"{sorted(answer.faults_outstanding)} != {sorted(outstanding)}"
        )
    if answer.omitted != omitted:
        errors.append(
            f"{answer.network}: omitted {sorted(answer.omitted)} "
            f"!= {sorted(omitted)}"
        )
    return errors


def final_state_errors(name, network, pipeline, faults, intended) -> list[str]:
    """After the drain, each network holds exactly the model's faults
    and a pipeline through all of its healthy processors."""
    from repro.core.pipeline import is_pipeline

    errors = []
    if frozenset(faults) != intended:
        errors.append(
            f"{name}: final faults {sorted(faults)} != model {sorted(intended)}"
        )
    if not is_pipeline(network, pipeline.nodes, faults):
        errors.append(f"{name}: final pipeline is not valid")
    return errors
