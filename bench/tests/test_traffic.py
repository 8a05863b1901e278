"""The load generator's admitted-event model and its inline answer gate."""

import networks
from repro.service.control import ControlPlane, ControlPlaneConfig
from stats import quantile
from traffic import Generator, Member, PhaseStats, _InFlight, combine


def _member(name="ring", input_name="ring-C8-1-2-k2"):
    net = networks.load(input_name)
    return Member(name, net, net.k, sorted(net.processors))


def test_open_loop_stays_in_tolerance_and_every_answer_passes():
    m = _member()
    with ControlPlane() as plane:
        plane.register(m.name, m.network)
        gen = Generator(plane, [m], seed=3, query_ratio=0.5)
        st = gen.open_loop("t", rate=400, seconds=1.0, drain_deadline=20)
        assert st.events and st.queries
        assert (st.shed, st.errors, st.undrained, st.bad_answers) == (0, 0, 0, 0)
        assert len(m.failed) <= m.k
        plane.wait()
        (_, _, pipeline, faults), = plane.final_states()
        assert faults == m.failed


def test_closed_loop_slices_combine_into_one_phase():
    m = _member()
    with ControlPlane() as plane:
        plane.register(m.name, m.network)
        gen = Generator(plane, [m], seed=5, query_ratio=0.2)
        parts = [gen.closed_loop("latency", 0.3, window, drain_deadline=20)
                 for window in (1, 4, 1)]
        st = combine("latency", parts)
        assert st.seconds == sum(p.seconds for p in parts)
        assert st.requests == sum(p.requests for p in parts) > 0
        assert st.event_latency == [x for p in parts for x in p.event_latency]
        assert (st.shed, st.errors, st.undrained, st.bad_answers) == (0, 0, 0, 0)
        assert len(m.failed) <= m.k
        plane.wait()
        (_, _, pipeline, faults), = plane.final_states()
        assert faults == m.failed


def test_a_shed_event_leaves_the_model_unchanged():
    m = _member()
    with ControlPlane(ControlPlaneConfig(max_pending=1)) as plane:
        plane.register(m.name, m.network)
        plane.pause(m.name)
        gen = Generator(plane, [m], seed=0, query_ratio=0.0)
        stats = PhaseStats("t", None, 0.0)
        inflight = _InFlight(stats, 0.0)
        assert gen._submit(m, stats, inflight, 0.0)
        admitted = m.failed
        assert not gen._submit(m, stats, inflight, 0.0)
        assert stats.shed == 1 and m.failed == admitted
        plane.resume(m.name)
        assert inflight.drain(20) == 0


def test_a_wrong_model_fails_the_inline_answer_gate():
    m = _member()
    with ControlPlane() as plane:
        plane.register(m.name, m.network)
        gen = Generator(plane, [m], seed=0, query_ratio=1.0)
        m.failed = frozenset({"c2"})  # an event the plane never saw
        st = gen.open_loop("t", rate=200, seconds=0.2, drain_deadline=20)
        assert st.queries and st.bad_answers == st.queries


def test_quantile_interpolates_between_ranks():
    assert quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert quantile(range(11), 0.9) == 9.0
    assert quantile([], 0.5) == 0.0
