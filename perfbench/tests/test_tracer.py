"""Span bookkeeping and self-time arithmetic of the benchmark's tracer."""

from array import array

import tracer as tr


def test_self_times_subtract_direct_children_only():
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90]
    parent = [-1, 0, 1, 0]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    assert tr.self_times(parent, start, end) == [30, 20, 10, 40]


def test_self_times_sum_to_root_duration():
    parent = [-1, 0, 1, 1, 0, 4]
    start = [0, 5, 6, 20, 60, 61]
    end = [100, 50, 10, 45, 99, 98]
    assert sum(tr.self_times(parent, start, end)) == 100


def _synthetic(tracer, spans):
    """Append (name, parent, rep serial, start, end) rows to a tracer."""
    for name, parent, rep, start, end in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(parent)
        tracer.rep.append(rep)
        tracer.start.append(start)
        tracer.end.append(end)


def test_aggregate_keeps_only_the_given_reps():
    tracer = tr.Tracer()
    tracer.pass_label = "check"
    tracer.begin_rep(1)
    tracer.begin_rep(2)
    _synthetic(tracer, [
        ("harness:run_single", -1, 1, 0, 100),
        ("vswitch:process", 0, 1, 10, 30),
        ("harness:run_single", -1, 2, 200, 260),
        ("vswitch:process", 2, 2, 210, 250),
    ])
    assert tr.aggregate(tracer, [1]) == {"harness:run_single": (1, 80, 100),
                                         "vswitch:process": (1, 20, 20)}
    both = tr.aggregate(tracer, tracer.serials("check"))
    assert both["vswitch:process"] == (2, 60, 60)
    assert both["harness:run_single"] == (2, 100, 160)


def test_traced_records_nesting_and_rep():
    tracer = tr.Tracer()
    inner = tracer.traced("endpoint:on_segment", lambda x: x + 1)
    outer = tracer.traced("hosts:deliver", lambda x: inner(x) * 2)
    tracer.begin_rep(7)
    assert outer(1) == 4
    assert [tracer.names[n] for n in tracer.name] == ["hosts:deliver", "endpoint:on_segment"]
    assert list(tracer.parent) == [-1, 0]
    assert list(tracer.rep) == [1, 1]
    assert tracer.rep_info[1] == ("", 7)
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    assert tracer.stack == []


def test_traced_closes_span_when_the_call_raises():
    tracer = tr.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.traced("ids:observe", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.stack == [] and tracer.end[0] >= tracer.start[0] > 0


def test_event_names():
    assert tr.is_event("simnet:delivery")
    assert tr.is_event("controller:event Controller.on_packet_in.<locals>.<lambda>")
    assert not tr.is_event("simnet:schedule")
    assert tr.layer_of("hosts:event EchoHost.run_ping.<locals>.tick") == "hosts"


def test_written_spans_round_trip(tmp_path):
    tracer = tr.Tracer()
    tracer.traced("harness:build", lambda: None)()
    tracer.write(tmp_path)
    raw = array("i")
    with open(tmp_path / "spans.bin", "rb") as fh:
        raw.fromfile(fh, 3)
    assert list(raw) == [0, -1, 0]


def test_scale_divides_by_the_mean_calibration():
    from hostspeed import CAL_REF_NS, scale
    assert scale(1000, CAL_REF_NS, CAL_REF_NS) == 1000
    assert scale(1200, CAL_REF_NS, 2 * CAL_REF_NS) == 800
    assert scale(1200, 2 * CAL_REF_NS, CAL_REF_NS) == 800
