import os

import pytest
from tracing import Tracer, import_split, self_time_violations, self_times


def span(id, parent, start, end, pid=1, name="x"):
    return {"id": id, "parent": parent, "name": name, "trace": "t", "pid": pid,
            "start": start, "end": end}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        span("p", None, 0.0, 10.0),
        span("a", "p", 1.0, 4.0, pid=2),
        span("b", "p", 3.0, 6.0, pid=3),  # overlaps a
        span("c", "p", 9.0, 12.0, pid=2),  # runs past the parent's end
    ]
    own = self_times(spans)
    assert own["p"] == 10.0 - 5.0 - 1.0
    assert own["a"] == own["b"] == own["c"] == 3.0


def test_violation_only_when_one_process_overfills_its_parent():
    parallel = [
        span("p", None, 0.0, 2.0),
        span("a", "p", 0.0, 2.0, pid=2),
        span("b", "p", 0.0, 2.0, pid=3),
    ]
    assert self_time_violations(parallel) == 0
    same_process = [dict(s, pid=2) for s in parallel]
    assert self_time_violations(same_process) == 1


def test_forked_worker_spans_are_flushed_and_merged(tmp_path):
    tracer = Tracer(tmp_path, "w")
    op = tracer.start_op(0)
    pid = os.fork()
    if pid == 0:  # a pool worker: record a cell, flush, exit without cleanup
        tracer.after_fork()
        cell = tracer.begin("cell", tracer.cell_trace())
        tracer.end(cell)
        tracer.tallies.setdefault("calls", [0, 0.0, 0])[0] += 3
        tracer.flush()
        os._exit(0)
    os.waitpid(pid, 0)
    tracer.end(op)
    spans, tallies = tracer.collect()
    by_name = {s["name"]: s for s in spans}
    assert set(by_name) == {"op", "cell"}
    assert by_name["cell"]["parent"] == by_name["op"]["id"]
    assert by_name["cell"]["pid"] == pid
    assert by_name["cell"]["trace"] == "w/op-0/cell-0"
    assert tallies["calls"][0] == 3


def test_import_split_by_origin():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:       200 |        200 |     json.decoder",
        "import time:      1000 |       1000 |   numpy.core",
        "import time:        50 |       1350 | repro.sim",
    ])
    split = import_split(stderr)
    assert split == pytest.approx({
        "import.repro_self_s": 50e-6,
        "import.third_party_s": 1000e-6,
        "import.stdlib_s": 300e-6,
    })
