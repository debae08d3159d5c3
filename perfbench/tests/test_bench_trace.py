import contextlib
import io
import sys

import numpy as np
import pytest
import scipy.linalg
import spincat.cli
from spincat.control import PulseSchedule, PulseSegment

from perfbench import run, trace, workloads


def test_self_time_of_nested_and_overlapping_spans():
    # 0: root [0, 10]; 1 and 2 are its children from two threads and overlap
    # on [3, 4]; 3 is a child of 1; 4 is a second root
    start = [0.0, 1.0, 3.0, 1.5, 20.0]
    end = [10.0, 4.0, 6.0, 2.0, 21.0]
    parent = [-1, 0, 0, 1, -1]
    got = trace.self_times(start, end, parent)
    np.testing.assert_allclose(got, [10 - 5, 3 - 0.5, 3, 0.5, 1])


def test_self_times_sum_to_root_time_without_overlap():
    start = [0.0, 1.0, 2.0, 5.0, 5.5]
    end = [9.0, 4.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 1, 0, 3]
    assert trace.self_times(start, end, parent).sum() == pytest.approx(9.0)


def test_tail_percentile_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = run.tail(list(range(20)))
    assert (value, pct, n) == (9, 50.0, 20)
    assert sum(x > value for x in range(20)) == 10


def _wrapped_bindings():
    mods = [m for k, m in sys.modules.items() if k == "spincat" or k.startswith("spincat.")]
    found = [
        f"{m.__name__}.{name}" for m in mods for name, v in vars(m).items()
        if getattr(v, trace.WRAPPED_FLAG, False)
    ]
    for owner, attr in ((scipy.linalg, "expm"), (np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (PulseSegment, "envelope"), (PulseSchedule, "envelope")):
        if getattr(vars(owner)[attr], trace.WRAPPED_FLAG, False):
            found.append(f"{owner.__name__}.{attr}")
    return found


def test_traced_job_records_spans_and_restores_every_binding(tmp_path):
    originals = (scipy.linalg.expm, spincat.cli.main, spincat.spin.spin_operators)
    job = next(j for j in workloads.build("dimension_scan", 1).warmup if j.name == "warmup-tact-2I7")
    config = tmp_path / "config.json"
    config.write_text(workloads.config_text(job))
    tracer = trace.Tracer()
    with tracer:
        assert _wrapped_bindings()
        with contextlib.redirect_stdout(io.StringIO()):
            assert spincat.cli.main([*job.argv, "--config", str(config)]) == 0
    assert _wrapped_bindings() == []
    assert (scipy.linalg.expm, spincat.cli.main, spincat.spin.spin_operators) == originals

    spans = tracer.spans()
    names = [f"{layer}.{name}" for layer, name in tracer.names]
    roots = np.flatnonzero(spans["parent"] < 0)
    # the tact cases run on a thread pool; their spans still hang off cli.main
    assert [names[spans["name"][i]] for i in roots] == ["cli.main"]
    m = trace.layer_metrics(tracer, float(spans["end"].max() - spans["start"].min()))
    assert m["dynamics.evolve_unitary.calls"] == 4
    assert m["dynamics.evolve_unitary.steps"] == 2 * 10 + 2 * 100
    assert m["linalg.expm.calls"] >= 4
    assert m["spin.spin_operators.reuse_ratio"] == pytest.approx(1 / m["spin.spin_operators.calls"])
