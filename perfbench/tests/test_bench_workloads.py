import pytest

from perfbench import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert [j.argv for j in a.jobs + a.warmup] == [j.argv for j in b.jobs + b.warmup]
    assert [workloads.config_text(j) for j in a.jobs + a.warmup] == [
        workloads.config_text(j) for j in b.jobs + b.warmup
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_moves_parameters_not_jobs_or_grids(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    assert [workloads.config_text(j) for j in a.jobs] != [workloads.config_text(j) for j in b.jobs]
    assert [j.name for j in a.jobs] == [j.name for j in b.jobs]
    for ja, jb in zip(a.jobs, b.jobs):
        assert ja.config["spin"] == jb.config["spin"]
        assert ja.config["params"].get("n_points") == jb.config["params"].get("n_points")
        assert ja.argv[0] == jb.argv[0] and len(ja.argv) == len(jb.argv)


def test_parameters_stay_in_their_windows():
    for seed in range(50):
        p = workloads.draw_params(seed)
        for key, paper in workloads.PAPER.items():
            assert abs(p[key] / paper - 1) <= workloads.SPREAD[key]
        assert workloads.LAB_SCALE[0] <= p["lab_scale"] <= workloads.LAB_SCALE[1]


def test_write_configs_round_trips(tmp_path):
    import json

    wl = workloads.build("lab_pulses", 3)
    paths = workloads.write_configs(wl, str(tmp_path))
    for job in wl.jobs + wl.warmup:
        with open(paths[job.name]) as fh:
            assert json.load(fh) == job.config
