"""Set-up probe: import spincat, load the generated configs and run the
warm-up jobs, then print ``ready``.

``run.py`` starts this script in fresh interpreters and times each one from
spawn to ``ready``; it also calls :func:`warm_up` in its own process before
the timed passes.  Usage: ``python3 perfbench/probe.py <plan.json>``.
"""

import contextlib
import io
import json
import sys


def warm_up(plan: dict) -> None:
    """Load every config and run every warm-up job of a plan written by run.py."""
    import spincat.cli
    from spincat.scenarios import config_from_dict

    for path in plan["configs"]:
        with open(path) as fh:
            config_from_dict(json.load(fh))
    for argv in plan["warmup"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = spincat.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"warm-up job {argv} exited {code}: {err.getvalue().strip()}")


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    warm_up(plan)
    print("ready", flush=True)
