"""One benchmark repetition in a fresh interpreter.

    python3 benchmark/child.py <task.json>

The task names the repository root, the config file, the CLI arguments, the
mode ("setup": import and parse only; "run": also call `cli.main`) and whether
to trace. The child writes its result JSON to the task's `result` path:

* `setup_done`: `time.perf_counter()` once `graphene_spp.cli` is imported and
  the config is parsed. The clock is system-wide, so the parent subtracts
  the instant it started the process.
* `exit_code`, `wall_s` of the `cli.main` call, `peak_rss_kb` of this
  process, and with tracing the spans of the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def main(task_path: str) -> int:
    with open(task_path, "r", encoding="utf-8") as handle:
        task = json.load(handle)
    sys.path.insert(0, os.path.join(task["root"], "src"))
    import graphene_spp.cli as cli
    from graphene_spp.config import load_config

    source = os.path.realpath(cli.__file__)
    if not source.startswith(os.path.realpath(task["root"]) + os.sep):
        raise RuntimeError(f"imported graphene_spp from {source}, outside "
                           f"the checkout")
    load_config(task["config"])
    result = {"setup_done": time.perf_counter()}

    if task["mode"] == "run":
        tracer = None
        if task["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(task["argv"])
        result["wall_s"] = time.perf_counter() - start
        result["exit_code"] = code
        if tracer is not None:
            result["trace"] = tracer.dump()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(task["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
