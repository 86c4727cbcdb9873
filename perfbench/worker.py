"""One pass of one workload in a fresh interpreter (started by run.py).

Usage: python3 perfbench/worker.py '{"workload": "ops3", "seed": 1,
"workdir": "...", "mode": "setup" | "pass" | "traced"}'

Set-up is everything from the first import of the program to the end of
input generation; interpreter start-up is not part of it.  Prints one JSON
line with the pass result, its set-up seconds, peak RSS, the final
cache_info() of the operator caches and, for a traced pass, the per-layer
metrics.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports the program)
from tracer import Tracer  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    make_inputs, run_pass = workloads.WORKLOADS[spec["workload"]]
    inputs = make_inputs(spec["seed"], Path(spec["workdir"]))
    out = {"setup_s": time.perf_counter() - T0, "program": workloads.program_info(workloads.HERE.parent)}
    if spec["mode"] != "setup":
        with Tracer() as tracer:
            workloads.install_cell_clock(tracer)
            if spec["mode"] == "traced":
                workloads.install_layers(tracer)
            out.update(run_pass(inputs, tracer))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["cache_info"] = workloads.cache_snapshot()
        out["sizes"] = workloads.sizes(spec["workload"], inputs)
        if spec["mode"] == "traced":
            layers = workloads.layer_metrics(tracer, workloads.kernel_micro())
            out["layers"] = {k: {"value": v, "unit": workloads.LAYER_UNITS[k]} for k, v in layers.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
