"""One workload process: imports srblab from the checkout, loads the
workload's configs, then drives its CLI invocations through srblab.cli.run.

Usage: python3 perfbench/child.py '<spec json>'

spec keys: src (directory holding the srblab package), t0 (the parent's
time.monotonic() just before it started this process), mode ("setup" stops
after the configs load; "run", "spans" and "alloc" run the invocations,
the last two under the span tracer, "alloc" with tracemalloc), ops (a list
of [subcommand, config, output dir]) and trace (JSON-lines path for spans).

Prints one JSON line: setup_s, and after a run also wall_s (the invocations
alone), codes (their exit codes) and maxrss_mb (the process's peak RSS);
under the tracer also layers (tracer.Tracer.summary) and installed (the
span and leaf names the tracer wrapped).
"""
import json
import resource
import sys
import time
import tracemalloc


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from srblab import cli
    from srblab.config import ExperimentConfig
    for _, config, _ in spec["ops"]:
        ExperimentConfig.load(config)
    result = {"setup_s": time.monotonic() - spec["t0"]}
    mode = spec["mode"]
    if mode != "setup":
        tracer = None
        if mode in ("spans", "alloc"):
            from tracer import Tracer
            tracer = Tracer(memory=mode == "alloc")
            tracer.install()
            if tracer.memory:
                tracemalloc.start()
        t0 = time.perf_counter()
        result["codes"] = [cli.run(sub, config, out)
                           for sub, config, out in spec["ops"]]
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracemalloc.stop()
            tracer.write_jsonl(spec["trace"])
            result["layers"] = tracer.summary()
            result["installed"] = sorted(tracer.installed)
    result["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
