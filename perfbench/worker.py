"""Child process of the benchmark.

``worker.py cli ARGS...`` runs ``tangentia ARGS...`` with the span recorder
installed and writes the span summary to the file named by
``PERFBENCH_TRACE_OUT``; stdout, stderr and the exit code are the CLI's own.

``worker.py scale [--trace]`` imports the library, prints one ``ready``
line, then reads one JSON call per stdin line and answers each with its
in-process time and fingerprint.  At end of input a traced worker prints
its span summary.

Either mode also writes every span to ``PERFBENCH_SPANS`` when it is set.
"""
from __future__ import annotations

import json
import os
import sys
import time

import tracer


def _finish(recorder: tracer.Recorder) -> dict:
    dump = os.environ.get("PERFBENCH_SPANS")
    if dump:
        recorder.dump(dump, os.getpid())
    return recorder.summary()


def traced_cli(argv: list[str]) -> int:
    import tangentia.cli as cli

    recorder = tracer.Recorder()
    tracer.install(recorder)
    code = cli.main(argv)
    sys.stdout.flush()
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as out:
        json.dump(_finish(recorder), out)
    return code


def scale(traced: bool) -> int:
    import tangentia
    import tangentia.cli  # noqa: F401  (the same ready point as the CLI)
    import scalecalls

    recorder = tracer.Recorder() if traced else None
    if recorder:
        tracer.install(recorder)
    print(json.dumps({"ready": tangentia.__file__}), flush=True)
    for line in sys.stdin:
        call = json.loads(line)
        start = time.perf_counter()
        result = scalecalls.run(call)
        ms = (time.perf_counter() - start) * 1000
        fp = scalecalls.fingerprint(call, result)
        del result
        print(json.dumps({"ms": ms, "fp": fp}), flush=True)
    if recorder:
        print(json.dumps({"trace": _finish(recorder)}), flush=True)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(traced_cli(rest))
    sys.exit(scale("--trace" in rest))
