"""Run `catramsey` under the benchmark's tracer, for the traced cli-stream.

Usage: python3 perfbench/launcher.py <catramsey arguments>

Times the import of catramsey.cli, installs the span wrappers, calls
catramsey.cli.main with the arguments and exits with its code.  The spans go
to the file named by PERFBENCH_SPANS, tagged with the op id in PERFBENCH_OP.
"""

import time

t0 = time.perf_counter()
import catramsey.cli  # noqa: E402

import_s = time.perf_counter() - t0

import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.op = int(os.environ["PERFBENCH_OP"])
tracer.install()
try:
    code = catramsey.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    sys.stdout.flush()
    tracer.dump(os.environ["PERFBENCH_SPANS"], {"import_s": import_s})
sys.exit(code)
