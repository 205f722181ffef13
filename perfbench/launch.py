"""Start the pqst command line in a fresh interpreter, as `pqst ARGS...` would.

    python3 perfbench/launch.py --meta FILE [--trace SPANS] -- ARGS...

Imports the CLI from the checkout's src/ tree, runs it, and on exit writes to
FILE the import time, the time spent in the command, the host-speed kernel
times taken after the import and after the command (hostspeed.py) with the
total time calibration took, the peak RSS, the exit code and the number of
tracing wrappers left installed. With --trace the wrappers are installed after
the import and the spans go to SPANS. Without it tracer.py is never imported,
so an untraced start pays no benchmark-side import beyond the kernel's, whose
time the runner subtracts.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time

import workloads as wl


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    own, args = argv[:split], argv[split + 1:]
    opts = dict(zip(own[::2], own[1::2]))

    t0 = time.perf_counter()
    wl.load_pqst()
    import pqst.cli
    import_ms = (time.perf_counter() - t0) * 1e3
    import hostspeed
    kernels = [hostspeed.kernel_s(lapack=False)]
    calibration_s = time.perf_counter() - t0 - import_ms / 1e3

    tr = tracing = None
    if "--trace" in opts:
        import tracer as tracing
        tr = tracing.Tracer()
        tr.install()
    code = 1
    t1 = time.perf_counter()
    try:
        with tr.span("cli.main") if tr else contextlib.nullcontext():
            pqst.cli.main.main(args=args, prog_name="pqst")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        main_ms = (time.perf_counter() - t1) * 1e3
        if tr:
            tr.uninstall()
            tr.dump(opts["--trace"])
        kernels.append(hostspeed.kernel_s(lapack=False))
        calibration_s += kernels[-1]
        with open(opts["--meta"], "w") as fh:
            json.dump({"import_ms": import_ms, "main_ms": main_ms, "exit_code": code,
                       "kernel_s": kernels, "calibration_s": calibration_s,
                       "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       "wrappers_left": tracing.installed_wrappers() if tr else 0}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
