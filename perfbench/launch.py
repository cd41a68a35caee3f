"""Child side of one measured CLI invocation.

    python3 launch.py RESULT_JSON TRACE -- <wtnrank arguments>

Imports ``wtnrank.cli``, notes the monotonic time at which the import
finished, optionally installs the tracer (TRACE = 1) and runs ``cli.main``.
It then writes that time, the process's own peak resident set (``VmHWM``)
and any spans to RESULT_JSON. ``ru_maxrss`` from the parent's ``wait4`` is not
used: on Linux it carries the parent's high-water mark across fork and exec.
With TRACE = -1 the launcher stops right after the import, which times the
start-up alone.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    result_path, mode, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: launch.py RESULT_JSON TRACE -- <wtnrank arguments>")
    from wtnrank import cli

    imported_at = time.monotonic()
    tracer = None
    code = 0
    if mode == "1":
        import tracer as tracing

        tracer = tracing.install()
    if mode != "-1":
        code = cli.main(argv)
    result = {
        "imported_at": imported_at,
        "peak_rss_kb": peak_rss_kb(),
        "spans": tracer.spans if tracer else [],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
