"""Traced stand-in for ``python -m repro.cli``: ``cli_child.py SPANS ARGS...``.

Installs the benchmark's span wrappers before ``repro.cli`` is imported
(so every module is patched as it loads), runs the command, and writes
its spans plus its first and last timestamps to ``SPANS`` as JSON.  The
exit code and stdout are the command's own.
"""

from __future__ import annotations

import json
import sys
import time

T_START = time.perf_counter_ns()

import spans  # noqa: E402  (this directory is sys.path[0])


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    recorder.active = True
    patcher = spans.Patcher(recorder)
    patcher.install()
    code = 1
    try:
        index = recorder.open("cli.import")
        try:
            import repro.cli
        finally:
            recorder.close(index)
        try:
            code = repro.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors, --version
            code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({
                "t_start": T_START,
                "t_end": time.perf_counter_ns(),
                "spans": recorder.spans,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
