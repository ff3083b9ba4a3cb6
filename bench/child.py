"""One benchmark job: a fresh interpreter that runs the copulafill CLI once.

Usage: python3 bench/child.py CONTROL_FD TRACE_PATH|- CLI_ARG...

Writes ``ready`` to CONTROL_FD once ``copulafill.cli`` is imported (and,
with a TRACE_PATH, the layer wrappers are installed), then runs the CLI in
this process and writes ``done <exit code>``. With a TRACE_PATH the spans
are written there after ``done``, so writing them is not part of the job.
"""

import os
import sys


def main() -> int:
    control_fd, trace_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import copulafill.cli

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.write(control_fd, b"ready\n")
    rc = copulafill.cli.main(argv)
    sys.stdout.flush()
    os.write(control_fd, f"done {rc}\n".encode())
    if tracer is not None:
        tracer.dump(trace_path)
    os.close(control_fd)
    return rc


if __name__ == "__main__":
    sys.exit(main())
