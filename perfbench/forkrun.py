"""Run one unit of work in a forked child of a parent that imported monocert.

Each CLI invocation gets a fresh copy of the parent: no cache or counter
filled by an earlier invocation survives into the next one, as with real
separate CLI runs, but the interpreter start and import cost is paid once.
"""

from __future__ import annotations

import os
import sys
import time
import traceback


def fork_call(target, out_path=None, err_path=None) -> tuple[float, int, int]:
    """Run target() in a child; returns (wall seconds, exit code, max RSS KiB).

    target returns the child's exit code. An exception escaping it prints a
    traceback on the child's stderr and exits 1, as the interpreter would.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd, path in ((1, out_path), (2, err_path)):
                if path is not None:
                    f = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                    os.dup2(f, fd)
                    os.close(f)
            code = target()
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code if isinstance(code, int) else 0)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def cli_target(argv: list[str], tracer=None, spans_path=None):
    """A fork_call target running ``monocert <argv>`` through cli.main."""

    def run() -> int:
        from monocert import cli

        if tracer is None:
            return cli.main(argv)
        tracer.install()
        try:
            with tracer.span("cli." + argv[0]):
                return cli.main(argv)
        finally:
            tracer.dump(spans_path)

    return run
