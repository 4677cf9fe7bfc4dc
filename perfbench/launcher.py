"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/launcher.py [--spans FILE] -- <repro.cli arguments>

With ``--spans`` every entry point in :data:`tracing.WRAPS` is wrapped
before the CLI runs, and the recorded spans are written to ``FILE`` when
the CLI returns -- after a ``ctl shutdown`` -- or when the process gets
SIGTERM.  Without it the CLI runs untouched.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def _terminate(signum, frame):  # noqa: ARG001 - signal handler signature
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else []
    own = argv[: argv.index("--")] if "--" in argv else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write recorded spans here on exit")
    args = parser.parse_args(own)

    from repro import cli

    tracer = Tracer() if args.spans else None
    if tracer is not None:
        tracer.install()
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
