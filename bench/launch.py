"""Run one gdmorph command with the benchmark's span wrappers installed.

    python3 bench/launch.py SPANS_FILE ARG...

behaves like `python3 -m gdmorph ARG...` and writes the command's spans
to SPANS_FILE when it ends.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402  (the benchmark's directory is sys.path[0])
from gdmorph import cli  # noqa: E402

if __name__ == "__main__":
    tracer = spans.Tracer()
    code = 2
    try:
        with spans.installed(tracer):
            code = cli.main(sys.argv[2:])
    finally:
        tracer.write(sys.argv[1])
    sys.exit(code)
