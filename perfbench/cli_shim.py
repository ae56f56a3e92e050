"""`python -m mubkit.cli` with spans: usage `cli_shim.py SPAN_FILE ARGV...`.

Times the import of mubkit.cli, wraps the library's public functions, runs
the CLI's main on ARGV and writes the spans to SPAN_FILE before exiting with
the CLI's exit code.  Used for the traced rounds of the cli_roundtrip
workload; stdout is the CLI's own.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import mubkit.cli  # noqa: E402

import_s = perf_counter() - t0

from tracing import Tracer  # noqa: E402


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    idx = tracer.open("cli.run")
    code = 1
    try:
        code = mubkit.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.close(idx)
        tracer.uninstall()
        tracer.dump(span_file, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
