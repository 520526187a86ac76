"""Run one riscreen CLI command under the span tracer (the traced cold-CLI unit).

Usage: python bench/cli_child.py SPANS_JSON CLI_ARG...

Behaves like ``python -m riscreen CLI_ARG...`` (same stdout, same exit
code, a traceback on an uncaught error) and writes its spans to SPANS_JSON
before exiting.
"""

import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import riscreen.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.unit():
            rc = riscreen.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    tracer.uninstall()
    sys.stdout.flush()
    tracer.dump(out_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
