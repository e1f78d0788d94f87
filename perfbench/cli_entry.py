"""Child entry for traced ``cli`` ops: ``python cli_entry.py <fueter args>``.

Times the import of ``fueter.cli`` and the call of ``main()``, traces the
library during ``main()``, and writes one line
``PERFBENCH_TRACE {"t0", "import_s", "main_s", "raw", "spans"}`` to stderr as
its last line.  ``t0`` is ``time.perf_counter()`` at script start; on Linux that is
CLOCK_MONOTONIC, so the parent can subtract its own spawn time from it.
stdout is exactly what ``python -m fueter.cli`` prints.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main():
    t_import = time.perf_counter()
    from fueter.cli import main as cli_main
    import_s = time.perf_counter() - t_import

    import tracer
    tr = tracer.Tracer(keep=20000)
    tracer.install(tr)
    tr.enabled = True
    t_main = time.perf_counter()
    try:
        code = cli_main(sys.argv[1:])
    except SystemExit as e:  # argparse errors
        code = e.code if isinstance(e.code, int) else 2
    main_s = time.perf_counter() - t_main
    tr.enabled = False
    sys.stdout.flush()
    sys.stderr.write("\nPERFBENCH_TRACE " + json.dumps(
        {"t0": T0, "import_s": import_s, "main_s": main_s, "raw": tr.raw(),
         "spans": tr.spans}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
