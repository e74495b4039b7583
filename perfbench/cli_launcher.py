"""Run one liouville CLI command with the benchmark's wrappers installed.

    python3 perfbench/cli_launcher.py SPANS_JSON COMMAND [ARGS...]

Times ``import liouville.cli``, installs the wrappers, calls
``liouville.cli.main`` with the remaining arguments, writes the spans to
SPANS_JSON and exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv) -> int:
    spans_path, command = argv[0], argv[1:]
    t0 = time.perf_counter()
    import liouville.cli as cli
    import_s = time.perf_counter() - t0

    import tracer

    tr = tracer.Tracer()
    tr.install(tracer.LIBRARY_POINTS + tracer.CLI_POINTS)
    t0 = time.perf_counter()
    try:
        code = cli.main(command)
    finally:
        command_s = time.perf_counter() - t0
        tr.uninstall()
        Path(spans_path).write_text(json.dumps(
            {"import_s": import_s, "command_s": command_s, "spans": tr.spans,
             "absent": tr.absent}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
