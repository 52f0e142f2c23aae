"""Run the ridgecav CLI with spans around ridgecav's public functions.

    python3 perfbench/child.py SPANS_JSON RUN_ID <ridgecav arguments...>

Behaves like `python3 -m ridgecav.cli <arguments>` (same stdout, artifacts
and exit code) and writes the spans of the run to SPANS_JSON on exit.
"""

import sys

import layers
import spans
import ridgecav.cli


def main() -> int:
    path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = spans.Recorder(run_id)
    rec.install(layers.HOOKS)
    try:
        return ridgecav.cli.main(argv)
    finally:
        rec.dump(path)


if __name__ == "__main__":
    sys.exit(main())
