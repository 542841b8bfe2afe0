"""Run ``repro serve`` with the benchmark's tracer installed.

Usage: ``python3 perfbench/tracedaemon.py SPANS.json serve [serve args]``

Installs the layer and service wrappers of :mod:`perfbench.trace`,
runs the daemon's own command line until it shuts down, then writes the
recorded spans to ``SPANS.json``.  Only the traced run starts the daemon
this way; timed runs start ``python -m repro serve`` directly.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.trace import LAYER_TARGETS, SERVICE_TARGETS, Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from repro.__main__ import main as repro_main

    tracer = Tracer(LAYER_TARGETS + SERVICE_TARGETS).install()
    try:
        code = repro_main(argv)
    finally:
        tracer.remove()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
