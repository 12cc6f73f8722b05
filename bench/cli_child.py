"""Run one melvq command the way the `melvq` entry point does, with the
benchmark's tracer installed, and write the spans to a JSON file.

Usage: cli_child.py SPANS_JSON PARENT_SPAN_ID REQUEST_ID MELVQ_ARGS...

Spans share the parent's monotonic clock, so they nest under the span the
parent recorded around this process.
"""

import json
import os
import sys

from layers import HOOKS, IMPORT
from spans import Tracer


def main() -> int:
    out, parent, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
    tracer = Tracer(root_parent=parent, id_base=os.getpid() << 32)
    tracer.request = request
    code = 1
    try:
        with tracer.span(IMPORT):
            import melvq.cli
        tracer.patch_package("melvq", HOOKS)
        code = melvq.cli.main(argv)
    finally:
        with open(out, "w") as f:
            json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
