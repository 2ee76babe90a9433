"""Run one fbmink command with every layer traced and write its layer sums.

    python -X importtime perfbench/cli_child.py SUMS_FILE COMMAND [ARGS...]

The package is imported before the tracer so that ``-X importtime`` charges
numpy and jsonschema to it, as in a plain ``python -m fbmink`` run.
"""

import json
import sys

import fbmink.cli

import tracing


def main(argv: list) -> int:
    sums_file, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = fbmink.cli.main(args)
    finally:
        tracer.op = None
        with open(sums_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.op_sums().get(0, {}), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
