"""Traced stand-in for ``python -m parastep``.

    python3 bench/launcher.py SPANS.json ARG...

Imports parastep (recorded as an ``import`` span), wraps the public
functions with spans, runs ``parastep.cli.cli_main(ARG...)`` inside a
``cli.main`` span, writes the spans to SPANS.json and exits with the
command's code.
"""

import json
import sys

from spans import Tracer, install


def main(argv) -> int:
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("import"):
        import parastep.cli
    install(tracer)
    try:
        with tracer.span("cli.main"):
            code = parastep.cli.cli_main(args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
