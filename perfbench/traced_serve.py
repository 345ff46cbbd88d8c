"""``repro serve`` with the per-layer shims installed (traced rounds).

Usage: ``python traced_serve.py DUMP_PATH serve [repro serve flags...]``

Installs :mod:`layers` before the server imports anything else, then
runs the regular ``repro`` CLI.  Every ``ping`` request records a
snapshot of the layer totals; the client pings right before and right
after its timed phase, so the difference of the two snapshots covers
exactly the timed requests.  When SIGTERM drains the server, the
snapshots are written to ``DUMP_PATH`` as JSON.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main(argv: list) -> int:
    dump_path, cli_args = argv[0], argv[1:]
    tracer = layers.Tracer()
    layers.install(tracer)
    marks = []

    from repro.service.server import SolveServer

    handle_meta = SolveServer._handle_meta

    async def marking_handle_meta(self, doc, send):
        if doc.get("op") == "ping":
            marks.append(tracer.snapshot())
        await handle_meta(self, doc, send)

    SolveServer._handle_meta = marking_handle_meta

    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    tmp = dump_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"marks": marks}, fh)
    os.replace(tmp, dump_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
