"""Run ``visrec.cli`` with the benchmark's tracer installed.

Usage: python3 tracecli.py SPILL_DIR OP_ID CLI-ARGS...

A traced round starts this in place of ``python -m visrec.cli`` so that the
spans of a cold CLI process (``load_model``, ``run_stage``, ``recommend``)
join those of the benchmark process in SPILL_DIR.
"""

import sys
from pathlib import Path

from tracing import Tracer

if __name__ == "__main__":
    spill_dir, op, *cli_args = sys.argv[1:]
    sys.path.insert(0, str(Path.cwd() / "src"))
    import visrec.cli

    tracer = Tracer(Path(spill_dir))
    tracer.op = op
    tracer.install()
    try:
        visrec.cli.main(cli_args, prog_name="visrec")
    finally:
        tracer.flush()
