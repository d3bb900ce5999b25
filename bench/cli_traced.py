"""The ``hb`` entry point under span tracing, for the traced cli run.

    python3 bench/cli_traced.py WRITE_FD ARGS...

Behaves like ``python -m hbspace.cli ARGS...`` on stdout, stderr and the
exit code.  At exit it writes its reduced spans as one JSON object to
the inherited pipe WRITE_FD, together with the intervals of its
top-level spans, which the calling process counts as covered time of
its query span.
"""

import json
import os
import sys
import traceback

import tracing


def main() -> int:
    fd = int(sys.argv[1])
    rec = tracing.Recorder()
    top = rec.open("cli.import")
    import hbspace.cli

    rec.close(top)
    instr = tracing.Instrumentation(rec)
    instr.install()
    top = rec.open("cli.main")
    try:
        code = hbspace.cli.main(sys.argv[2:])
    except SystemExit as exc:  # argparse rejections
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # the same report and exit code as an uncaught error
        traceback.print_exc()
        code = 1
    finally:
        rec.close(top)
        instr.remove()
        cover = [(rec.starts[i], rec.ends[i]) for i, p in enumerate(rec.parents) if p < 0]
        rec.reduce()
        payload = dict(rec.export(), cover=cover)
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(json.dumps(payload).encode())
    return code


if __name__ == "__main__":
    sys.exit(main())
