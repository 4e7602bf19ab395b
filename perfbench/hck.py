"""Stand-in for the ``hck`` console script, run from a source checkout.

    python3 perfbench/hck.py [--trace-out FILE] <hck arguments>

Without ``--trace-out`` this does what the installed ``hck`` entry point
does: import ``hckit.cli`` and exit with ``main()``'s code.  With it, the
hckit functions are traced and warnings counted; the summary, with the
import time as ``cli.import_s``, is written to FILE as JSON and the raw
spans beside it as ``FILE.npz``.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    args = sys.argv[1:]
    if args[:1] != ["--trace-out"]:
        from hckit.cli import main as hck_main
        return hck_main(args)
    out = Path(args[1])
    start = time.perf_counter()
    import hckit.cli
    import_s = time.perf_counter() - start
    sys.path.insert(0, str(HERE))
    from tracer import Tracer, count_warnings
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    with count_warnings(tracer.counts):
        code = hckit.cli.main(args[2:])
    tracer.uninstall()
    summary = tracer.summary()
    summary["cli.import_s"] = import_s
    out.write_text(json.dumps(summary))
    tracer.dump(out.with_suffix(".npz"))
    return code


if __name__ == "__main__":
    sys.exit(main())
