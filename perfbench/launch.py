"""Run the ``python -m repro`` command line, noting when start-up ends.

Usage: ``python perfbench/launch.py [--trace] <dir> <repro arguments...>``
(with ``src`` on ``PYTHONPATH``).

It imports ``repro.__main__`` and calls its ``main`` with the arguments,
which is what ``python -m repro`` does, and writes the wall-clock instant
the import finished to ``<dir>/ready`` (the end of the start-up layer).
With ``--trace`` it installs the wrappers of :mod:`layers` after that
instant and writes the layer records into ``<dir>``.
"""

import os
import sys
import time


def main() -> int:
    traced = sys.argv[1] == "--trace"
    out_dir, argv = sys.argv[1 + traced], sys.argv[2 + traced:]
    import repro.__main__ as cli

    ready = time.time()
    if traced:
        import layers

        layers.install(out_dir)
    with open(os.path.join(out_dir, "ready"), "w") as fh:
        fh.write(repr(ready))
    try:
        return cli.main(argv)
    finally:
        if traced:
            layers.dump()


if __name__ == "__main__":
    sys.exit(main())
