"""The `crus` program: `python -m crus` and the `crus` console script start here."""

from __future__ import annotations

import os


def main() -> None:
    """Run the command line with one BLAS thread unless the user chose otherwise.

    crus makes no BLAS call, yet OpenBLAS starts a thread per extra core
    when numpy loads, and they spin before they sleep.  The variable must
    be set before numpy is first imported, so `crus.cli` is imported only
    here; pool workers inherit it.  `import crus` as a library leaves the
    host's BLAS alone.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli

    cli(prog_name="crus")


if __name__ == "__main__":
    main()
