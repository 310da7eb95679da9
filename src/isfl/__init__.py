"""Federated-learning simulation lab with per-category local importance sampling."""

__version__ = "0.1.0"


def main() -> int:
    """The ``isfl`` command: ``isfl.cli.main`` with one BLAS thread per process,
    set before numpy loads and inherited by every forked worker."""
    import os

    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    from .cli import main as cli_main

    return cli_main()
