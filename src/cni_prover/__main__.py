"""`python -m cni_prover`: the `cni-prover` command, runnable from a checkout
with `src` on PYTHONPATH."""
import sys

from .cli_dsl import main

if __name__ == "__main__":
    sys.exit(main())
