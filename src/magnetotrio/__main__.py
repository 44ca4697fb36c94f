"""``python -m magnetotrio``: the command line of :mod:`magnetotrio.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
