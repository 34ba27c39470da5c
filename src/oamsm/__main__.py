"""``python -m oamsm``: the same command line as the ``oamsm`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
