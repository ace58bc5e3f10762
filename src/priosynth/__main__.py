"""Run the command line tool as ``python -m priosynth``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
