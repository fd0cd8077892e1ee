"""Run the command-line front end: ``python -m parityshift <command> ...``."""

from .cli import main

if __name__ == "__main__":
    main()
