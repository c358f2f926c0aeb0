"""Run the qweier command-line interface: python -m qweier ..."""

from .cli import main

if __name__ == "__main__":
    main()
