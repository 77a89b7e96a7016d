"""``python -m finalg``: the ``finalg`` command."""
from .cli import main

if __name__ == "__main__":
    main()
