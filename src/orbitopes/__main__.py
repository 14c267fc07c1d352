"""``python -m orbitopes``: the same front end as the ``orbitopes`` command."""

from .cli import main

if __name__ == "__main__":
    main()
