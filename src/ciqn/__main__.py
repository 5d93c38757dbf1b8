"""``python -m ciqn``: the ``ciqn`` command without installing it."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
