"""Entry point for `python -m clausekit`."""

from .cli import console_main

console_main()
