"""``python -m loopygraphs`` runs the command line interface."""

from .cli import entrypoint

entrypoint()
