"""Exact p-core partition counts, circle-method asymptotics, and
machine verification of the identities connecting them."""

__version__ = "0.1.0"
