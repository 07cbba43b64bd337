"""Exact toolkit for the Nash problem on toric pairs and stable toric varieties."""

__version__ = "0.1.0"
