"""Exact cellular automata over groups, with near-ring and group-ring calculus."""

__version__ = "0.1.0"
