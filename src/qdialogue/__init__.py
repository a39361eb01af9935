"""Simulator and security analysis for the entangled two-way dialogue protocol."""

__version__ = "0.1.0"
