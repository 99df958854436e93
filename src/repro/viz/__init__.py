"""Plain-text visualizations of partitionings and sweeps (Figure 3-6 style)."""

from .ascii_art import render_partitioning, render_sweep

__all__ = ["render_partitioning", "render_sweep"]
