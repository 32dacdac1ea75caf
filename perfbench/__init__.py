"""Seeded benchmark for the dubrovnik package; run it with ``python3 perfbench/run.py``."""
