"""delaysync benchmark: see run.py."""
