"""Synthetic datasets mirroring the paper's corpora statistics."""
