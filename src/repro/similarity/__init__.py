"""Similarity measures and candidate filters."""
