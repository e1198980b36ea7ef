"""Physical operators: exact, range, similarity, join, top-N."""
