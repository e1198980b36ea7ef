"""Core package: configuration, errors, statistics, and the public facade."""
