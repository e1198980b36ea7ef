"""VQL: language, planner, and distributed executor."""
