"""The repo benchmark: four workloads, end-to-end metrics, layer self-times.

``python -m perf.run`` (from the repository root) is the one command; see
``perf/README.md`` for the metric glossary and ``BENCHMARK.json`` for the
declared names, units and regression bounds.  Nothing here is imported by
``src/``: layers are measured from outside, by wrapping the public
callables listed in :mod:`perf.layers` for the traced run only.
"""
