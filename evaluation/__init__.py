"""The paper's §6 evaluation, outside the ``repro`` package.

Run from the repository root with ``PYTHONPATH=src``:

* ``python -m evaluation`` — Figure 1 sweeps (:mod:`evaluation.cli`);
* ``python -m evaluation.fault`` — the churn-recovery benchmark;
* ``python -m evaluation.mutate`` — the mixed read-write benchmark.

The modules build on ``repro``'s public API; nothing in ``repro``
imports this package.
"""
