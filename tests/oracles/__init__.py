"""Reference implementations the fast paths in ``src/`` are tested against.

One module per layer — the sort-everything working set, the per-packet
loops and the per-key Bloom probe and recovery selection
(:mod:`oracles.reconcile`), the dict-of-counters stats collector
(:mod:`oracles.stats`), the scalar max-min solver (:mod:`oracles.fairshare`),
per-pair networkx routing and per-pair landmark probes
(:mod:`oracles.routing`), the per-member head-election key
(:mod:`oracles.clustering`), the scalar interior stepper
(:mod:`oracles.interior`), the synchronous RanSub driver
(:mod:`oracles.ransub`), the round-by-round scalar TFRC model
(:mod:`oracles.tfrc`) and the polled timers and event scheduler the step
engine replaced (:mod:`oracles.clock`).  Nothing here is imported from ``src/``; the root
``conftest.py`` puts ``tests/`` on the path.
"""
