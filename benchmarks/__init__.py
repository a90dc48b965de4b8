"""Makes ``benchmarks/test_*.py`` a package so its test basenames may repeat ones under ``tests/``."""
