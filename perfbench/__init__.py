"""Benchmark of the versioned-RDF store (see ``perfbench/run.py``)."""
