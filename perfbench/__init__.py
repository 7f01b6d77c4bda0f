"""Slice-lifecycle benchmark for netslice; see perfbench/README.md."""
