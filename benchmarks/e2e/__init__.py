"""End-to-end, per-layer benchmark of the paper workload (see README.md)."""
