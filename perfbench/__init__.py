"""Layer-by-layer benchmark of the simulator: see ``perfbench/README.md``."""
