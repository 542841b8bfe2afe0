"""End-to-end benchmark of repro; entry point ``perfbench/run.py``."""
