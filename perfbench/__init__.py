"""Host-normalised end-to-end and per-layer benchmark of the repro package.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
