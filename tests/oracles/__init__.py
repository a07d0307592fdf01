"""Reference implementations that production code no longer carries.

Each module here is the brute-force version of a fast path in
``src/repro``; tests compare the two.
"""
