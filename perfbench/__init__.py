"""End-to-end benchmark of the secret-shared XML search server.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
outsources a seeded document with ``repro.cli outsource``, serves it with
``repro.cli serve`` in its own process, drives it over TCP on loopback and
checks every answer against a plaintext reference.  See README.md.
"""
