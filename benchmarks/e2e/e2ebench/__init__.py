"""End-to-end benchmark of the served world (see ``benchmarks/e2e/README.md``)."""
