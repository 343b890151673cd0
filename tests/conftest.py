"""Test-wide settings: hypothesis runs derandomized, without a deadline and
without an example database, so property tests are reproducible and their
cost is fixed."""
from hypothesis import settings

settings.register_profile("chainlab", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("chainlab")
