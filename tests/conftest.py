"""Test configuration: one fixed hypothesis profile for the property tests.

Derandomized and without deadlines, so a property test draws the same
examples on every run and a slow machine cannot fail it.
"""

from hypothesis import settings

settings.register_profile("catqfi", derandomize=True, deadline=None, database=None, max_examples=20)
settings.load_profile("catqfi")
