import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Tier-1 draws the same examples on every run; each test sets max_examples.
settings.register_profile("ptchain", deadline=None, derandomize=True)
settings.load_profile("ptchain")
