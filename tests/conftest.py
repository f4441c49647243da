import sys
from pathlib import Path

from hypothesis import settings

# Make the oracle helpers importable from any test module.
sys.path.insert(0, str(Path(__file__).parent))

# One profile for every property test: the same examples on every run and
# machine, no example database, no per-example deadline.
settings.register_profile("hedgetest", derandomize=True, deadline=None,
                          database=None, max_examples=100)
settings.load_profile("hedgetest")
