import os
import sys

from hypothesis import settings

# make the sibling oracles module importable regardless of invocation directory
sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and have no time limit,
# so a slow or loaded machine neither fails them nor changes what they check.
settings.register_profile("ruledict", derandomize=True, deadline=None)
settings.load_profile("ruledict")
