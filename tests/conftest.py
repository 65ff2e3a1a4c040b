import os

from hypothesis import settings

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a failing
# run can be replayed
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
