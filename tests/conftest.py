import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# one profile for every property test: the same examples on every run, no
# example database written into the checkout, no per-example time limit
# (a first call pays for cached tables and imports)
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# what Hypothesis still stores (its cache of constants mined from the loaded
# source modules) goes to a per-session directory outside the checkout
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="chemhill-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
