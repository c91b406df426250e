from hypothesis import settings

# one profile for every property test: the same examples on every run, no
# example database written into the checkout, no per-example time limit
# (a first call pays for cached tables and imports)
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
