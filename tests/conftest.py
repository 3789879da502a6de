from hypothesis import settings

# Tier-1 draws the same Hypothesis examples on every run of every checkout:
# draws are derandomized, and no example database is read or written, so
# neither the checkout's path nor an earlier failure changes what is tested.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
