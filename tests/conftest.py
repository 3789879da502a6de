import pytest
from hypothesis import settings
from hypothesis import strategies as st

# Tier-1 draws the same Hypothesis examples on every run of every checkout:
# draws are derandomized, and no example database is read or written, so
# neither the checkout's path nor an earlier failure changes what is tested.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session", autouse=True)
def unicode_codec_table():
    """Build Hypothesis's UTF-8 codec table before the first test. A fresh
    checkout's first text draw builds it (~2 s, then cached under
    .hypothesis/), which inside a test trips the slow-generation health check."""
    st.text().validate()
