import sys
from pathlib import Path

from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

# make the oracle module and the scripts importable as plain modules from any test
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1] / "scripts"))
