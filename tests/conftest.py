import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(__file__))

# On a failure Hypothesis imports libcst to print the example as a patch,
# and libcst warns on import; `filterwarnings = error` would turn that into
# a pytest INTERNALERROR that hides the failure, so import it quietly here
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
