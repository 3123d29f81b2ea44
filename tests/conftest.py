"""Test-suite setup: one Hypothesis profile, with examples that depend only on the test.

Hypothesis 6.155 draws some of its examples from literals that it collects out
of the source of every loaded module outside the tests and site-packages
(cached under ``.hypothesis/constants``). Which ``lrwp`` modules are loaded
depends on which test files pytest collects, so ``derandomize=True`` alone drew
different examples for ``test_properties.py`` run by itself and in the full
suite, and any literal edited in ``src/`` moved them as well. Hypothesis has no
setting for this source, so its pool is emptied here. Its fixed built-in
constants (0, ±inf, the float limits, …) are still drawn.
"""

try:
    from hypothesis import settings
    from hypothesis.internal.conjecture import providers
except ImportError:  # test_properties.py skips itself without Hypothesis
    pass
else:
    settings.register_profile("lrwp", derandomize=True, deadline=None)
    settings.load_profile("lrwp")
    if hasattr(providers, "_get_local_constants"):
        _NO_LOCAL_CONSTANTS = providers.Constants()
        providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS
