"""Suite-wide Hypothesis settings.

One profile for every ``@given`` test: no deadline (the engine's
property tests build trees and sweep them, and a slow example on a busy
machine is not a failure), and ``print_blob`` so that a failing example
prints the ``@reproduce_failure`` blob that replays it exactly.
Explicit ``@settings`` on a test still override what they name; the
profile changes no test's example generation.
"""

from hypothesis import settings

settings.register_profile("repro", deadline=None, print_blob=True)
settings.load_profile("repro")
