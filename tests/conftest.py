"""Hypothesis profiles shared by the suite.

Tier-1 runs under Hypothesis' default profile, each property at the
example count its ``@settings`` names.  The ``deep`` profile
(``pytest --hypothesis-profile=deep``) runs ten times as many: a test
that names its count passes it through :func:`examples`, which scales it
as the loaded profile scales Hypothesis' default.
"""

from hypothesis import settings

settings.register_profile(
    "deep", max_examples=10 * settings.get_profile("default").max_examples, deadline=None
)


def examples(count: int) -> int:
    """``count`` under tier-1; under the deep profile, ten times ``count``."""
    return count * settings.default.max_examples // settings.get_profile("default").max_examples
