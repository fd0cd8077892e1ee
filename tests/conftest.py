"""Hypothesis profiles.

The CLI's input-space property test (``tests/test_cli.py::TestInputSpace``)
takes 25 derandomised examples unless the profile below is loaded,
so tier-1's time and outcome do not vary.  CI runs it again under
``--hypothesis-profile=input-space``, a larger random budget.  The other
property tests keep their own budgets and fresh random examples.
"""

from hypothesis import settings

settings.register_profile("input-space", max_examples=400)
