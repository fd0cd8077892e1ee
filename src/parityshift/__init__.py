"""Wrapped-Gaussian resampling attacks and bin-parity detection.

A numerical library plus experiment harness around one construction: a
distribution-preserving +-a/0 resampling of standard normal data, the
central-bin mass G(a) that controls how often a coordinate stays put,
and the bin-parity statistic whose exact +-a flip property separates
detectable from undetectable sparsity budgets.

The supported entry points are the command line (``python -m
parityshift``) and the submodules themselves (``parityshift.kernels``,
``parityshift.harness`` and so on); importing the package loads none
of them.
"""

__version__ = "0.1.0"
