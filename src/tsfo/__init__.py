"""Transformer inference, compression, and benchmarking for time series classification.

The Python API lives in the submodules (``tsfo.model``, ``tsfo.bench``, ...);
the package itself binds only ``__version__``.
"""

__version__ = "0.1.0"
