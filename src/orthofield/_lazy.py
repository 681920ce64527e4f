"""numpy, imported when the package first computes rather than at its import.

If numpy is not imported yet, it goes into ``sys.modules`` through
``importlib.util.LazyLoader``: the first attribute read runs the real import,
and from then on ``np`` is the ordinary numpy module.  Modules take it as
``from ._lazy import np``, since a plain ``import numpy`` reads ``__spec__``
and so loads it at once.  That first read is not thread-safe; the package
starts no threads.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
