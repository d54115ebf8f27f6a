"""numpy, imported on first attribute access (the stdlib ``LazyLoader`` recipe),
so audit, filter and filter-one, which never use it, skip its import cost."""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    # Before Python 3.12 the first load takes no lock, so a thread touching np
    # while another loads it can see a half-built module; framebias starts no
    # thread, so only a caller's threads can.
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
