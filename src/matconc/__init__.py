"""matconc: matrix concentration bounds, Efron-Stein variance proxies, and
kernel Stein pair machinery, with exact-enumeration and Monte Carlo checks."""

__version__ = "0.1.0"

import importlib.util
import sys


def _lazy(name: str):
    """The submodule ``matconc.<name>``, run when one of its attributes is first read.

    A submodule already in sys.modules, run or not, is returned as it is;
    otherwise a module that importlib.util.LazyLoader will run is registered
    there.  Before Python 3.12 that first read is not thread-safe, and the
    package starts no thread: a thread pool here must read each layer it uses
    first, on one thread.
    """
    full = f"{__name__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return sys.modules[full]


bounds, matcore, stein, verify = map(_lazy, ("bounds", "matcore", "stein", "verify"))
