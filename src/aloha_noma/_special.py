"""The four scipy ufuncs the package needs, without ``scipy.special``'s
array-API layer, which takes about half of the CLI's start-up.

They live in the extension ``scipy.special._ufuncs``.  Python runs a
package's ``__init__`` before any submodule, so the extension is loaded under
a bare ``scipy.special`` that is removed again.  A later ``import
scipy.special`` runs the real ``__init__``, which reuses the loaded
extension, so each name is the object ``scipy.special`` exports.  When
``scipy.special`` is loaded already, or the layout differs, the names come
from ``scipy.special`` itself.
"""

import importlib.util
import sys

__all__ = ["erfc", "gammaincc", "stdtrit", "xlogy"]

if "scipy.special" in sys.modules:
    from scipy.special import erfc, gammaincc, stdtrit, xlogy
else:
    try:
        sys.modules["scipy.special"] = importlib.util.module_from_spec(
            importlib.util.find_spec("scipy.special")
        )
        try:
            from scipy.special._ufuncs import erfc, gammaincc, stdtrit, xlogy
        finally:
            del sys.modules["scipy.special"]
    except ImportError:
        from scipy.special import erfc, gammaincc, stdtrit, xlogy
