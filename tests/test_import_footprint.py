"""Import footprint: ``import repro`` loads numpy and ``scipy.special``
and nothing heavier.

``scipy.stats``/``scipy.integrate`` (the Sec. 5.4 AME integral) and
``scipy.ndimage`` (synthetic-data prototypes) are imported inside the
functions that use them; at module level they would add about a second
and ~45 MB to every process that imports the package, including every
server and every forkserver pool. Each check runs in a fresh
interpreter, because the test process itself has long since imported
everything.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HEAVY = (
    "scipy.stats",
    "scipy.integrate",
    "scipy.ndimage",
    "scipy.optimize",
    "scipy.interpolate",
)


def _run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with ``src`` on the path and
    return the JSON object it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_import_loads_no_heavy_scipy_submodule():
    loaded = _run_fresh(
        "import json, sys\n"
        "import repro, repro.cli, repro.net, repro.runtime.scheduler\n"
        f"heavy = {HEAVY!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if any(m == h or m.startswith(h + '.') for h in heavy))))\n"
    )
    assert loaded == []


def test_lazy_scipy_paths_return_their_values():
    out = _run_fresh(
        "import json, sys\n"
        "from repro.core.coopt import average_mismatch_error\n"
        "from repro.data import make_mnist_like\n"
        "before = 'scipy.stats' in sys.modules or 'scipy.ndimage' in sys.modules\n"
        "ame = average_mismatch_error(16, 2.0)\n"
        "d = make_mnist_like(20, seed=0)\n"
        "x = d.images\n"
        "print(json.dumps({'before': before, 'ame': ame,\n"
        "    'shape': list(x.shape), 'labels': d.labels.tolist(),\n"
        "    'sum': float(x.sum()), 'abs_sum': float(abs(x).sum()),\n"
        "    'sq_sum': float((x * x).sum()), 'probe': float(x[19, 0, 11, 3])}))\n"
    )
    assert out["before"] is False
    assert out["ame"] == pytest.approx(10.123228880021276, rel=1e-12)
    assert out["shape"] == [20, 1, 12, 12]
    assert out["labels"] == [5, 4, 3, 2, 9, 8, 8, 1, 4, 3, 9, 6, 7, 9, 0, 8, 5, 0, 9, 8]
    assert out["sum"] == pytest.approx(52.35061721425288, rel=1e-12)
    assert out["abs_sum"] == pytest.approx(1257.8983489496334, rel=1e-12)
    assert out["sq_sum"] == pytest.approx(809.1712190952776, rel=1e-12)
    assert out["probe"] == pytest.approx(0.05623265127581556, rel=1e-12)
